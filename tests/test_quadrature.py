import math

import numpy as np
import pytest
from scipy.integrate import quad

from nskwave import quadrature
from nskwave.quadrature import gauss_kronrod


def integral(f, bp, **tol):
    """The (k,) integrals of ``f(x)`` over the one domain ``bp``."""
    (val,) = gauss_kronrod(lambda x, domain: f(x), [bp], **tol)
    return val


def test_rule_is_qk21():
    # the Gauss nodes and weights are Gauss-Legendre's; the Kronrod rule is
    # exact on the monomials to degree 31 and not on degree 32
    nodes, weights = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(quadrature.NODES[1::2], nodes, rtol=0.0, atol=2e-16)
    wg = np.concatenate([quadrature._WG, quadrature._WG[::-1]])
    np.testing.assert_allclose(wg, weights, rtol=0.0, atol=3e-16)
    wk = np.concatenate([quadrature._WK, quadrature._WK[-2::-1]])
    moments = [wk @ quadrature.NODES ** d - (1.0 - (-1.0) ** (d + 1)) / (d + 1) for d in range(33)]
    assert np.max(np.abs(moments[:32])) < 1e-15
    assert abs(moments[32]) > 1e-13


def test_polynomial_exact():
    # the Gauss rule is exact to degree 19, so K - G vanishes and one call of
    # 21 points returns the Kronrod sum; the Kronrod sums are exact to
    # degree 31 on every panel, however the refinement splits them
    for degree in (19, 31):
        calls = []
        (val,) = integral(counted(lambda x: x ** degree - 2 * x, calls), [0.0, 2.0])
        assert val == pytest.approx(2.0 ** (degree + 1) / (degree + 1) - 4.0, rel=1e-15)
        if degree == 19:
            assert calls == [quadrature.POINTS]


def test_against_scipy_quad():
    f = lambda x: np.exp(-2.0 * np.abs(x)) * np.cos(3.0 * x)
    (mine,) = integral(f, [-30.0, 0.0, 30.0], abs_tol=1e-12, rel_tol=1e-11)
    ref, _ = quad(f, -30, 30, epsabs=1e-13, limit=400)
    assert mine == pytest.approx(ref, abs=1e-10)


def test_localized_feature_found_from_breakpoints():
    # sharp bump far from the interval center, seeded by a breakpoint
    f = lambda x: np.exp(-((x - 900.0) ** 2))
    (val,) = integral(f, [0.0, 900.0, 1000.0], abs_tol=1e-12, rel_tol=1e-10)
    assert val == pytest.approx(np.sqrt(np.pi), rel=1e-8)


def test_exponential_hump_at_gap_edge():
    # monotone decay over a long interval: refinement must walk into the edge
    f = lambda x: np.exp(-0.2 * x)
    (val,) = integral(f, [0.0, 2000.0], abs_tol=1e-13, rel_tol=1e-10)
    assert val == pytest.approx(5.0 * (1.0 - np.exp(-400.0)), rel=1e-8)


def test_zero_integrand():
    (val,) = integral(lambda x: np.zeros_like(x), [0.0, 1.0])
    assert val == 0.0


def test_sign_change_terminates():
    (val,) = integral(np.sin, [0.0, 2.0 * np.pi], abs_tol=1e-13, rel_tol=1e-10)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_requires_two_breakpoints():
    with pytest.raises(ValueError):
        integral(lambda x: x, [1.0])


def test_point_budget_logs_a_warning(monkeypatch, caplog):
    def f(x):
        return np.exp(-x * x / 1e-4)

    exact = np.sqrt(np.pi * 1e-4)
    calls = []
    assert integral(counted(f, calls), [-1.0, 1.0], abs_tol=1e-14,
                    rel_tol=1e-12) == pytest.approx([exact])
    assert not caplog.records
    # a budget the converged refinement passes: the valve stops the domain
    # before its next level would pass it
    assert sum(calls) > 150
    monkeypatch.setattr(quadrature, "MAX_POINTS", 150)
    calls.clear()
    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        (val,) = integral(counted(f, calls), [-1.0, 1.0], abs_tol=1e-14, rel_tol=1e-12)
    assert np.isfinite(val)
    assert sum(calls) <= 150
    (rec,) = caplog.records
    assert rec.levelname == "WARNING"
    assert f"and {sum(calls)} points (budget 150)" in rec.getMessage()


def test_rows_of_a_vector_integrand_share_one_refinement():
    def f(x):
        return np.array([np.exp(-x * x), np.exp(-2.0 * np.abs(x)) * np.cos(3.0 * x),
                         x ** 3 - 2.0 * x, np.zeros_like(x)])

    calls = []
    val = integral(lambda x: calls.append(x.size) or f(x), [-30.0, 0.0, 30.0],
                   abs_tol=1e-13, rel_tol=1e-11)
    assert val.shape == (4,)
    exact = [np.sqrt(np.pi), 4.0 / 13.0, 0.0, 0.0]
    np.testing.assert_allclose(val, exact, rtol=1e-11, atol=1e-12)
    assert val[3] == 0.0
    # one evaluation per level for all rows; a 1-D integrand is one row
    assert len(calls) <= quadrature.MAX_LEVELS
    assert integral(lambda x: f(x)[0], [-30.0, 0.0, 30.0]).shape == (1,)


def test_each_row_takes_its_own_floor():
    # a row far below its floor stops refining at once, where a floor of
    # zero refines it to the relative tolerance; a (k,) floor equal in every
    # row gives the bits of the scalar one
    def f(x):
        return np.array([np.exp(-x * x), 1e-30 * np.cos(40.0 * x) * np.exp(-x * x)])

    bp = [-8.0, 0.0, 8.0]
    loose, strict = [], []
    val = integral(counted(f, loose), bp, abs_tol=np.array([0.0, 1e-20]), rel_tol=1e-11)
    ref = integral(counted(f, strict), bp, abs_tol=0.0, rel_tol=1e-11)
    assert len(loose) < len(strict)
    assert val[0] == pytest.approx(np.sqrt(np.pi), rel=1e-11)
    # the second row's integral, 1e-30 sqrt(pi) exp(-400), is zero in doubles
    assert abs(ref[1]) < 1e-40
    assert abs(val[1]) < 1e-20
    assert np.array_equal(integral(f, bp, abs_tol=1e-13),
                          integral(f, bp, abs_tol=np.array([1e-13, 1e-13])))


def test_small_jump_converges_without_the_valve(caplog):
    # a jump is never accepted by the interval's own test; the global test
    # stops once its error is small against the whole integral
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x * x) + 1e-4 * (x > 0.3)

    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        (val,) = integral(f, [-6.0, 6.0], abs_tol=1e-14, rel_tol=1e-8)
    exact = np.sqrt(np.pi) * math.erf(6.0) + 1e-4 * 5.7
    assert val == pytest.approx(exact, rel=1e-8)
    assert not caplog.records
    # 12 calls; refining the jump down to MAX_LEVELS would take 60
    assert len(calls) < 30


def lockstep(fs, calls):
    """One integrand for several domains: the points of domain i go to fs[i]."""
    def f(x, domain):
        calls.append(x.size)
        return np.choose(domain, [fi(x) for fi in fs])
    return f


def counted(f, calls):
    return lambda x: calls.append(x.size) or f(x)


def equal(results, others):
    """Whether two lists of per-domain results are equal to the bit."""
    return len(results) == len(others) and all(map(np.array_equal, results, others))


DOMAINS = [
    (lambda x: np.exp(-x * x), [-30.0, 0.0, 30.0]),
    (lambda x: np.exp(-2.0 * np.abs(x)) * np.cos(3.0 * x), [-30.0, 0.0, 30.0]),
    (lambda x: np.exp(-((x - 900.0) ** 2)), [0.0, 900.0, 1000.0]),
    (lambda x: x ** 3 - 2.0 * x, [0.0, 2.0]),
    (np.sin, [0.0, 2.0 * np.pi]),
]


def test_domains_in_lockstep_keep_their_single_domain_results():
    fs, breakpoints = zip(*DOMAINS)
    calls, alone_calls = [], []
    together = gauss_kronrod(lockstep(fs, calls), list(breakpoints),
                             abs_tol=1e-13, rel_tol=1e-11)
    alone = []
    for f, bp in DOMAINS:
        alone_calls.append([])
        alone.append(integral(counted(f, alone_calls[-1]), bp, abs_tol=1e-13, rel_tol=1e-11))
    assert equal(together, alone)
    assert all(val.shape == (1,) for val in together)
    # one call per level on the points of every open domain: as many calls
    # as the domain that refines longest, and no point more than alone
    assert len(calls) == max(map(len, alone_calls))
    assert sum(calls) == sum(map(sum, alone_calls))
    # a list of one domain is the one-domain case
    f, bp = DOMAINS[0]
    assert equal(gauss_kronrod(lockstep([f], []), [bp], abs_tol=1e-13, rel_tol=1e-11),
                 alone[:1])


def test_vector_integrands_in_lockstep():
    def rows(scale):
        return lambda x: np.array([np.exp(-scale * x * x), np.cos(scale * x)])

    fs = [rows(1.0), rows(3.0), rows(0.5)]
    breakpoints = [[-30.0, 0.0, 30.0], [-1.0, 2.0], [0.0, 5.0, 40.0]]
    together = gauss_kronrod(lockstep(fs, []), breakpoints, abs_tol=1e-13, rel_tol=1e-11)
    for f, bp, val in zip(fs, breakpoints, together):
        alone = integral(f, bp, abs_tol=1e-13, rel_tol=1e-11)
        assert val.shape == (2,) and np.array_equal(val, alone)


def test_a_domain_at_the_valve_leaves_the_others_converged(monkeypatch, caplog):
    monkeypatch.setattr(quadrature, "MAX_POINTS", 150)
    domains = [(np.exp, [0.0, 1.0]),
               (lambda x: np.exp(-x * x / 1e-4), [-1.0, 1.0]),
               (lambda x: x ** 3 - 2.0 * x, [0.0, 2.0])]
    tol = {"abs_tol": 1e-14, "rel_tol": 1e-8}
    alone, warnings = [], []
    for f, bp in domains:
        caplog.clear()
        with caplog.at_level("WARNING", logger="nskwave.quadrature"):
            alone.append(integral(f, bp, **tol))
        warnings.append([rec.getMessage() for rec in caplog.records])
    assert warnings[0] == warnings[2] == []
    (valve,) = warnings[1]
    assert "domain 0 on [-1, 1]: " in valve and "points (budget 150)" in valve
    caplog.clear()
    fs, breakpoints = zip(*domains)
    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        together = gauss_kronrod(lockstep(fs, []), list(breakpoints), **tol)
    # the same warning, naming the valve's place in the lockstep
    assert [rec.getMessage() for rec in caplog.records] == [valve.replace("domain 0", "domain 1")]
    assert equal(together, alone)
    assert together[0] == pytest.approx([math.e - 1.0], rel=1e-8)


def refine_alone(f, bp, abs_tol, rel_tol):
    """One domain refined on its own with arrays of its own: a per-domain
    implementation of the flat table's rules, kept as the reference for its
    bits.  Returns the (k,) integrals, the levels refined and whether the
    valve fired; the rules are those of ``gauss_kronrod``, and the panel
    rule is its own, which works element by element."""
    pts = np.unique(np.asarray(bp, dtype=float))
    total_len = pts[-1] - pts[0]
    a, b = pts[:-1], pts[1:]
    result = accepted_err = None
    spent = 0
    for level in range(quadrature.MAX_LEVELS):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        fx = np.atleast_2d(f((mid + np.multiply.outer(quadrature.NODES, half)).ravel()))
        if result is None:
            result, accepted_err = np.zeros(fx.shape[0]), np.zeros(fx.shape[0])
        kronrod, gauss = quadrature._rules(fx.reshape(fx.shape[0], quadrature.POINTS, a.size), half)
        err = np.abs(kronrod - gauss)
        global_scale = np.abs(result) + np.sum(np.abs(kronrod), axis=1)
        share = (b - a) / total_len
        tol = np.maximum(abs_tol * share,
                         rel_tol * np.maximum(np.abs(kronrod), global_scale[:, None] * share))
        done = np.all(err <= tol, axis=0)
        result += np.sum(kronrod[:, done], axis=1)
        accepted_err += np.sum(err[:, done], axis=1)
        keep = ~done
        spent += quadrature.POINTS * a.size
        if not keep.any() or np.all(accepted_err + np.sum(err[:, keep], axis=1)
                                    <= np.maximum(rel_tol * global_scale, abs_tol)):
            return result + np.sum(kronrod[:, keep], axis=1), level + 1, False
        if (spent + 2 * quadrature.POINTS * np.count_nonzero(keep) > quadrature.MAX_POINTS
                or level == quadrature.MAX_LEVELS - 1):
            return result + np.sum(kronrod[:, keep], axis=1), level + 1, True
        a, b = (np.stack([a[keep], mid[keep]], axis=1).ravel(),
                np.stack([mid[keep], b[keep]], axis=1).ravel())


NINE = DOMAINS + [
    (lambda x: np.cos(200.0 * x), [0.0, 20.0]),
    (np.arctan, [0.0, 1.0]),
    (lambda x: 1.0 / (1.0 + x * x), [-50.0, 0.0, 50.0]),
    (lambda x: np.exp(-0.2 * x), [0.0, 2000.0]),
]


def rows(g, k):
    """k rows of one refinement from ``g``: g itself for k = 1, else g times
    k smooth factors."""
    if k == 1:
        return g
    return lambda x: np.array([g(x) * (1.0 + 0.1 * j * np.tanh(x)) for j in range(k)])


#: a budget below the 21,483 points cos(200 x) takes to converge, above
#: what each other domain takes
BUDGET = 4096


@pytest.mark.parametrize("k", [1, 7])
def test_nine_domains_in_lockstep_keep_the_bits_of_each_alone(k, monkeypatch, caplog):
    """Nine domains that stop at different levels, one at the valve, with
    one or seven rows: numpy sums a boolean selection of k > 1 rows in
    another order than one row, so each layout is checked to the bit."""
    monkeypatch.setattr(quadrature, "MAX_POINTS", BUDGET)
    tol = {"abs_tol": 1e-13, "rel_tol": 1e-11}
    fs = [rows(g, k) for g, _ in NINE]
    breakpoints = [bp for _, bp in NINE]
    alone = [refine_alone(f, bp, **tol) for f, bp in zip(fs, breakpoints)]
    levels = [level for _, level, _ in alone]
    assert len(set(levels)) >= 4
    assert [valve for _, _, valve in alone] == [i == 5 for i in range(9)]
    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        together = gauss_kronrod(lockstep(fs, []), breakpoints, **tol)
    assert all(val.shape == (k,) for val in together)
    assert equal(together, [val for val, _, _ in alone])
    (valve,) = [rec.getMessage() for rec in caplog.records]
    assert valve.startswith("gauss_kronrod: domain 5 on [0, 20]: ")
    assert f"still open after {levels[5]} levels and " in valve
    assert valve.endswith(f"points (budget {BUDGET}); returning the unconverged estimate")
