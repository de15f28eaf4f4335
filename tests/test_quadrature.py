import math

import numpy as np
import pytest
from scipy.integrate import quad

from nskwave import quadrature
from nskwave.quadrature import adaptive_simpson


def integral(f, bp, **tol):
    """The (k,) integrals of ``f(x)`` over the one domain ``bp``."""
    (val,) = adaptive_simpson(lambda x, domain: f(x), [bp], **tol)
    return val


def test_polynomial_exact():
    (val,) = integral(lambda x: x ** 3 - 2 * x, [0.0, 2.0])
    assert val == pytest.approx(0.0, abs=1e-12)


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


def test_interval_cap_logs_a_warning(monkeypatch, caplog):
    def f(x):
        return np.exp(-x * x / 1e-4)

    exact = np.sqrt(np.pi * 1e-4)
    assert integral(f, [-1.0, 1.0], abs_tol=1e-14, rel_tol=1e-12) == pytest.approx([exact])
    assert not caplog.records
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 4)
    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        (val,) = integral(f, [-1.0, 1.0], abs_tol=1e-14, rel_tol=1e-12)
    assert np.isfinite(val)
    (rec,) = caplog.records
    assert rec.levelname == "WARNING"
    assert "intervals still open (cap 4)" in rec.getMessage()


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
    # 17 calls; refining the jump down to MAX_LEVELS would take 61
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
    together = adaptive_simpson(lockstep(fs, calls), list(breakpoints),
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
    assert equal(adaptive_simpson(lockstep([f], []), [bp], abs_tol=1e-13, rel_tol=1e-11),
                 alone[:1])


def test_vector_integrands_in_lockstep():
    def rows(scale):
        return lambda x: np.array([np.exp(-scale * x * x), np.cos(scale * x)])

    fs = [rows(1.0), rows(3.0), rows(0.5)]
    breakpoints = [[-30.0, 0.0, 30.0], [-1.0, 2.0], [0.0, 5.0, 40.0]]
    together = adaptive_simpson(lockstep(fs, []), breakpoints, abs_tol=1e-13, rel_tol=1e-11)
    for f, bp, val in zip(fs, breakpoints, together):
        alone = integral(f, bp, abs_tol=1e-13, rel_tol=1e-11)
        assert val.shape == (2,) and np.array_equal(val, alone)


def test_a_domain_at_the_valve_leaves_the_others_converged(monkeypatch, caplog):
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 4)
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
    assert "domain 0 on [-1, 1]: " in valve and "intervals still open (cap 4)" in valve
    caplog.clear()
    fs, breakpoints = zip(*domains)
    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        together = adaptive_simpson(lockstep(fs, []), list(breakpoints), **tol)
    # the same warning, naming the valve's place in the lockstep
    assert [rec.getMessage() for rec in caplog.records] == [valve.replace("domain 0", "domain 1")]
    assert equal(together, alone)
    assert together[0] == pytest.approx([math.e - 1.0], rel=1e-8)


def refine_alone(f, bp, abs_tol, rel_tol):
    """One domain refined on its own with arrays of its own: the per-domain
    implementation the flat table replaced, kept as the reference for its
    bits.  Returns the (k,) integrals, the levels refined and whether the
    valve fired; the rules are those of ``adaptive_simpson``."""
    pts = np.unique(np.asarray(bp, dtype=float))
    total_len = pts[-1] - pts[0]
    a, b = pts[:-1], pts[1:]
    m = 0.5 * (pts[:-1] + pts[1:])
    n = a.size
    first = np.atleast_2d(f(np.concatenate([pts, m])))
    fa, fb, fm = first[:, :n], first[:, 1:n + 1], first[:, n + 1:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    result, accepted_err = np.zeros(first.shape[0]), np.zeros(first.shape[0])
    for level in range(quadrature.MAX_LEVELS):
        ml, mr = 0.5 * (a + m), 0.5 * (m + b)
        fmid = np.atleast_2d(f(np.concatenate([ml, mr])))
        fml, fmr = fmid[:, :a.size], fmid[:, a.size:]
        h = b - a
        s_left = h / 12.0 * (fa + 4.0 * fml + fm)
        s_right = h / 12.0 * (fm + 4.0 * fmr + fb)
        s2 = s_left + s_right
        diff = np.abs(s2 - whole)
        err = diff / 15.0
        richardson = s2 + (s2 - whole) / 15.0
        global_scale = np.abs(result) + np.sum(np.abs(s2), axis=1)
        share = h / total_len
        tol = np.maximum(abs_tol * share,
                         rel_tol * np.maximum(np.abs(s2), global_scale[:, None] * share))
        done = np.all(err <= tol, axis=0)
        result += np.sum(richardson[:, done], axis=1)
        accepted_err += np.sum(err[:, done], axis=1)
        keep = ~done
        open_err = np.maximum(np.sum(err[:, keep], axis=1),
                              np.sqrt(np.sum(diff[:, keep] ** 2, axis=1)))
        if not keep.any() or np.all(accepted_err + open_err
                                    <= np.maximum(rel_tol * global_scale, abs_tol)):
            return result + np.sum(richardson[:, keep], axis=1), level + 1, False
        if np.count_nonzero(keep) > quadrature.MAX_INTERVALS or level == quadrature.MAX_LEVELS - 1:
            return result + np.sum(s2[:, keep], axis=1), level + 1, True
        a, b = np.concatenate([a[keep], m[keep]]), np.concatenate([m[keep], b[keep]])
        fa = np.concatenate([fa[:, keep], fm[:, keep]], axis=1)
        fb = np.concatenate([fm[:, keep], fb[:, keep]], axis=1)
        m = np.concatenate([ml[keep], mr[keep]])
        fm = np.concatenate([fml[:, keep], fmr[:, keep]], axis=1)
        whole = np.concatenate([s_left[:, keep], s_right[:, keep]], axis=1)


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


@pytest.mark.parametrize("k", [1, 7])
def test_nine_domains_in_lockstep_keep_the_bits_of_each_alone(k, monkeypatch, caplog):
    """Nine domains that stop at different levels, one at the valve, with
    one or seven rows: numpy sums a boolean selection of k > 1 rows in
    another order than one row, so each layout is checked to the bit."""
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 1024)
    tol = {"abs_tol": 1e-13, "rel_tol": 1e-11}
    fs = [rows(g, k) for g, _ in NINE]
    breakpoints = [bp for _, bp in NINE]
    alone = [refine_alone(f, bp, **tol) for f, bp in zip(fs, breakpoints)]
    levels = [level for _, level, _ in alone]
    assert len(set(levels)) >= 4
    assert [valve for _, _, valve in alone] == [i == 5 for i in range(9)]
    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        together = adaptive_simpson(lockstep(fs, []), breakpoints, **tol)
    assert all(val.shape == (k,) for val in together)
    assert equal(together, [val for val, _, _ in alone])
    (valve,) = [rec.getMessage() for rec in caplog.records]
    assert valve.startswith("adaptive_simpson: domain 5 on [0, 20]: ")
    assert f"intervals still open (cap 1024) after {levels[5]} levels" in valve
