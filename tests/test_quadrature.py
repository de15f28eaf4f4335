import math

import numpy as np
import pytest
from scipy.integrate import quad

from nskwave import quadrature
from nskwave.quadrature import adaptive_simpson


def test_polynomial_exact():
    val = adaptive_simpson(lambda x: x ** 3 - 2 * x, [0.0, 2.0])
    assert val == pytest.approx(0.0, abs=1e-12)


def test_against_scipy_quad():
    f = lambda x: np.exp(-2.0 * np.abs(x)) * np.cos(3.0 * x)
    mine = adaptive_simpson(f, [-30.0, 0.0, 30.0], abs_tol=1e-12, rel_tol=1e-11)
    ref, _ = quad(f, -30, 30, epsabs=1e-13, limit=400)
    assert mine == pytest.approx(ref, abs=1e-10)


def test_localized_feature_found_from_breakpoints():
    # sharp bump far from the interval center, seeded by a breakpoint
    f = lambda x: np.exp(-((x - 900.0) ** 2))
    val = adaptive_simpson(f, [0.0, 900.0, 1000.0], abs_tol=1e-12, rel_tol=1e-10)
    assert val == pytest.approx(np.sqrt(np.pi), rel=1e-8)


def test_exponential_hump_at_gap_edge():
    # monotone decay over a long interval: refinement must walk into the edge
    f = lambda x: np.exp(-0.2 * x)
    val = adaptive_simpson(f, [0.0, 2000.0], abs_tol=1e-13, rel_tol=1e-10)
    assert val == pytest.approx(5.0 * (1.0 - np.exp(-400.0)), rel=1e-8)


def test_zero_integrand():
    assert adaptive_simpson(lambda x: np.zeros_like(x), [0.0, 1.0]) == 0.0


def test_sign_change_terminates():
    val = adaptive_simpson(np.sin, [0.0, 2.0 * np.pi], abs_tol=1e-13, rel_tol=1e-10)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_requires_two_breakpoints():
    with pytest.raises(ValueError):
        adaptive_simpson(lambda x: x, [1.0])


def test_interval_cap_logs_a_warning(monkeypatch, caplog):
    def f(x):
        return np.exp(-x * x / 1e-4)

    exact = np.sqrt(np.pi * 1e-4)
    assert adaptive_simpson(f, [-1.0, 1.0], abs_tol=1e-14, rel_tol=1e-12) == pytest.approx(exact)
    assert not caplog.records
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 4)
    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        val = adaptive_simpson(f, [-1.0, 1.0], abs_tol=1e-14, rel_tol=1e-12)
    assert np.isfinite(val)
    (rec,) = caplog.records
    assert rec.levelname == "WARNING"
    assert "intervals still open (cap 4)" in rec.getMessage()


def test_rows_of_a_vector_integrand_share_one_refinement():
    def f(x):
        return np.array([np.exp(-x * x), np.exp(-2.0 * np.abs(x)) * np.cos(3.0 * x),
                         x ** 3 - 2.0 * x, np.zeros_like(x)])

    calls = []
    val = adaptive_simpson(lambda x: calls.append(x.size) or f(x), [-30.0, 0.0, 30.0],
                           abs_tol=1e-13, rel_tol=1e-11)
    assert val.shape == (4,)
    exact = [np.sqrt(np.pi), 4.0 / 13.0, 0.0, 0.0]
    np.testing.assert_allclose(val, exact, rtol=1e-11, atol=1e-12)
    assert val[3] == 0.0
    # one evaluation per level for all rows; a row alone still gives a float
    assert len(calls) <= quadrature.MAX_LEVELS
    assert isinstance(adaptive_simpson(lambda x: f(x)[0], [-30.0, 0.0, 30.0]), float)


def test_small_jump_converges_without_the_valve(caplog):
    # a jump is never accepted by the interval's own test; the global test
    # stops once its error is small against the whole integral
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x * x) + 1e-4 * (x > 0.3)

    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        val = adaptive_simpson(f, [-6.0, 6.0], abs_tol=1e-14, rel_tol=1e-8)
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
        alone.append(adaptive_simpson(counted(f, alone_calls[-1]), bp,
                                      abs_tol=1e-13, rel_tol=1e-11))
    assert together == alone
    assert all(isinstance(val, float) for val in together)
    # one call per level on the points of every open domain: as many calls
    # as the domain that refines longest, and no point more than alone
    assert len(calls) == max(map(len, alone_calls))
    assert sum(calls) == sum(map(sum, alone_calls))
    # a list of one domain is the one-domain case, returned as a list
    f, bp = DOMAINS[0]
    assert adaptive_simpson(lockstep([f], []), [bp], abs_tol=1e-13, rel_tol=1e-11) == alone[:1]


def test_vector_integrands_in_lockstep():
    def rows(scale):
        return lambda x: np.array([np.exp(-scale * x * x), np.cos(scale * x)])

    fs = [rows(1.0), rows(3.0), rows(0.5)]
    breakpoints = [[-30.0, 0.0, 30.0], [-1.0, 2.0], [0.0, 5.0, 40.0]]
    together = adaptive_simpson(lockstep(fs, []), breakpoints, abs_tol=1e-13, rel_tol=1e-11)
    for f, bp, val in zip(fs, breakpoints, together):
        alone = adaptive_simpson(f, bp, abs_tol=1e-13, rel_tol=1e-11)
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
            alone.append(adaptive_simpson(f, bp, **tol))
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
    assert together == alone
    assert together[0] == pytest.approx(math.e - 1.0, rel=1e-8)
