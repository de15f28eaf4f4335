import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nskwave as nw
from nskwave import thermo


def test_pressure_identity_cases(model14):
    assert thermo.pressure(1.0, model14) == pytest.approx(1.0)
    assert thermo.pressure(2.0, nw.GasModel(2.0)) == pytest.approx(0.25)


def test_pressure_high_precision_oracle(model14):
    # frozen from a 40-digit arbitrary-precision evaluation of 0.9**-1.4
    assert thermo.pressure(0.9, model14) == pytest.approx(
        1.1589387572340363106, rel=1e-14)


def test_pressure_rejects_nonpositive(model14):
    with pytest.raises(nw.DomainError):
        thermo.pressure(0.0, model14)
    with pytest.raises(nw.DomainError):
        thermo.pressure(np.array([1.0, -2.0]), model14)


def test_internal_energy_values():
    assert thermo.internal_energy(1.0, nw.GasModel(2.0)) == pytest.approx(1.0)
    assert thermo.internal_energy(2.0, nw.GasModel(3.0)) == pytest.approx(0.125)


def test_internal_energy_prime_is_minus_pressure(model14):
    h, v = 1e-6, 1.3
    dq = (thermo.internal_energy(v + h, model14)
          - thermo.internal_energy(v - h, model14)) / (2 * h)
    assert abs(dq + thermo.pressure(v, model14)) < 1e-8


def test_dpressure_against_central_difference(model14):
    h = 1e-5
    for v in (0.5, 0.9, 1.7):
        fd = (thermo.pressure(v + h, model14) - thermo.pressure(v - h, model14)) / (2 * h)
        assert thermo.dpressure(v, model14) == pytest.approx(fd, rel=1e-7)


def test_relative_quantity_identity_and_example(model14):
    assert thermo.relative_internal_energy(1.7, 1.7, model14) == 0.0
    # p(2) - p(1) - p'(1)(2-1) with gamma = 2
    assert thermo.relative_pressure(2.0, 1.0, nw.GasModel(2.0)) == pytest.approx(1.25)


def test_relative_energy_taylor_limit(model14):
    # ratio to (1/2) Q''(1) h^2 tends to 1
    q2 = -thermo.dpressure(1.0, model14)
    for h in (1e-2, 1e-3):
        r = thermo.relative_internal_energy(1.0 + h, 1.0, model14) / (0.5 * q2 * h * h)
        assert abs(r - 1.0) < 0.01 or h > 1e-3
    h = 1e-3
    r = thermo.relative_internal_energy(1.0 + h, 1.0, model14) / (0.5 * q2 * h * h)
    assert abs(r - 1.0) < 0.01


@given(v=st.floats(0.1, 3.0), vbar=st.floats(0.1, 3.0))
@settings(max_examples=200, deadline=None)
def test_relative_quantities_nonnegative(v, vbar):
    model = nw.GasModel(1.4)
    assert thermo.relative_pressure(v, vbar, model) >= -1e-14
    assert thermo.relative_internal_energy(v, vbar, model) >= -1e-14


def test_convexity_sampled(model14):
    rng = np.random.default_rng(7)
    v = rng.uniform(0.1, 3.0, 10_000)
    vbar = rng.uniform(0.1, 3.0, 10_000)
    q = thermo.relative_internal_energy(v, vbar, model14)
    p = thermo.relative_pressure(v, vbar, model14)
    assert np.all(q >= -1e-14) and np.all(p >= -1e-14)
    off_diag = np.abs(v - vbar) >= 1e-15
    assert np.all(q[off_diag & (np.abs(v - vbar) > 1e-7)] > 1e-14)


def test_characteristic_speeds(model14):
    lam1, lam2 = thermo.characteristic_speeds(1.0, nw.GasModel(3.0))
    assert lam1 == pytest.approx(-np.sqrt(3.0))
    assert lam2 == pytest.approx(np.sqrt(3.0))
    # monotone in v
    v = np.linspace(0.5, 2.0, 50)
    l1 = thermo.characteristic_speeds(v, model14)[0]
    assert np.all(np.diff(l1) > 0)
    # finite-difference oracle at 0.9
    h = 1e-6
    dp_fd = (thermo.pressure(0.9 + h, model14) - thermo.pressure(0.9 - h, model14)) / (2 * h)
    assert thermo.characteristic_speeds(0.9, model14)[0] == pytest.approx(
        -np.sqrt(-dp_fd), rel=1e-6)


def test_riemann_invariant_additivity(model14):
    z = thermo.riemann_invariant_z1(1.3, 0.4, model14)
    assert thermo.riemann_invariant_z1(1.3, 0.4 + 2.5, model14) == pytest.approx(z + 2.5)


def test_antiderivative_against_quadrature(model14):
    from scipy.integrate import quad
    val, _ = quad(lambda s: thermo.characteristic_speeds(s, model14)[0], 0.5, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    closed = (thermo.lambda1_antiderivative(1.0, model14)
              - thermo.lambda1_antiderivative(0.5, model14))
    assert closed == pytest.approx(val, abs=1e-10)


def _fitted_max_ratio(num, den, floor=1e-30):
    mask = den > floor
    return float(np.max(num[mask] / den[mask]))


def test_quadratic_lower_bounds_fitted_constant(model14):
    # |v - vbar|^2 <= C * Q(v|vbar) and <= C * p(v|vbar) with a stable C
    v_plus = 1.0
    cs = {}
    for size in (10_000, 40_000):
        rng = np.random.default_rng(11)
        vbar = rng.uniform(0.02, 2.0 * v_plus, size)
        v = rng.uniform(0.02, 3.0 * v_plus, size)
        gap2 = (v - vbar) ** 2
        cq = _fitted_max_ratio(gap2, np.asarray(thermo.relative_internal_energy(v, vbar, model14)))
        cp = _fitted_max_ratio(gap2, np.asarray(thermo.relative_pressure(v, vbar, model14)))
        cs[size] = (cq, cp)
    assert all(np.isfinite(c) for pair in cs.values() for c in pair)
    for i in range(2):
        ratio = cs[40_000][i] / cs[10_000][i]
        assert 0.5 < ratio < 2.0


def test_pressure_lipschitz_fitted_constant(model14):
    rng = np.random.default_rng(12)
    v = rng.uniform(0.5, 4.0, 10_000)
    vbar = rng.uniform(0.5, 4.0, 10_000)
    mask = np.abs(v - vbar) > 1e-12
    c = np.max(np.abs(thermo.pressure(v[mask], model14) - thermo.pressure(vbar[mask], model14))
               / np.abs(v[mask] - vbar[mask]))
    # the sharp constant on v, vbar > 1/2 is |p'(1/2)|
    assert c <= -float(thermo.dpressure(0.5, model14)) + 1e-9


def _small_pressure_gap_samples(model14, rng, size, delta, v_plus=1.0):
    p_plus = float(thermo.pressure(v_plus, model14))
    pbar = rng.uniform(p_plus - delta, p_plus + delta, size)
    p = pbar + rng.uniform(-delta, delta, size)
    g = model14.gamma
    return p ** (-1.0 / g), pbar ** (-1.0 / g)


def test_small_gap_quadratic_bounds(model14):
    """Near-constant-pressure expansions hold with an O(delta) fitted slack."""
    g = model14.gamma
    delta = 0.05
    slacks = {}
    for size in (10_000, 40_000):
        rng = np.random.default_rng(21)
        v, vbar = _small_pressure_gap_samples(model14, rng, size, delta)
        p, pbar = thermo.pressure(v, model14), thermo.pressure(vbar, model14)
        gap = p - pbar
        mask = np.abs(gap) > 1e-10
        v, vbar, p, pbar, gap = v[mask], vbar[mask], p[mask], pbar[mask], gap[mask]
        prel = np.asarray(thermo.relative_pressure(v, vbar, model14))
        qrel = np.asarray(thermo.relative_internal_energy(v, vbar, model14))
        # upper bound on p(v|vbar)
        c1 = np.max((prel / gap ** 2 - (g + 1.0) / (2.0 * g * pbar)) / delta)
        # lower bound on Q(v|vbar), cubic-corrected
        lower = (pbar ** (-1.0 / g - 1.0) / (2.0 * g) * gap ** 2
                 - (1.0 + g) / (3.0 * g * g) * pbar ** (-1.0 / g - 2.0) * gap ** 3)
        c2 = np.max((lower - qrel) / (delta * gap ** 2))
        # upper bound on Q(v|vbar)
        c3 = np.max((qrel / gap ** 2 - pbar ** (-1.0 / g - 1.0) / (2.0 * g)) / delta)
        slacks[size] = (max(c1, 0.0), max(c2, 0.0), max(c3, 0.0))
    for i in range(3):
        a, b = slacks[10_000][i], slacks[40_000][i]
        assert np.isfinite(b)
        assert b <= 2.0 * max(a, 0.1), f"slack constant {i} unstable: {a} -> {b}"
