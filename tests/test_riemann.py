import numpy as np
import pytest

import nskwave as nw
from nskwave import riemann, thermo


def test_rarefaction_curve_anchor_and_monotone(model14):
    anchor = nw.EndState(v=1.2, u=0.3)
    assert nw.rarefaction_curve_u(1.2, anchor, model14) == pytest.approx(0.3)
    vs = np.array([0.7, 0.8, 0.9]) * anchor.v
    us = nw.rarefaction_curve_u(vs, anchor, model14)
    assert np.all(np.diff(us) > 0)  # u decreasing as v decreases
    z0 = thermo.riemann_invariant_z1(anchor.v, anchor.u, model14)
    assert np.max(np.abs(thermo.riemann_invariant_z1(vs, us, model14) - z0)) < 1e-12
    with pytest.raises(nw.DomainError):
        nw.rarefaction_curve_u(1.3, anchor, model14)


def test_shock_curve_acoustic_limit(model14, right_state):
    _, sigma = nw.shock_curve(1.0 - 1e-8, right_state, model14)
    assert sigma == pytest.approx(np.sqrt(-thermo.dpressure(1.0, model14)), abs=1e-4)
    with pytest.raises(nw.DomainError):
        nw.shock_curve(1.0, right_state, model14)
    with pytest.raises(nw.DomainError):
        nw.shock_curve(1.5, right_state, model14)


def test_shock_curve_high_precision_oracle(model14, right_state):
    # frozen from a 40-digit evaluation of sqrt((0.9**-1.4 - 1)/0.1)
    u, sigma = nw.shock_curve(0.9, right_state, model14)
    assert sigma == pytest.approx(1.2607091545397626351, rel=1e-14)
    assert u == pytest.approx(0.12607091545397626351, rel=1e-14)


def test_shock_speed_monotone_in_volume(model14, right_state):
    vs = np.linspace(0.5, 0.999, 50)
    sigmas = [nw.shock_curve(v, right_state, model14)[1] for v in vs]
    assert np.all(np.diff(sigmas) < 0)  # stronger shock is faster


def test_intermediate_state_degenerate_cases(model14, right_state):
    pat = nw.solve_intermediate_state(right_state, right_state, model14)
    assert pat.mid.v == pytest.approx(1.0)
    assert pat.delta_R == 0.0 and pat.delta_S == 0.0
    assert not pat.has_shock and not pat.has_rarefaction

    # left state on the shock curve: no rarefaction
    u, _ = nw.shock_curve(0.95, right_state, model14)
    pat = nw.solve_intermediate_state(nw.EndState(0.95, u), right_state, model14)
    assert pat.mid.v == pytest.approx(0.95, abs=1e-10)
    assert pat.delta_R < 1e-10


def test_intermediate_state_roundtrip_sweep(model14, right_state):
    """Forward patterns over the admissible shock range, resolved back from
    their end states: the intermediate volume to a few ulps."""
    errors = []
    for v_m in np.linspace(0.76, 0.999, 40):
        for frac in (0.01, 0.05, 0.1):
            pat = nw.pattern_from_intermediate(v_m, right_state, model14,
                                               v_minus=v_m * (1.0 - frac))
            back = nw.solve_intermediate_state(pat.left, pat.right, model14)
            errors.append(abs(back.mid.v - pat.mid.v))
    assert max(errors) <= 1e-14


def test_intermediate_state_matches_brentq(model14, right_state):
    """The bisection against scipy's brentq on the same function and bracket,
    over the patterns of the roundtrip sweep (measured: 1.4e-15)."""
    from scipy.optimize import brentq

    errors = []
    for v_m in np.linspace(0.76, 0.999, 40):
        for frac in (0.01, 0.05, 0.1):
            pat = nw.pattern_from_intermediate(v_m, right_state, model14,
                                               v_minus=v_m * (1.0 - frac))
            z1_left = thermo.riemann_invariant_z1(pat.left.v, pat.left.u, model14)

            def g(v):
                u, _ = riemann._hugoniot(v, right_state, model14)
                return float(thermo.riemann_invariant_z1(v, u, model14) - z1_left)

            lo = 0.999
            while g(lo) <= 0.0:
                lo *= 0.5
            ref = brentq(g, lo, 1.0, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
            back = nw.solve_intermediate_state(pat.left, pat.right, model14)
            errors.append(abs(back.mid.v / ref - 1.0))
    assert max(errors) <= 1e-14


def test_intermediate_state_roundtrip(model14, right_state):
    u_m, _ = nw.shock_curve(0.9, right_state, model14)
    mid = nw.EndState(0.9, u_m)
    left = nw.EndState(0.85, float(nw.rarefaction_curve_u(0.85, mid, model14)))
    pat = nw.solve_intermediate_state(left, right_state, model14)
    assert pat.mid.v == pytest.approx(0.9, abs=1e-10)
    assert pat.mid.u == pytest.approx(u_m, abs=1e-10)
    # solve residual: invariant matching across the corner state
    g = (thermo.riemann_invariant_z1(pat.mid.v, pat.mid.u, model14)
         - thermo.riemann_invariant_z1(left.v, left.u, model14))
    assert abs(g) < 1e-11


def test_wrong_side_left_state_rejected(model14, right_state):
    u_m, _ = nw.shock_curve(0.9, right_state, model14)
    mid = nw.EndState(0.9, u_m)
    # on the curve but with v above the intermediate volume (compression side)
    bad_u = mid.u + (thermo.lambda1_antiderivative(mid.v, model14)
                     - thermo.lambda1_antiderivative(0.95, model14))
    with pytest.raises(nw.PatternError, match="rarefaction side"):
        nw.solve_intermediate_state(nw.EndState(0.95, float(bad_u)), right_state, model14)


def test_pattern_below_curve_rejected(model14, right_state):
    with pytest.raises(nw.PatternError, match="not R1-S2"):
        nw.solve_intermediate_state(nw.EndState(1.0, -1.0), right_state, model14)


def test_strength_cap_enforced(model14, right_state):
    with pytest.raises(nw.PatternError, match="cap"):
        nw.pattern_from_intermediate(0.6, right_state, model14)


def test_shift_gain_constants_match_independent_formulas(pattern_std, model14):
    g = model14.gamma
    v_m = pattern_std.mid.v
    sigma_m = np.sqrt(g) * v_m ** (-(g + 1.0) / 2.0)
    assert pattern_std.sigma_m == pytest.approx(sigma_m, rel=1e-14)
    # second route to the curvature gain: p''(v_m) / (2 |p'(v_m)|^2 sigma_m)
    alpha_alt = (thermo.d2pressure(v_m, model14)
                 / (2.0 * thermo.dpressure(v_m, model14) ** 2 * sigma_m))
    assert pattern_std.alpha_m == pytest.approx(float(alpha_alt), rel=1e-14)
    assert pattern_std.M == pytest.approx(1.25 * sigma_m ** 3 * pattern_std.alpha_m, rel=1e-14)
    assert pattern_std.C1 > 0.0


def test_shock_speed_close_to_acoustic_speed(model14, right_state):
    # |sigma - sigma_m| <= C delta_S with a stable fitted C
    ratios = []
    for delta_S in (0.025, 0.05, 0.1, 0.2):
        pat = nw.pattern_from_intermediate(1.0 - delta_S, right_state, model14)
        ratios.append(abs(pat.sigma - pat.sigma_m) / delta_S)
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() / ratios.min() < 2.0


def test_c1_positive_across_admissible_strengths(model14, right_state):
    for delta_S in (0.01, 0.05, 0.1, 0.2, 0.24):
        pat = nw.pattern_from_intermediate(1.0 - delta_S, right_state, model14)
        assert pat.C1 > 0.0


def test_strength_diagnostics(pattern_std):
    assert pattern_std.delta_R == pytest.approx(0.1, rel=1e-12)
    assert pattern_std.delta_S == pytest.approx(0.1, rel=1e-12)
