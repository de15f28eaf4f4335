from pathlib import Path

import numpy as np
import pytest

import nskwave as nw
from nskwave import thermo
from nskwave.composite import (_capillary_grad_x, _capillary_main_x,
                               _pressure_flux_x, _viscous_flux_x)
from nskwave.config import parse_config
from nskwave.rarefaction import RarefactionWave
from tests.conftest import make_pattern


def make_composite(model, v_m, delta_R):
    pat = make_pattern(model, v_m, delta_R)
    prof = nw.solve_profile(pat, model) if pat.has_shock else None
    return nw.CompositeWave(RarefactionWave(pat, model), prof, pat, model)


@pytest.fixture(scope="module")
def overlap_x():
    return np.linspace(-20.0, 20.0, 301)


def test_degenerate_superpositions(model14, composite_std, overlap_x):
    # no fan: composite equals the shifted profile exactly
    comp = make_composite(model14, 0.9, 0.0)
    t, X = 1.5, 0.3
    bar = comp.eval_bar(t, overlap_x, X)
    st = nw.eval_profile(comp.profile, overlap_x - comp.pattern.sigma * t - X)
    assert np.max(np.abs(bar["v"] - st["v"])) == 0.0
    assert np.max(np.abs(bar["u"] - st["u"])) == 0.0
    # no shock: composite equals the fan
    pat = make_pattern(model14, 1.0, 0.08)
    comp = nw.CompositeWave(RarefactionWave(pat, model14), None, pat, model14)
    bar = comp.eval_bar(t, overlap_x, X)
    fan = comp.rarefaction.eval(t, overlap_x, order=0)
    assert np.max(np.abs(bar["v"] - fan["v"])) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3])
def test_no_shock_stack_has_the_profile_keys(model14, profile_std, overlap_x, order):
    pat = make_pattern(model14, 1.0, 0.08)
    comp = nw.CompositeWave(RarefactionWave(pat, model14), None, pat, model14)
    st = comp.shock_stack(1.5, overlap_x, 0.3, order=order)
    assert st.keys() == nw.eval_profile(profile_std, overlap_x, order=order).keys()
    assert np.all(st["v"] == pat.mid.v) and np.all(st["u"] == pat.mid.u)
    for key in st.keys() - {"v", "u"}:
        assert np.all(st[key] == 0.0), key


def test_auxiliary_field_identity(composite_std, model14, overlap_x):
    rng = np.random.default_rng(5)
    t, X = 2.0, 0.1
    x = rng.uniform(-25, 25, 100)
    bar = composite_std.eval_bar(t, x, X)
    kap = thermo.capillarity(bar["v"], model14)
    expected = -np.sqrt(kap) * bar["vx"] / bar["v"] ** 2.5
    np.testing.assert_allclose(bar["w"], expected, atol=1e-12)


def test_bar_derivatives_additive(composite_std, overlap_x):
    t, X = 2.0, 0.1
    bar = composite_std.eval_bar(t, overlap_x, X)
    rs, ss = composite_std.part_stacks(t, overlap_x, X, order=1)
    np.testing.assert_allclose(bar["vx"], rs["vx"] + ss["vx"], rtol=1e-14)
    np.testing.assert_allclose(bar["ux"], rs["ux"] + ss["ux"], rtol=1e-14)


def test_composite_mass_equation(composite_std, overlap_x):
    """v_bar_t - u_bar_x = 0 at frozen shift, through both chain rules."""
    t, h = 2.0, 1e-5
    bar_p = composite_std.eval_bar(t + h, overlap_x, 0.0)
    bar_m = composite_std.eval_bar(t - h, overlap_x, 0.0)
    vt = (bar_p["v"] - bar_m["v"]) / (2 * h)
    bar = composite_std.eval_bar(t, overlap_x, 0.0)
    assert np.max(np.abs(vt - bar["ux"])) < 1e-9


@pytest.mark.parametrize("gas", [(1.4, 0.0, 0.0), (1.6, 0.5, 1.0), (2.0, -0.3, -1.0)])
def test_momentum_forcing_closes_composite_equation(gas):
    """The two forcing terms are exactly what the superposed fields leave in
    the momentum equation, for general transport exponents."""
    model = nw.GasModel(*gas)
    comp = make_composite(model, 0.9, 0.08)
    pat = comp.pattern
    t, X = 2.0, 0.37
    x = np.linspace(-15.0, 15.0, 301)
    rs, ss = comp.part_stacks(t, x, X, order=3)
    q1i, q1r = comp.momentum_defect(t, x, X)
    bar = {"v": ss["v"] + (rs["v"] - pat.mid.v), "vx": rs["vx"] + ss["vx"],
           "vxx": rs["vxx"] + ss["vxx"], "vxxx": rs["vxxx"] + ss["vxxx"],
           "ux": rs["ux"] + ss["ux"], "uxx": rs["uxx"] + ss["uxx"]}
    # time derivative of the superposed velocity at frozen shift: the fan
    # solves the ideal system and the profile translates at speed sigma
    ubar_t = -_pressure_flux_x(rs, model) - pat.sigma * ss["ux"]
    lhs = ubar_t + _pressure_flux_x(bar, model)
    rhs = (_viscous_flux_x(bar, model) + _capillary_main_x(bar, model)
           - _capillary_grad_x(bar, model) + q1i + q1r)
    scale = np.max(np.abs(q1i)) + np.max(np.abs(q1r))
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, scale / 1e-2)


@pytest.mark.parametrize("gas", [(1.4, 0.0, 0.0), (1.6, 0.5, 1.0)])
def test_aux_forcing_closes_composite_equation(gas):
    model = nw.GasModel(*gas)
    comp = make_composite(model, 0.9, 0.08)
    pat = comp.pattern
    b = model.beta
    t, X, Xdot = 2.0, 0.37, 0.7
    x = np.linspace(-15.0, 15.0, 301)
    rs, ss = comp.part_stacks(t, x, X, order=2)
    q2 = comp.aux_defect(t, x, X, Xdot)

    def gcap(v):
        return v ** (-0.5 * (b + 5.0))

    def gcapp(v):
        return -0.5 * (b + 5.0) * v ** (-0.5 * (b + 7.0))

    vbar = ss["v"] + (rs["v"] - pat.mid.v)
    vbar_x = rs["vx"] + ss["vx"]
    ubar_x = rs["ux"] + ss["ux"]
    ubar_xx = rs["uxx"] + ss["uxx"]
    vbar_t = rs["ux"] - (pat.sigma + Xdot) * ss["vx"]
    vbar_tx = rs["uxx"] - (pat.sigma + Xdot) * ss["vxx"]
    wbar_t = -gcapp(vbar) * vbar_t * vbar_x - gcap(vbar) * vbar_tx
    wSx = -gcapp(ss["v"]) * ss["vx"] ** 2 - gcap(ss["v"]) * ss["vxx"]
    flux_x = gcapp(vbar) * vbar_x * ubar_x + gcap(vbar) * ubar_xx
    resid = wbar_t + Xdot * wSx + flux_x - q2
    assert np.max(np.abs(resid)) < 1e-14


def test_forcing_single_wave_cancellations(model14, overlap_x):
    t, X = 1.0, 0.2
    comp = make_composite(model14, 0.9, 0.0)  # no fan
    q1i, q1r = comp.momentum_defect(t, overlap_x, X)
    assert np.all(q1i == 0.0) and np.all(q1r == 0.0)
    assert np.all(comp.aux_defect(t, overlap_x, X, 1.0) == 0.0)
    pat = make_pattern(model14, 1.0, 0.08)  # no shock
    comp = nw.CompositeWave(RarefactionWave(pat, model14), None, pat, model14)
    q1i, q1r = comp.momentum_defect(t, overlap_x, X)
    assert np.all(q1i == 0.0)
    assert np.max(np.abs(q1r)) > 0.0
    assert np.all(comp.aux_defect(t, overlap_x, X, 1.0) == 0.0)


def test_aux_forcing_linear_in_rate(composite_std, overlap_x):
    q1 = composite_std.aux_defect(1.0, overlap_x, 0.0, 1.0)
    q2 = composite_std.aux_defect(1.0, overlap_x, 0.0, 2.0)
    assert np.max(np.abs(q2 - 2.0 * q1)) < 1e-14
    assert np.all(composite_std.aux_defect(1.0, overlap_x, 0.0, 0.0) == 0.0)


def test_weight_bounds_and_slope(composite_std, pattern_std):
    rng = np.random.default_rng(9)
    x = rng.uniform(-60, 60, 10_000)
    t, X = 2.0, 0.4
    bar = composite_std.eval_bar(t, x, X)
    a = bar["a"]
    assert np.all(a >= 1.0) and np.all(a <= 2.0)
    # far upstream of the shock the weight is exactly one
    left = composite_std.eval_bar(t, np.array([pattern_std.sigma * t + X - 1e4]), X)["a"]
    assert left[0] == 1.0
    ax = bar["a_x"]
    _, ss = composite_std.part_stacks(t, x, X, order=1)
    np.testing.assert_allclose(
        ax, pattern_std.sigma * ss["vx"] / np.sqrt(pattern_std.delta_S), atol=1e-12)
    assert np.all(ax >= 0.0)


def test_interaction_norms_zero_without_overlap(model14, overlap_x):
    comp = make_composite(model14, 0.9, 0.0)
    (rec,) = comp.interaction_norms([1.0])
    assert set(rec) == {"vSx_vR_L1", "vSx_vR_L2", "vRx_vSx_L1", "vRx_vSx_L2",
                        "vRx_vS_L2", "Q1I_L2", "Q2_L2"}
    assert all(v == 0.0 for v in rec.values())


def test_interaction_norms_decrease_with_separation(composite_std):
    early, late = composite_std.interaction_norms([0.0, 20.0 / composite_std.pattern.delta_S])
    for key in early:
        assert late[key] < early[key] or early[key] == 0.0


def test_interaction_norm_against_dense_quadrature(composite_std):
    from scipy.integrate import simpson
    t = 1.0
    comp = composite_std
    lo = comp.rarefaction.support(t)[0]
    hi = comp.pattern.sigma * t + comp.profile.xi_hi
    x = np.linspace(lo, hi, 400_001)
    rs, ss = comp.part_stacks(t, x, 0.0, order=1)
    f = ss["vx"] * (rs["v"] - comp.pattern.mid.v)
    oracle = np.sqrt(simpson(f ** 2, x=x))
    (rec,) = comp.interaction_norms([t])
    assert rec["vSx_vR_L2"] == pytest.approx(oracle, rel=1e-5)


@pytest.fixture(scope="module")
def composite_standard():
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "standard.cfg")
    return nw.build_composite(cfg.build_pattern(), cfg.gas)


def fixed_grid_norms(comp, t, keys, spacing=0.01):
    """The norms ``keys`` (``<integrand>_L<p>``) by composite Simpson on a
    uniform grid over both waves, with integrands from part_stacks,
    momentum_defect and aux_defect."""
    fan_lo, fan_hi = comp.rarefaction.support(t)
    center = comp.pattern.sigma * t
    lo = min(fan_lo, center + comp.profile.xi_lo)
    hi = max(fan_hi, center + comp.profile.xi_hi)
    n = 2 * int(np.ceil((hi - lo) / (2.0 * spacing)))
    x = np.linspace(lo, hi, n + 1)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (hi - lo) / (3.0 * n)
    v_m = comp.pattern.mid.v
    fan, shock = comp.part_stacks(t, x, 0.0, order=1)
    terms = {"vSx_vR": shock["vx"] * (fan["v"] - v_m), "vRx_vSx": fan["vx"] * shock["vx"],
             "vRx_vS": fan["vx"] * (shock["v"] - v_m),
             "Q1I": comp.momentum_defect(t, x, 0.0)[0], "Q2": comp.aux_defect(t, x, 0.0, 1.0)}
    out = {}
    for key in keys:
        name, _, norm = key.rpartition("_")
        p = int(norm[1:])
        out[key] = float(w @ np.abs(terms[name]) ** p) ** (1.0 / p)
    return out


@pytest.mark.parametrize("t", [70.0, 80.0])
def test_interaction_norms_reach_their_tolerance(composite_standard, t, caplog):
    # where the waves separate, the shock's far tail carries the overlap
    with caplog.at_level("WARNING", logger="nskwave.quadrature"):
        (rec,) = composite_standard.interaction_norms([t])
    assert not caplog.records
    ref = fixed_grid_norms(composite_standard, t, rec)
    # criterion 4's floor; measured within 3.3e-10 of the reference
    for key, value in rec.items():
        if ref[key] > 1e-18:
            assert value == pytest.approx(ref[key], rel=1e-8, abs=0.0), key
