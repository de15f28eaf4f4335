import dataclasses
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import nskwave as nw
from nskwave import shockprofile, solver, thermo
from nskwave.composite import CompositeWave
from nskwave.rarefaction import RarefactionWave
from nskwave.shockprofile import ShockProfile
from nskwave.solver import _boundary_flux, _check_domain, _shift_rate, discrete_gradient_w
from tests.conftest import make_pattern

SMOKE_CFG = Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"


def shift_rate(state, grid, composite):
    shock = composite.shock_stack(state.t, grid.x, state.X, order=1)
    fan_u = composite.rarefaction.eval(state.t, grid.x, order=0)["u"]
    return _shift_rate(state.u, shock, fan_u, composite, grid.dx)


def smoke_every_step(shift=True):
    """configs/smoke.cfg with a record after every step."""
    cfg = nw.parse_config(SMOKE_CFG)
    cfg.scheme = dataclasses.replace(cfg.scheme, output_stride=1, shift=shift)
    return cfg


@pytest.fixture(scope="module")
def tw_setup(model14, right_state):
    """Pure-shock composite for traveling-wave tests."""
    pat = nw.pattern_from_intermediate(0.8, right_state, model14)
    prof = nw.solve_profile(pat, model14)
    comp = nw.CompositeWave(RarefactionWave(pat, model14), prof, pat, model14)
    return pat, prof, comp


def test_grid_validation():
    with pytest.raises(nw.ConfigError):
        nw.Grid(1.0, 0.0, 64)
    with pytest.raises(nw.ConfigError):
        nw.Grid(0.0, 1.0, 8)
    g = nw.Grid(-1.0, 1.0, 21)
    assert g.dx == pytest.approx(0.1)
    assert g.x[0] == -1.0 and g.x[-1] == 1.0


def test_scheme_validation():
    with pytest.raises(nw.ConfigError):
        nw.SchemeConfig(t_end=1.0, cfl=0.7)
    with pytest.raises(nw.ConfigError):
        nw.SchemeConfig(t_end=-1.0)
    with pytest.raises(nw.ConfigError):
        nw.Perturbation(kind="square")


def test_initial_data_zero_perturbation(composite_std, model14):
    grid = nw.Grid(-40.0, 40.0, 257)
    state = nw.initial_data(grid, composite_std, nw.Perturbation())
    bar = composite_std.eval_bar(0.0, grid.x, 0.0)
    assert np.array_equal(state.v, bar["v"])
    assert np.array_equal(state.u, bar["u"])
    assert nw.constraint_defect(state, grid, model14) < 1e-15
    # the evolved auxiliary field differs from the analytic one at the
    # interpolation level only
    assert np.max(np.abs(state.w - bar["w"])) < 0.5 * grid.dx ** 2


def test_initial_data_gaussian_norm(composite_std, model14):
    grid = nw.Grid(-40.0, 40.0, 2049)
    pert = nw.Perturbation(kind="gaussian", amplitude=1e-3, center=0.0, width=4.0, field="v")
    state = nw.initial_data(grid, composite_std, pert)
    bar = composite_std.eval_bar(0.0, grid.x, 0.0)
    l2 = np.sqrt(np.trapezoid((state.v - bar["v"]) ** 2, dx=grid.dx))
    assert l2 == pytest.approx(1e-3 * np.pi ** 0.25 * 2.0, rel=1e-2)
    assert nw.constraint_defect(state, grid, model14) < 1e-15


def test_initial_data_amplitude_cap():
    with pytest.raises(nw.ConfigError, match="amplitude"):
        nw.Perturbation(kind="gaussian", amplitude=0.5, center=0.0, width=4.0)


def test_grid_is_frozen():
    """A grid's nodes and spacing cannot come apart: a changed n makes a new grid."""
    grid = nw.parse_config(SMOKE_CFG).grid
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.n = 1024
    fine = dataclasses.replace(grid, n=1024)
    assert fine.x.size == 1024 and fine.x[0] == grid.x_lo and fine.x[-1] == grid.x_hi
    np.testing.assert_allclose(np.diff(fine.x), fine.dx, rtol=1e-12)


def test_one_step_function_and_one_rhs():
    assert nw.step is solver._step_core
    assert nw.spatial_rhs is solver._rhs_arrays


def test_constant_state_is_equilibrium(model14):
    grid = nw.Grid(-10.0, 10.0, 64)
    vt, ut, wt = nw.spatial_rhs(np.full(64, 0.9), np.full(64, 0.3), np.zeros(64), grid.dx,
                                model14)
    assert np.all(vt == 0.0) and np.all(ut == 0.0) and np.all(wt == 0.0)


def test_vacuum_detection(model14):
    grid = nw.Grid(-10.0, 10.0, 64)
    v = np.full(64, 0.9)
    v[30] = 1e-8
    with pytest.raises(nw.VacuumError):
        nw.spatial_rhs(v, np.zeros(64), np.zeros(64), grid.dx, model14)


def test_discrete_symbol_matches_linearization(model14):
    """Fourier-mode response of the spatial operator converges at second
    order to the analytic symbol of the frozen-coefficient linearization."""
    g = model14.gamma
    v0, u0 = 0.9, 0.2
    k = 0.9
    mu_v = v0 ** (-model14.alpha - 1.0)
    bcap = v0 ** (-0.5 * (model14.beta + 5.0))
    dp = float(thermo.dpressure(v0, model14))

    def exact_symbol(delta):
        phi, psi, om = delta
        return np.array([
            1j * k * psi,
            -1j * k * dp * phi - k * k * mu_v * psi - k * k * bcap * om,
            k * k * bcap * psi,
        ])

    def measured_symbol(n):
        grid = nw.Grid(-40.0, 40.0, n)
        mid = n // 2
        base_v = np.full(n, v0)
        base_u = np.full(n, u0)
        base_w = np.zeros(n)
        eps = 1e-6
        delta = np.array([1.0, 1.0, 1.0], dtype=complex)
        out = np.zeros(3, dtype=complex)
        for part, weights in (("re", np.cos), ("im", np.sin)):
            mode = weights(k * grid.x)
            rp = nw.spatial_rhs(base_v + eps * mode, base_u + eps * mode,
                                base_w + eps * mode, grid.dx, model14)
            rm = nw.spatial_rhs(base_v - eps * mode, base_u - eps * mode,
                                base_w - eps * mode, grid.dx, model14)
            comp = np.array([(rp[i][mid] - rm[i][mid]) / (2 * eps) for i in range(3)])
            out += comp if part == "re" else 1j * comp
        return out

    ref = exact_symbol(np.array([1.0, 1.0, 1.0]))
    e_coarse = np.abs(measured_symbol(201) - ref)
    e_fine = np.abs(measured_symbol(401) - ref)
    for ec, ef in zip(e_coarse, e_fine):
        if ec > 1e-10:
            assert ec / ef > 3.5  # second order: errors shrink by ~4


def manufactured_fields(x, g, a, b):
    """Smooth analytic state and its exact tendencies."""
    v = 1.0 + 0.1 * np.exp(-x ** 2 / 8.0)
    vx = -0.25 * x * np.exp(-x ** 2 / 8.0) * 0.1 * 4.0 / 4.0
    vx = -0.1 * (x / 4.0) * np.exp(-x ** 2 / 8.0)
    u = 0.05 * np.sin(0.7 * x) * np.exp(-x ** 2 / 50.0)
    ux = (0.05 * 0.7 * np.cos(0.7 * x) - 0.05 * np.sin(0.7 * x) * x / 25.0) * np.exp(-x ** 2 / 50.0)
    uxx = ((-0.05 * 0.49 * np.sin(0.7 * x) - 0.05 * 0.7 * np.cos(0.7 * x) * x / 25.0)
           - (0.05 * 0.7 * np.cos(0.7 * x) - 0.05 * np.sin(0.7 * x) * x / 25.0) * x / 25.0
           - 0.05 * np.sin(0.7 * x) / 25.0) * np.exp(-x ** 2 / 50.0)
    w = 0.02 * np.cos(0.5 * x) * np.exp(-x ** 2 / 40.0)
    wx = (-0.02 * 0.5 * np.sin(0.5 * x) - 0.02 * np.cos(0.5 * x) * x / 20.0) * np.exp(-x ** 2 / 40.0)
    wxx = ((-0.02 * 0.25 * np.cos(0.5 * x) + 0.02 * 0.5 * np.sin(0.5 * x) * x / 20.0)
           + (0.02 * 0.5 * np.sin(0.5 * x) + 0.02 * np.cos(0.5 * x) * x / 20.0) * x / 20.0
           - 0.02 * np.cos(0.5 * x) / 20.0) * np.exp(-x ** 2 / 40.0)
    vt = ux
    visc = v ** (-a - 1.0)
    cap = v ** (-0.5 * (b + 5.0))
    dvisc = -(a + 1.0) * v ** (-a - 2.0) * vx
    dcap = -0.5 * (b + 5.0) * v ** (-0.5 * (b + 7.0)) * vx
    ut = (g * v ** (-g - 1.0) * vx + dvisc * ux + visc * uxx + dcap * wx + cap * wxx)
    wt = -(dcap * ux + cap * uxx)
    return (v, u, w), (vt, ut, wt)


@pytest.mark.parametrize("gas", [(1.4, 0.0, 0.0), (1.6, 0.5, 1.0)])
def test_manufactured_solution_spatial_order(gas):
    model = nw.GasModel(*gas)
    errors = []
    for n in (401, 801, 1601):
        grid = nw.Grid(-30.0, 30.0, n)
        (v, u, w), exact = manufactured_fields(grid.x, *gas)
        got = nw.spatial_rhs(v, u, w, grid.dx, model)
        err = max(np.max(np.abs(g1[5:-5] - e1[5:-5])) for g1, e1 in zip(got, exact))
        errors.append(err)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.9)


def test_energy_rate_is_viscous_dissipation():
    """The pressure and capillary terms cancel exactly in the semi-discrete
    energy balance: for a localized state the rate of
    dx * sum(u^2/2 + e(v) + w^2/2) is the face-centered viscous dissipation."""
    gas = (1.6, 0.5, 1.0)
    model = nw.GasModel(*gas)
    grid = nw.Grid(-60.0, 60.0, 1201)
    x = grid.x
    # no common symmetry axis, so no term of the balance vanishes by parity
    v = 1.0 + 0.1 * np.exp(-(x - 3.0) ** 2 / 8.0)
    u = 0.05 * np.sin(0.7 * x) * np.exp(-x ** 2 / 50.0)
    w = 0.02 * np.cos(0.5 * x + 0.4) * np.exp(-(x + 2.0) ** 2 / 40.0)
    vt, ut, wt = nw.spatial_rhs(v, u, w, grid.dx, model)
    rate = grid.dx * np.sum(u * ut - thermo.pressure(v, model) * vt + w * wt)
    visc = thermo.viscosity(v, model) / v
    visc_f = 0.5 * (visc[:-1] + visc[1:])
    dissipation = -grid.dx * np.sum(visc_f * (np.diff(u) / grid.dx) ** 2)
    assert dissipation < -1e-4
    assert abs(rate - dissipation) <= 1e-12


def test_parabolic_dt_and_cfl_guard(composite_std, model14):
    """The step bound is acoustic, cfl 2 dx / lambda_max with lambda_max the
    sound speed at the smallest volume, and ``step`` refuses a longer step."""
    grid = nw.Grid(-40.0, 40.0, 257)
    state = nw.initial_data(grid, composite_std, nw.Perturbation())
    scheme = nw.SchemeConfig(t_end=1.0, cfl=0.4)
    dt = nw.parabolic_dt(state, grid, model14, 0.4)
    lam = np.sqrt(-thermo.dpressure(np.min(state.v), model14))
    assert dt == pytest.approx(0.4 * 2.0 * grid.dx / lam, rel=1e-14)
    nw.step(state, grid, composite_std, model14, scheme, dt)
    with pytest.raises(nw.CflError, match="acoustic bound"):
        nw.step(state, grid, composite_std, model14, scheme, 1.001 * dt)


def test_shift_rate_properties(composite_std, model14):
    grid = nw.Grid(-60.0, 60.0, 513)
    state = nw.initial_data(grid, composite_std, nw.Perturbation())
    # u identical to the composite velocity: no shift
    assert shift_rate(state, grid, composite_std) == 0.0
    bar_u = state.u.copy()
    bump = 1e-3 * np.exp(-grid.x ** 2 / 18.0)
    state.u = bar_u + bump
    r1 = shift_rate(state, grid, composite_std)
    assert r1 != 0.0
    state.u = bar_u + 2.0 * bump
    r2 = shift_rate(state, grid, composite_std)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-13)
    # rate is controlled by the perturbation magnitude
    assert abs(r1) <= 100.0 * np.max(np.abs(bump))


def full_grid_shift_rate(t, X, u, grid, composite):
    """-M/delta_S int a psi (uS_x + p'(vS) vS_x / sigma) dx by the trapezoid
    on the whole grid, as the benchmark's check writes it."""
    pattern = composite.pattern
    bar = composite.eval_bar(t, grid.x, X)
    shock = nw.eval_profile(composite.profile, grid.x - pattern.sigma * t - X)
    integrand = bar["a"] * (u - bar["u"]) * (
        shock["ux"] + thermo.dpressure(shock["v"], composite.model) * shock["vx"] / pattern.sigma)
    return -pattern.M / pattern.delta_S * np.trapezoid(integrand, dx=grid.dx)


# (config, t, X, whether the grid reaches past the table's left and right end)
shift_rate_cases = pytest.mark.parametrize(
    "name, t, X, past_ends", [("smoke", 0.0, 0.0, (True, True)),
                              ("standard", 200.0, 0.0, (True, False)),
                              ("standard", 0.0, -100.0, (False, True))],
    ids=["inside", "cut-right", "cut-left"])


def shift_rate_case(name, t, X, past_ends):
    """The case's grid, composite, background at (t, X) and a perturbed u."""
    cfg = nw.parse_config(SMOKE_CFG.with_name(f"{name}.cfg"))
    grid, x = cfg.grid, cfg.grid.x
    composite = nw.build_composite(cfg.build_pattern(), cfg.gas)
    lo, hi = x[[0, -1]] - composite.pattern.sigma * t - X
    assert (lo < composite.profile.xi_lo, hi > composite.profile.xi_hi) == past_ends
    bar = composite.eval_bar(t, x, X)
    u = bar["u"] + 1e-3 * np.exp(-(x - 10.0) ** 2 / 50.0)
    return grid, composite, bar, u


@shift_rate_cases
def test_shift_rate_is_the_full_grid_trapezoid(name, t, X, past_ends):
    """A stage's rate, from its own shock stack and order-0 fan, is the
    whole grid's trapezoid of the profile evaluated afresh, bit for bit."""
    grid, composite, _, u = shift_rate_case(name, t, X, past_ends)
    expected = full_grid_shift_rate(t, X, u, grid, composite)
    assert expected != 0.0
    shock = composite.shock_stack(t, grid.x, X, order=1)
    fan_u = composite.rarefaction.eval(t, grid.x, order=0)["u"]
    assert _shift_rate(u, shock, fan_u, composite, grid.dx) == expected


@shift_rate_cases
def test_shift_rate_reads_the_background_bits(name, t, X, past_ends):
    """The rate is the trapezoid of the weight, ubar and shock rows of
    ``eval_bar``, bit for bit, with either fan row: the shift rate and the
    ledger read one background."""
    grid, composite, bar, u = shift_rate_case(name, t, X, past_ends)
    pattern, shock = composite.pattern, bar["shock"]
    y = bar["a"] * (u - bar["u"]) * (
        thermo.dpressure(shock["v"], composite.model) * shock["vx"] / pattern.sigma
        + shock["ux"])
    expected = -pattern.M / pattern.delta_S * float(np.trapezoid(y, dx=grid.dx))
    assert expected != 0.0
    for fan_u in (bar["fan"]["u"], composite.rarefaction.eval(t, grid.x, order=0)["u"]):
        assert _shift_rate(u, shock, fan_u, composite, grid.dx) == expected


def test_shift_disabled_for_degenerate_shock(model14, right_state):
    pat = make_pattern(model14, 1.0, 0.08)
    comp = nw.CompositeWave(RarefactionWave(pat, model14), None, pat, model14)
    grid = nw.Grid(-40.0, 40.0, 257)
    state = nw.initial_data(grid, comp, nw.Perturbation(kind="gaussian", amplitude=1e-3,
                                                        center=0.0, width=3.0, field="u"))
    assert shift_rate(state, grid, comp) == 0.0


def test_degenerate_shock_warns_once_per_run(caplog):
    cfg = nw.parse_config(SMOKE_CFG)
    # no shock: the intermediate state is the right state
    cfg.states = dataclasses.replace(cfg.states, v_m=1.0)
    cfg.scheme = dataclasses.replace(cfg.scheme, output_stride=1)
    with caplog.at_level("WARNING", logger="nskwave.solver"):
        result = nw.run(cfg)
    assert len(result.records) > 2
    assert [r.getMessage() for r in caplog.records] == [
        "shift disabled: degenerate shock strength"]
    assert all(r.Xdot == 0.0 for r in result.records)


def test_run_evaluates_one_background_per_record(monkeypatch):
    calls = []
    real = CompositeWave.eval_bar

    def counting(self, t, x, X):
        calls.append((t, X, np.size(x)))
        return real(self, t, x, X)

    monkeypatch.setattr(CompositeWave, "eval_bar", counting)
    cfg = smoke_every_step()
    result = nw.run(cfg)
    n = cfg.grid.n
    # _check_domain evaluates the two boundary nodes at t = 0 and t_end,
    # initial_data the grid at t = 0; every later call is one record's
    assert [c[2] for c in calls[:2]] == [2, 2] and calls[2] == (0.0, 0.0, n)
    assert calls[3:] == [(r.t, r.X, n) for r in result.records]
    assert len(result.records) == result.summary["steps"] + 1


@pytest.fixture
def stack_traffic(monkeypatch):
    """The calls that build wave stacks, logged in order: the fan's
    evaluations, the shock stacks and the profile's volumes with their
    orders, and the residual equation's second and third derivatives."""
    calls = []

    def log(owner, name, entry):
        real = getattr(owner, name)

        def logged(*args, **kwargs):
            calls.append(entry(*args, **kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, logged)

    log(RarefactionWave, "eval", lambda self, t, x, order=1: ("fan", order))
    log(CompositeWave, "shock_stack", lambda self, t, x, X, order: ("shock", order))
    log(ShockProfile, "volume", lambda self, xi, order=1: ("volume", order))
    log(shockprofile, "_accel", lambda *args: "_accel")
    log(shockprofile, "_accel_grad", lambda *args: "_accel_grad")
    return calls


def test_shift_rate_evaluates_no_wave(stack_traffic):
    """The shift rate is a reduction over the rows it is handed: it
    evaluates no fan, no shock stack and no profile volume."""
    cfg = nw.parse_config(SMOKE_CFG)
    composite = nw.build_composite(cfg.build_pattern(), cfg.gas)
    state = solver.initial_data(cfg.grid, composite, cfg.perturbation)
    bar = composite.eval_bar(state.t, cfg.grid.x, state.X)
    stack_traffic.clear()
    assert _shift_rate(state.u, bar["shock"], bar["fan"]["u"], composite, cfg.grid.dx) != 0.0
    assert stack_traffic == []


def test_a_record_evaluates_the_shock_once(monkeypatch):
    """With a record after every step, every shock stack of a run is one
    background's (``eval_bar``) or one stage's shift rate: a record's rate
    reads its background's stack, so each record evaluates the shock once."""
    within, stacks = [], []
    real_stack = CompositeWave.shock_stack

    def inside(name, real):
        def wrapped(*args, **kwargs):
            within.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                within.pop()
        return wrapped

    def stack(self, t, x, X, order):
        stacks.append((within[-1] if within else None, order))
        return real_stack(self, t, x, X, order)

    monkeypatch.setattr(CompositeWave, "shock_stack", stack)
    monkeypatch.setattr(CompositeWave, "eval_bar", inside("eval_bar", CompositeWave.eval_bar))
    monkeypatch.setattr(solver, "_step_core", inside("step", solver._step_core))
    result = nw.run(smoke_every_step())
    records, steps = len(result.records), result.summary["steps"]
    assert records == steps + 1 > 2
    # _check_domain's two calls and initial_data's, then one per record
    assert stacks.count(("eval_bar", 1)) == 3 + records
    # every step starts at a record, whose rate stands for its first stage's
    assert stacks.count(("step", 1)) == 5 * steps
    assert len(stacks) == 3 + records + 5 * steps


def test_background_reads_order_one_stacks(stack_traffic, composite_std):
    composite_std.eval_bar(2.0, np.linspace(-30.0, 30.0, 301), 0.1)
    assert stack_traffic == [("fan", 1), ("shock", 1), ("volume", 1)]


@pytest.mark.parametrize("shift", [True, False])
def test_record_xdot_is_the_uncached_shift_rate(monkeypatch, shift):
    seen = []
    real = solver.collect_record

    def capture(grid, state, bar, pattern, model, xdot, **kwargs):
        seen.append((state.t, state.X, state.u.copy(), xdot))
        return real(grid, state, bar, pattern, model, xdot, **kwargs)

    monkeypatch.setattr(solver, "collect_record", capture)
    cfg = smoke_every_step(shift)
    result = nw.run(cfg)
    grid = cfg.grid
    composite = nw.build_composite(cfg.build_pattern(), cfg.gas)
    assert len(seen) == len(result.records) > 2
    for rec, (t, X, u, xdot) in zip(result.records, seen):
        assert (rec.t, rec.X) == (t, X)
        # with the shift off the records report the rate that was integrated
        expected = (_shift_rate(u, composite.shock_stack(t, grid.x, X, order=1),
                                composite.rarefaction.eval(t, grid.x, order=0)["u"],
                                composite, grid.dx)
                    if shift else 0.0)
        assert rec.Xdot == xdot == expected
    assert any(rec.Xdot != 0.0 for rec in result.records) == shift


@pytest.mark.parametrize("shift", [True, False])
def test_run_evaluates_the_fan_once_per_new_stage_time(monkeypatch, shift):
    """With the shift on, one order-0 call per step carries its stage times
    t + c_i dt on every node, and with it off there is none.  Every step
    here starts at a record and reuses the record's shift rate at t, so its
    call carries the five later times only; records read their
    background's fan."""
    order0, steps = [], []
    real_eval, real_step = RarefactionWave.eval, solver._step_core

    def counting(self, t, x, order=1):
        if order == 0:
            order0.append(np.broadcast_arrays(t, x))
        return real_eval(self, t, x, order)

    def stepping(state, grid, composite, model, scheme, dt, xdot0=None, **kwargs):
        steps.append((state.t, dt, grid.x, xdot0))
        return real_step(state, grid, composite, model, scheme, dt, xdot0, **kwargs)

    monkeypatch.setattr(RarefactionWave, "eval", counting)
    monkeypatch.setattr(solver, "_step_core", stepping)
    result = nw.run(smoke_every_step(shift))
    assert len(steps) == result.summary["steps"] > 2
    assert len(order0) == (len(steps) if shift else 0)
    assert [xdot0 for *_, xdot0 in steps] == [r.Xdot for r in result.records[:-1]]
    for (t, x), (t0, dt, nodes, _) in zip(order0, steps):
        assert np.array_equal(t, np.broadcast_to((t0 + solver.ARK_C[1:] * dt)[:, None],
                                                 (5, nodes.size)))
        assert np.array_equal(x, [nodes] * 5)


@pytest.mark.parametrize("stride", [1, 3])
def test_a_step_at_a_record_reuses_its_shift_rate(monkeypatch, stride):
    """Each step evaluates the shift rate at its six stages, except that a
    step starting at a record takes the record's rate for its first."""
    calls, starts = [], []
    real_rate, real_step = solver._shift_rate, solver._step_core

    def counting(u, shock, fan_u, composite, dx):
        calls.append(dx)
        return real_rate(u, shock, fan_u, composite, dx)

    def stepping(state, *args, **kwargs):
        starts.append(state.t)
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(solver, "_shift_rate", counting)
    monkeypatch.setattr(solver, "_step_core", stepping)
    cfg = smoke_every_step()
    cfg.scheme = dataclasses.replace(cfg.scheme, output_stride=stride, t_end=5.0)
    result = nw.run(cfg)
    steps, records = result.summary["steps"], len(result.records)
    at_record = sum(t in {r.t for r in result.records} for t in starts)
    assert len(starts) == steps > 6
    # every record but the last starts a step; with stride 3 most steps start elsewhere
    assert at_record == records - 1 and (at_record == steps) == (stride == 1)
    assert len(calls) == 6 * steps + records - at_record


def test_a_handed_shift_rate_changes_no_bit():
    """The rate a record hands the step, from the background's shock and
    order-1 fan, is the one the step would compute from its own shock stack
    and order-0 fan."""
    cfg = nw.parse_config(SMOKE_CFG)
    grid, scheme = cfg.grid, cfg.scheme
    composite = nw.build_composite(cfg.build_pattern(), cfg.gas)
    state = dataclasses.replace(nw.initial_data(grid, composite, cfg.perturbation), t=3.0)
    bar = composite.eval_bar(state.t, grid.x, state.X)
    xdot = _shift_rate(state.u, bar["shock"], bar["fan"]["u"], composite, grid.dx)
    dt = nw.parabolic_dt(state, grid, cfg.gas, scheme.cfl)
    own, handed = (nw.step(state, grid, composite, cfg.gas, scheme, dt, given)
                   for given in (None, xdot))
    assert xdot != 0.0 and (own.X, own.flux) == (handed.X, handed.flux)
    for name in ("v", "u", "w"):
        assert np.array_equal(getattr(own, name), getattr(handed, name))


def test_a_state_is_its_fields():
    """``step`` reads nothing but a state's fields: a state moved from
    ``initial_data`` to t = 5 steps as one built from the same fields."""
    cfg = nw.parse_config(SMOKE_CFG)
    grid, scheme = cfg.grid, cfg.scheme
    composite = nw.build_composite(cfg.build_pattern(), cfg.gas)
    moved = dataclasses.replace(nw.initial_data(grid, composite, cfg.perturbation), t=5.0)
    built = nw.SimState(v=moved.v.copy(), u=moved.u.copy(), w=moved.w.copy(), t=moved.t,
                        X=moved.X, flux=moved.flux)
    dt = nw.parabolic_dt(moved, grid, cfg.gas, scheme.cfl)
    new, given = (nw.step(s, grid, composite, cfg.gas, scheme, dt) for s in (moved, built))
    assert (new.t, new.X, new.flux) == (given.t, given.X, given.flux) and new.X != 0.0
    for name in ("v", "u", "w"):
        assert np.array_equal(getattr(new, name), getattr(given, name))


def test_results_do_not_share_memory():
    """A state that ``step`` returned stays as it was while later steps
    run, and each ``spatial_rhs`` call without ``out`` returns an array of
    its own."""
    cfg = nw.parse_config(SMOKE_CFG)
    grid, scheme = cfg.grid, cfg.scheme
    composite = nw.build_composite(cfg.build_pattern(), cfg.gas)
    state = nw.initial_data(grid, composite, cfg.perturbation)
    dt = nw.parabolic_dt(state, grid, cfg.gas, scheme.cfl)
    held = nw.step(state, grid, composite, cfg.gas, scheme, dt)
    rows = {name: getattr(held, name).copy() for name in ("v", "u", "w")}
    later = held
    for _ in range(2):
        later = nw.step(later, grid, composite, cfg.gas, scheme, dt)
    assert not np.array_equal(later.v, held.v)
    for name, copy in rows.items():
        assert np.array_equal(getattr(held, name), copy)
    first = nw.spatial_rhs(held.v, held.u, held.w, grid.dx, cfg.gas)
    kept = first.copy()
    second = nw.spatial_rhs(later.v, later.u, later.w, grid.dx, cfg.gas)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and not np.array_equal(first, second)


def test_threads_compute_the_serial_rhs(model14):
    """Right-hand sides of different fields on one grid, computed at once in
    several threads, equal the ones computed one at a time."""
    grid = nw.Grid(-20.0, 20.0, 513)
    fields = [(1.0 + 0.1 * np.cos(k * grid.x), 0.1 * np.sin(k * grid.x),
               0.01 * np.cos(2.0 * k * grid.x)) for k in (1.0, 1.5, 2.0, 2.5)]
    expected = [nw.spatial_rhs(*f, grid.dx, model14) for f in fields]
    got = [None] * len(fields)

    def work(i):
        for _ in range(200):
            rhs = nw.spatial_rhs(*fields[i], grid.dx, model14)
            if not np.array_equal(rhs, expected[i]):
                got[i] = rhs
                return
        got[i] = expected[i]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert all(g is e for g, e in zip(got, expected))


def test_step_preserves_boundaries_and_mass(tw_setup, model14):
    pat, prof, comp = tw_setup
    grid = nw.Grid(-90.0, 50.0, 1401)
    scheme = nw.SchemeConfig(t_end=1.0, cfl=0.5, shift=False)
    state = start = nw.initial_data(grid, comp, nw.Perturbation())
    ends = (state.v[0], state.v[-1], state.u[0], state.u[-1], state.w[0], state.w[-1])
    for _ in range(60):
        dt = nw.parabolic_dt(state, grid, model14, 0.5)
        state = nw.step(state, grid, comp, model14, scheme, dt)
    assert (state.v[0], state.v[-1], state.u[0], state.u[-1], state.w[0], state.w[-1]) == ends
    assert state.flux != 0.0
    assert nw.mass_defect(state, start, grid) < 1e-12


def test_traveling_wave_preserved(tw_setup, model14):
    """With no fan and no perturbation the exact traveling wave must be
    carried at the truncation-error level."""
    pat, prof, comp = tw_setup
    T = 0.25
    grid = nw.Grid(-75.0, 40.0 + pat.sigma * T, 2301)
    scheme = nw.SchemeConfig(t_end=T, cfl=0.5, shift=True)
    state = nw.initial_data(grid, comp, nw.Perturbation())
    while state.t < T - 1e-12:
        dt = min(nw.parabolic_dt(state, grid, model14, 0.5), T - state.t)
        state = nw.step(state, grid, comp, model14, scheme, dt)
    exact = nw.eval_profile(prof, grid.x - pat.sigma * state.t)
    assert np.max(np.abs(state.v - exact["v"])) < 2e-6
    # the projection onto the shock gradient stays at the noise floor
    assert abs(state.X) < 1e-7


def self_convergence_order(composite, model, advance):
    """The temporal order observed from ``advance(state, grid, scheme, dt,
    T)`` of a perturbed composite at dt0, dt0 / 2 and dt0 / 4, T = 64 dt0."""
    grid = nw.Grid(-50.0, 50.0, 301)
    pert = nw.Perturbation(kind="gaussian", amplitude=5e-3, center=0.0, width=6.0)
    scheme = nw.SchemeConfig(t_end=1.0, cfl=0.5)
    base = nw.initial_data(grid, composite, pert)
    dt0 = nw.parabolic_dt(base, grid, model, 0.45)
    T = 64.0 * dt0
    s1, s2, s4 = (advance(nw.initial_data(grid, composite, pert), grid, scheme, dt0 / k, T)
                  for k in (1, 2, 4))
    e1 = max(np.max(np.abs(s1.v - s2.v)), np.max(np.abs(s1.u - s2.u)))
    e2 = max(np.max(np.abs(s2.v - s4.v)), np.max(np.abs(s2.u - s4.u)))
    return np.log2(e1 / e2)


def test_temporal_self_convergence(composite_std, model14):
    def advance(state, grid, scheme, dt, T):
        while state.t < T - 1e-12:
            state = nw.step(state, grid, composite_std, model14, scheme,
                            min(dt, T - state.t))
        return state

    assert self_convergence_order(composite_std, model14, advance) > 3.5


def test_temporal_self_convergence_with_one_factor(composite_std, model14):
    """The split f = f_E + f_I is exact for any frozen volume, so steps
    that all take one factor of the implicit block, built at the initial
    state, keep the pair's fourth order."""
    def advance(state, grid, scheme, dt, T):
        implicit = solver._ImplicitStage(state.v, grid.dx, model14, solver.ARK_GAMMA * dt)
        for _ in range(round(T / dt)):
            state = nw.step(state, grid, composite_std, model14, scheme, dt,
                            implicit=implicit)
        return state

    assert self_convergence_order(composite_std, model14, advance) > 3.5


def test_a_handed_factor_is_the_one_a_step_builds():
    """A step handed a factor built at its own volume changes no bit, and a
    factor whose g is not ARK_GAMMA dt is refused."""
    cfg = nw.parse_config(SMOKE_CFG)
    grid, scheme, model = cfg.grid, cfg.scheme, cfg.gas
    composite = nw.build_composite(cfg.build_pattern(), model)
    state = nw.initial_data(grid, composite, cfg.perturbation)
    dt = nw.parabolic_dt(state, grid, model, scheme.cfl)
    implicit = solver._ImplicitStage(state.v, grid.dx, model, solver.ARK_GAMMA * dt)
    own, handed = (nw.step(state, grid, composite, model, scheme, dt, implicit=given)
                   for given in (None, implicit))
    assert (own.X, own.flux) == (handed.X, handed.flux)
    for name in ("v", "u", "w"):
        assert np.array_equal(getattr(own, name), getattr(handed, name))
    with pytest.raises(ValueError, match="ARK_GAMMA dt"):
        nw.step(state, grid, composite, model, scheme, 0.5 * dt, implicit=implicit)


def test_a_run_holds_its_step_and_keeps_its_factor(monkeypatch):
    """On the smoke config with a record after every step up to t_end = 20,
    every step but the last, cut to t_end, takes the same dt, and the
    implicit block is factored anew only when the volume drifts by more
    than REFACTOR_DRIFT or dt changes: at most 12 times in 43 steps."""
    dts, builds = [], []
    real_step = solver._step_core

    class Counting(solver._ImplicitStage):
        def __init__(self, *args):
            builds.append(len(dts))
            super().__init__(*args)

    def stepping(state, grid, composite, model, scheme, dt, *args, **kwargs):
        dts.append(dt)
        return real_step(state, grid, composite, model, scheme, dt, *args, **kwargs)

    monkeypatch.setattr(solver, "_ImplicitStage", Counting)
    monkeypatch.setattr(solver, "_step_core", stepping)
    cfg = smoke_every_step()
    cfg.scheme = dataclasses.replace(cfg.scheme, t_end=20.0)
    result = nw.run(cfg)
    assert len(dts) == result.summary["steps"] == 43
    assert dts[:-1] == [dts[0]] * 42 and dts[-1] < dts[0]
    # the first step builds one, and the cut last step needs its own g
    assert builds[0] == 0 and builds[-1] == 42 and len(builds) <= 12


def test_determinism(composite_std, model14):
    grid = nw.Grid(-50.0, 50.0, 257)
    pert = nw.Perturbation(kind="gaussian", amplitude=1e-3, center=0.0, width=5.0)
    scheme = nw.SchemeConfig(t_end=0.05, cfl=0.4)

    def run_once():
        state = nw.initial_data(grid, composite_std, pert)
        while state.t < 0.05 - 1e-12:
            dt = min(nw.parabolic_dt(state, grid, model14, 0.4), 0.05 - state.t)
            state = nw.step(state, grid, composite_std, model14, scheme, dt)
        return state

    a, b = run_once(), run_once()
    assert np.array_equal(a.v, b.v) and np.array_equal(a.u, b.u)
    assert np.array_equal(a.w, b.w) and a.X == b.X


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_state_aborts(model14, composite_std):
    grid = nw.Grid(-40.0, 40.0, 257)
    state = nw.initial_data(grid, composite_std, nw.Perturbation())
    state.u[100] = np.inf
    scheme = nw.SchemeConfig(t_end=1.0)
    with pytest.raises((nw.SolverError, nw.VacuumError)):
        nw.step(state, grid, composite_std, model14, scheme, 1e-5)


@pytest.mark.slow
def test_pure_shock_stability_run(model14):
    """With no fan the composite is an exact solution, so the shifted-entropy
    machinery must contract the perturbation: the shift rate dies off, the
    weighted entropy decreases, and the constraint stays at the scheme's
    interpolation level."""
    cfg = nw.RunConfig(
        gas=model14,
        states=nw.States(v_plus=1.0, u_plus=0.0, v_m=0.9, strength_cap=0.25),
        grid=nw.Grid(x_lo=-205.0, x_hi=285.0, n=2560),
        scheme=nw.SchemeConfig(cfl=0.5, t_end=100.0, output_stride=60, shift=True),
        perturbation=nw.Perturbation(kind="gaussian", amplitude=1e-3, center=0.0,
                                     width=10.0, field="both"),
        output=nw.Output(dir="out", formats="csv"),
    )
    s = nw.run(cfg).summary
    assert s["sup_ratio"] < 1.0
    assert s["xdot_quarter_ratio"] <= 0.5
    assert s["eta_ratio"] <= 1.1
    assert s["constraint_max"] < 1e-5
    assert 1.0 - 1e-12 <= s["a_min"] and s["a_max"] <= 2.0 + 1e-12
    assert s["mass_defect_max"] < 1e-6


def test_boundary_flux_definition():
    u = np.arange(10.0)
    assert _boundary_flux(u) == pytest.approx(0.5 * (9 + 8 - 0 - 1))


def test_discrete_gradient_consistency(model14):
    grid = nw.Grid(-20.0, 20.0, 4001)
    v = 1.0 + 0.05 * np.exp(-grid.x ** 2 / 6.0)
    w = discrete_gradient_w(v, grid.dx, model14)
    vx = -0.05 * (grid.x / 3.0) * np.exp(-grid.x ** 2 / 6.0)
    exact = -np.sqrt(thermo.capillarity(v, model14)) * vx / v ** 2.5
    assert np.max(np.abs(w - exact)) < 1e-6


def test_domain_must_contain_fan_support(model14, right_state):
    """A boundary node inside the fan's support at t_end is rejected even
    where the tanh ansatz is already saturated."""
    pat = nw.pattern_from_intermediate(0.95, right_state, model14,
                                       v_minus=0.911242942729919)
    comp = nw.build_composite(pat, model14)
    lo, hi = comp.rarefaction.support(200.0)
    assert -400.0 < lo < -300.0 < hi
    with pytest.raises(nw.ConfigError):
        _check_domain(nw.Grid(-300.0, 440.0, 4096), comp, 200.0)
    _check_domain(nw.Grid(-400.0, 440.0, 4649), comp, 200.0)
