"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them).  The
long stability run is shared through a module-scoped fixture.
"""
import time
from types import SimpleNamespace

import numpy as np
import pytest

import nskwave as nw
from nskwave import diagnostics, thermo
from nskwave.config import RunConfig
from nskwave.rarefaction import RarefactionWave
from tests.conftest import make_pattern

#: interaction norms below this are indistinguishable from exact zero
FLOOR = 1e-18


def report(num, name, failures, started, extra=""):
    status = "PASS" if not failures else "FAIL"
    dt = time.time() - started
    print(f"[acceptance] criterion {num} ({name}): {status} ({dt:.1f}s) {extra}")
    assert not failures, "; ".join(failures)


# -- 1: relative-quantity bounds -------------------------------------------------


def test_criterion_1_relative_quantity_bounds(model14):
    started = time.time()
    failures = []
    v_plus = 1.0

    def clause_constants(size, seed):
        rng = np.random.default_rng(seed)
        vbar = rng.uniform(0.02, 2.0 * v_plus, size)
        v = rng.uniform(0.02, 3.0 * v_plus, size)
        q = np.asarray(thermo.relative_internal_energy(v, vbar, model14))
        p = np.asarray(thermo.relative_pressure(v, vbar, model14))
        if not (np.all(q >= -1e-14) and np.all(p >= -1e-14)):
            failures.append("relative quantity went negative")
        sep = np.abs(v - vbar) > 1e-7
        if not np.all(q[sep] > 1e-14):
            failures.append("relative energy vanished off the diagonal")
        gap2 = (v - vbar) ** 2
        mask = q > 1e-30
        c_q = np.max(gap2[mask] / q[mask])
        c_p = np.max(gap2[mask] / p[mask])
        rng2 = np.random.default_rng(seed + 1)
        v2 = rng2.uniform(0.5, 4.0, size)
        vb2 = rng2.uniform(0.5, 4.0, size)
        m2 = np.abs(v2 - vb2) > 1e-12
        c_lip = np.max(np.abs(thermo.pressure(v2[m2], model14)
                              - thermo.pressure(vb2[m2], model14)) / np.abs(v2[m2] - vb2[m2]))
        return c_q, c_p, c_lip

    base = clause_constants(10_000, 42)
    grown = clause_constants(40_000, 43)
    for name, b, g in zip(("quad-energy", "quad-pressure", "lipschitz"), base, grown):
        if not np.isfinite(g):
            failures.append(f"{name} constant not finite")
        elif not (0.5 < g / b < 2.0):
            failures.append(f"{name} constant drifted {b:.3g} -> {g:.3g}")
    report(1, "relative-quantity bounds", failures, started,
           f"C = {tuple(round(float(c), 3) for c in grown)}")


# -- 2: smooth fan suite -----------------------------------------------------------


def _fan_envelope(j, p, delta, t):
    first = delta
    second = delta ** (1.0 / p) / (1.0 + t) ** (1.0 - 1.0 / p)
    third = 1.0 / (1.0 + t) + delta ** (1.0 / p - 1.0) / (1.0 + t) ** (2.0 - 1.0 / p)
    return min(first, second, third) if j >= 3 else min(first, second)


def test_criterion_2_fan_suite(model14):
    started = time.time()
    failures = []
    pat = make_pattern(model14, 0.95, 0.05)
    wave = RarefactionWave(pat, model14)

    x = np.linspace(*wave.support(2.0), 2000)
    st = wave.eval(2.0, x, order=1)
    if not (np.all(st["ux"] >= 0.0) and np.all(st["vx"] >= 0.0)):
        failures.append("gradient positivity violated")

    l1 = wave.derivative_norms(0.0, 1, orders=(1,), field="u")[1]
    if abs(l1 - pat.delta_R) > 1e-8:
        failures.append(f"L1 gradient {l1} != strength {pat.delta_R}")

    sups = [wave.derivative_norms(t, np.inf, orders=(1,), field="u")[1] * (1.0 + t)
            for t in (1.0, 10.0, 100.0)]
    if not all(np.isfinite(s) and s < 1.0 for s in sups):
        failures.append(f"sup-gradient decay unbounded: {sups}")

    for t in (0.0, 5.0):
        tau = 1.0 + t
        d = np.linspace(3.0, 11.0, 17)
        stt = wave.eval(t, wave.w_m * tau + d, order=0)
        gap = np.abs(stt["v"] - wave.v_m) + np.abs(stt["u"] - wave.u_m)
        if np.polyfit(d, np.log(gap), 1)[0] > -1.95:
            failures.append(f"right tail too slow at t={t}")
        stt = wave.eval(t, wave.w_minus * t - d, order=0)
        gap = np.abs(stt["v"] - wave.v_minus) + np.abs(stt["u"] - wave.u_minus)
        if np.polyfit(d, np.log(gap), 1)[0] > -1.95:
            failures.append(f"left tail too slow at t={t}")

    consts = {}
    for p in (1, 2):
        for j in (3, 4):
            ratios = []
            for delta_R in (0.05, 0.1):
                wv = RarefactionWave(make_pattern(model14, 0.95, delta_R), model14)
                for t in (0.0, 1.0 / delta_R, 10.0 / delta_R):
                    norm = wv.derivative_norms(t, p, orders=(j,))[j]
                    ratios.append(norm / _fan_envelope(j, p, delta_R, t))
            consts[(j, p)] = max(ratios)
            if not np.isfinite(consts[(j, p)]) or consts[(j, p)] > 40.0:
                failures.append(f"derivative envelope constant blew up (j={j}, p={p})")
    report(2, "smooth fan estimates", failures, started,
           f"envelope C = {[round(v, 2) for v in consts.values()]}")


# -- 3: shock-profile suite ---------------------------------------------------------


def test_criterion_3_profile_suite(profile_sweep):
    started = time.time()
    failures = []
    slope_cap, curvature, tail = [], [], []
    for delta_S, (pat, prof) in profile_sweep.items():
        res = prof.self_residual()
        if res > 1e-8:
            failures.append(f"residual {res:.2e} at delta_S={delta_S}")
        if not (np.all(np.diff(prof.v) > 0.0) and np.all(prof.vp > 0.0)):
            failures.append(f"monotonicity violated at delta_S={delta_S}")
        mid_err = abs(float(prof.volume(0.0)[0]) - 0.5 * (prof.v_m + prof.v_plus))
        if mid_err > 1e-10:
            failures.append(f"midpoint normalization off by {mid_err:.2e}")
        slope_cap.append(np.max(prof.vp) / delta_S ** 2)
        curvature.append(np.max(np.abs(prof.vpp) / (delta_S * prof.vp)))
        tail.append(-prof.decay_rate / delta_S)
        gap = prof.v_plus - prof.v
        sel = (gap > 1e-9) & (gap < 0.01 * delta_S) & (prof.xi > 0)
        slope = np.polyfit(prof.xi[sel], np.log(gap[sel]), 1)[0]
        if slope >= 0:
            failures.append(f"tail not exponential at delta_S={delta_S}")
    for name, seq in (("slope", slope_cap), ("curvature", curvature), ("tail", tail)):
        seq = np.array(seq)
        if not np.all(np.isfinite(seq)) or seq.max() / seq.min() >= 2.0:
            failures.append(f"{name} constant unstable across sweep: {seq}")
    report(3, "shock-profile estimates", failures, started,
           f"|v'|/dS^2 = {[round(float(s), 3) for s in slope_cap]}")


# -- 4: wave-interaction decay --------------------------------------------------------


def test_criterion_4_interaction_decay(model14):
    started = time.time()
    failures = []
    t0_norms = {}
    for delta_R in (0.05, 0.1):
        for delta_S in (0.05, 0.1):
            pat = make_pattern(model14, 1.0 - delta_S, delta_R)
            prof = nw.solve_profile(pat, model14)
            comp = nw.CompositeWave(RarefactionWave(pat, model14), prof, pat, model14)
            times = [0.0, 5.0 / delta_S, 20.0 / delta_S, 50.0 / delta_S]
            seq = comp.interaction_norms(times)
            t0_norms[(delta_R, delta_S)] = seq[0]
            for key in seq[0]:
                vals = [s[key] for s in seq]
                for a, b in zip(vals[:-1], vals[1:]):
                    if not (b < a or b <= FLOOR):
                        failures.append(f"{key} not decaying at ({delta_R},{delta_S})")
                        break
                pos = [(t, v) for t, v in zip(times, vals) if v > FLOOR]
                if len(pos) >= 2:
                    ts = np.array([p[0] for p in pos])
                    lv = np.log([p[1] for p in pos])
                    c = -np.polyfit(ts, lv, 1)[0]
                    if c <= 0.0:
                        failures.append(f"{key} fit rate not positive at ({delta_R},{delta_S})")
    # prefactor scales linearly in the fan strength
    for delta_S in (0.05, 0.1):
        for key in ("Q1I_L2", "vSx_vR_L2", "vRx_vSx_L2"):
            r = t0_norms[(0.1, delta_S)][key] / t0_norms[(0.05, delta_S)][key]
            if not 1.4 < r < 3.0:
                failures.append(f"{key} prefactor not linear in delta_R: ratio {r:.2f}")
    report(4, "wave-interaction decay", failures, started)


# -- 5: Poincare-type inequality --------------------------------------------------------


def test_criterion_5_hardy_legendre():
    started = time.time()
    failures = []
    y = np.linspace(0.0, 1.0, 2048)
    lhs, rhs = diagnostics.hardy_legendre_gap(y)
    if abs(lhs - 1.0 / 12.0) > 1e-6 or abs(rhs - 1.0 / 12.0) > 1e-6:
        failures.append(f"sharp linear case off: ({lhs}, {rhs})")
    lhs, rhs = diagnostics.hardy_legendre_gap(y ** 2)
    if abs(lhs - 4.0 / 45.0) > 1e-6 or abs(rhs - 0.1) > 1e-6:
        failures.append(f"quadratic case off: ({lhs}, {rhs})")
    rng = np.random.default_rng(2024)
    for _ in range(100):
        coef = rng.uniform(-1.0, 1.0, 6)
        lhs, rhs = diagnostics.hardy_legendre_gap(np.polyval(coef, y))
        if lhs > rhs + 1e-6:
            failures.append(f"inequality violated: lhs={lhs}, rhs={rhs}")
            break
    report(5, "Poincare-type inequality", failures, started)


# -- 6: scheme verification -----------------------------------------------------------


def test_criterion_6_scheme_verification(model14, right_state):
    started = time.time()
    failures = []
    from tests.test_solver import manufactured_fields

    # (i) manufactured-solution spatial order
    errors = []
    for n in (401, 801, 1601):
        grid = nw.Grid(-30.0, 30.0, n)
        (v, u, w), exact = manufactured_fields(grid.x, 1.4, 0.0, 0.0)
        got = nw.spatial_rhs(v, u, w, grid.dx, model14)
        errors.append(max(np.max(np.abs(g1[5:-5] - e1[5:-5]))
                          for g1, e1 in zip(got, exact)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    if not np.all(orders >= 1.9):
        failures.append(f"spatial order {orders} below 1.9")

    # (ii) temporal self-convergence
    pat = make_pattern(model14, 0.9, 0.1)
    prof = nw.solve_profile(pat, model14)
    comp = nw.CompositeWave(RarefactionWave(pat, model14), prof, pat, model14)
    grid = nw.Grid(-50.0, 50.0, 301)
    pert = nw.Perturbation(kind="gaussian", amplitude=5e-3, center=0.0, width=6.0)
    scheme = nw.SchemeConfig(t_end=1.0, cfl=0.5)
    state0 = nw.initial_data(grid, comp, pert)
    dt0 = nw.parabolic_dt(state0, grid, model14, 0.45)
    T = 64.0 * dt0

    def advance(dt):
        state = nw.initial_data(grid, comp, pert)
        while state.t < T - 1e-12:
            state = nw.step(state, grid, comp, model14, scheme, min(dt, T - state.t))
        return state

    s1, s2, s4 = advance(dt0), advance(dt0 / 2), advance(dt0 / 4)
    e1 = max(np.max(np.abs(s1.v - s2.v)), np.max(np.abs(s1.u - s2.u)))
    e2 = max(np.max(np.abs(s2.v - s4.v)), np.max(np.abs(s2.u - s4.u)))
    t_order = float(np.log2(e1 / e2))
    if t_order < 3.5:
        failures.append(f"temporal order {t_order:.2f} below 3.5")

    # (iii) traveling-wave preservation at dx = 1e-2, T = 1, with the shift off
    pat = nw.pattern_from_intermediate(0.8, right_state, model14)
    prof = nw.solve_profile(pat, model14)
    comp = nw.CompositeWave(RarefactionWave(pat, model14), prof, pat, model14)
    T = 1.0
    knots = prof.span_knots()
    v_knots = prof.volume(knots)[0]
    xi_l = float(knots[np.searchsorted(v_knots, prof.v_m + 1e-7)])
    xi_r = float(knots[np.searchsorted(v_knots, prof.v_plus - 1e-7)])
    lo, hi = xi_l - 4.0, xi_r + 4.0 + pat.sigma * T
    n = int(round((hi - lo) / 0.01)) + 1
    grid = nw.Grid(lo, hi, n)
    scheme = nw.SchemeConfig(t_end=T, cfl=0.5, shift=False)
    state = start = nw.initial_data(grid, comp, nw.Perturbation())
    while state.t < T - 1e-12:
        dt = min(nw.parabolic_dt(state, grid, model14, 0.5), T - state.t)
        state = nw.step(state, grid, comp, model14, scheme, dt)
    exact = nw.eval_profile(prof, grid.x - pat.sigma * state.t)
    drift = float(np.max(np.abs(state.v - exact["v"])))
    if drift >= 1e-5:
        failures.append(f"traveling-wave drift {drift:.2e} above 1e-5")
    if state.X != 0.0:
        failures.append("shift moved with the shift disabled")

    # (iv) discrete mass audit
    audit = nw.mass_defect(state, start, grid)
    if audit >= 1e-6:
        failures.append(f"mass audit {audit:.2e} above 1e-6")

    report(6, "scheme verification", failures, started,
           f"orders = ({min(orders):.2f}, {t_order:.2f}), drift = {drift:.1e}, "
           f"mass = {audit:.1e}")


# -- 7: qualitative stability of the composite wave ------------------------------------


STABILITY_CONFIG = dict(
    x_lo=-400.0, x_hi=440.0, n=4649, t_end=200.0, cfl=0.5, stride=100,
    amplitude=1e-3, center=0.0, width=12.0,
)


def stability_config(model, kind, **scheme):
    """The criterion-7 RunConfig with the bump ``kind`` ("gaussian" for the
    perturbed run, "none" for its twin); ``scheme`` overrides t_end or
    output_stride."""
    c = STABILITY_CONFIG
    return RunConfig(
        gas=model,
        states=nw.States(v_plus=1.0, u_plus=0.0, v_m=0.95,
                         v_minus=0.911242942729919, strength_cap=0.25),
        grid=nw.Grid(x_lo=c["x_lo"], x_hi=c["x_hi"], n=c["n"]),
        scheme=nw.SchemeConfig(**{"cfl": c["cfl"], "t_end": c["t_end"],
                                  "output_stride": c["stride"], "shift": True, **scheme}),
        perturbation=nw.Perturbation(kind=kind, amplitude=c["amplitude"],
                                     center=c["center"], width=c["width"], field="both"),
        output=nw.Output(dir="out", formats="csv"),
    )


@pytest.fixture(scope="module")
def stability_run(model14):
    """The perturbed stability run and its response to the perturbation.

    The smoothed fan is not an exact NSK solution, so the raw distance to
    the composite ansatz grows for both a perturbed run and an unperturbed
    twin of it.  Clauses (a)-(d) are therefore measured on the difference
    between the two runs (``response``); (e), (f) and the bookkeeping use
    the perturbed run itself (``summary``).
    """
    perturbed_config = stability_config(model14, "gaussian")
    pattern = perturbed_config.build_pattern()
    assert abs(pattern.delta_R - 0.05) < 1e-3
    perturbed = nw.run(perturbed_config)
    twin = nw.run(stability_config(model14, "none"))
    # both runs hold the first step's dt, and both start from the same v_min
    assert [r.t for r in perturbed.records] == [r.t for r in twin.records]
    return SimpleNamespace(summary=perturbed.summary,
                           response=nw.response_summary(perturbed, twin, model14))


def _check7(summary, letter, name, ok_fn, detail_fn):
    started = time.time()
    failures = [] if ok_fn(summary) else [detail_fn(summary)]
    report(f"7{letter}", name, failures, started, detail_fn(summary))


@pytest.mark.slow
def test_criterion_7a_sup_norm_halved(stability_run):
    # the response to the perturbation, perturbed run minus unperturbed twin;
    # the raw distance to the ansatz measures how far the smoothed fan is from
    # the viscous NSK solution, and the twin shows that gap without any bump
    _check7(stability_run.response, "a", "sup-norm halved",
            lambda s: s["sup_ratio"] <= 0.5,
            lambda s: f"sup {s['sup_initial']:.2e} -> {s['sup_final']:.2e} "
                      f"(ratio {s['sup_ratio']:.2f}, need <= 0.5)")


@pytest.mark.slow
def test_criterion_7b_shift_rate_halved(stability_run):
    _check7(stability_run.response, "b", "shift rate halved",
            lambda s: s["xdot_quarter_ratio"] <= 0.5,
            lambda s: f"mean|Xdot| {s['xdot_mean_first_quarter']:.2e} -> "
                      f"{s['xdot_mean_last_quarter']:.2e} (ratio {s['xdot_quarter_ratio']:.2f})")


@pytest.mark.slow
def test_criterion_7c_shift_sublinear(stability_run):
    _check7(stability_run.response, "c", "shift sublinear",
            lambda s: s["x_sublinearity_ratio"] <= 0.5,
            lambda s: f"|X|/t {s['x_rate_quarter']:.2e} -> {s['x_rate_final']:.2e} "
                      f"(ratio {s['x_sublinearity_ratio']:.2f})")


@pytest.mark.slow
def test_criterion_7d_weighted_entropy_bounded(stability_run):
    _check7(stability_run.response, "d", "weighted entropy bounded",
            lambda s: s["eta_ratio"] <= 1.1,
            lambda s: f"eta {s['eta_initial']:.2e} -> {s['eta_final']:.2e} "
                      f"(ratio {s['eta_ratio']:.2f}, need <= 1.1)")


@pytest.mark.slow
def test_criterion_7e_weight_bounds(stability_run):
    _check7(stability_run.summary, "e", "weight in [1, 2]",
            lambda s: 1.0 - 1e-12 <= s["a_min"] and s["a_max"] <= 2.0 + 1e-12,
            lambda s: f"a in [{s['a_min']:.3f}, {s['a_max']:.3f}]")


@pytest.mark.slow
def test_criterion_7f_constraint_defect(stability_run):
    _check7(stability_run.summary, "f", "constraint defect below 1e-4",
            lambda s: s["constraint_max"] < 1e-4,
            lambda s: f"max defect {s['constraint_max']:.2e}")


@pytest.mark.slow
def test_criterion_7_mass_audit_and_positivity(stability_run):
    # supporting invariants of the same run: exact discrete mass bookkeeping
    # and volume positivity are expected to hold regardless of the ansatz floor
    started = time.time()
    s = stability_run.summary
    failures = []
    if s["mass_defect_max"] >= 1e-6:
        failures.append(f"mass audit {s['mass_defect_max']:.2e}")
    if s["v_min"] <= 0.5 * 0.911242942729919:
        failures.append(f"volume positivity margin lost: {s['v_min']:.3f}")
    report("7*", "stability-run bookkeeping", failures, started,
           f"mass {s['mass_defect_max']:.1e}, v_min {s['v_min']:.3f}")


@pytest.mark.slow
def test_twin_keeps_the_record_times_at_stride_10(model14):
    """The perturbed run and its twin hold one dt, so their record times are
    equal at any stride.  A dt that followed the bound at every step would
    read v_min, which interior nodes' rounding puts 7.7e-14 below the
    pinned v_minus, differently in the two runs: at stride 10 record 23
    (t = 31.42) would differ by 3.6e-15, and ``response_summary`` would
    refuse the pair.  Grids of 2,325 or 1,163 nodes do not show it, so the
    test keeps n = 4,649."""
    perturbed, twin = (nw.run(stability_config(model14, kind, t_end=32.0, output_stride=10))
                       for kind in ("gaussian", "none"))
    assert [r.t for r in perturbed.records] == [r.t for r in twin.records]
    nw.response_summary(perturbed, twin, model14)


# -- 8: determinism ------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path, model14):
    started = time.time()
    failures = []
    from nskwave import cli
    from nskwave.config import parse_config

    cfg_text = """
[gas]
gamma = 1.4
[states]
v_plus = 1.0
u_plus = 0.0
v_m = 0.9
v_minus = 0.88
[grid]
x_lo = -240.0
x_hi = 170.0
n = 512
[scheme]
cfl = 0.4
t_end = 1.0
output_stride = 40
[perturbation]
kind = gaussian
amplitude = 0.001
center = 0.0
width = 6.0
field = both
[output]
dir = out
formats = csv
"""
    path = tmp_path / "det.cfg"
    path.write_text(cfg_text)
    cfg = parse_config(path)
    outs = []
    for sub in ("d1", "d2"):
        rc = cli.dispatch("simulate", cfg, out_dir=tmp_path / sub)
        if rc != 0:
            failures.append(f"simulate exited with {rc}")
        outs.append((tmp_path / sub / "timeseries.csv").read_bytes())
    if outs[0] != outs[1]:
        failures.append("timeseries.csv differs between identical invocations")
    report(8, "determinism", failures, started)
