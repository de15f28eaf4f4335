import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import nskwave as nw
from nskwave import shockprofile, thermo
from nskwave.config import parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def self_residual_loop(profile):
    """Point-by-point reference for ShockProfile.self_residual."""
    xi, v, q = profile.xi, profile.v, profile.vp
    n = len(xi)
    if n < 7:
        return 0.0
    res_max = 0.0
    h = np.diff(xi)
    for i in range(2, n - 2):
        hs = h[i - 2:i + 2]
        if np.max(np.abs(hs - hs[0])) > 1e-9 * hs[0]:
            continue
        dq = (q[i - 2] - 8.0 * q[i - 1] + 8.0 * q[i + 1] - q[i + 2]) / (12.0 * hs[0])
        r = float(nw.profile_residual(v[i], q[i], dq, profile.pattern, profile.model))
        res_max = max(res_max, abs(r))
    return res_max


def validated_gap(v, pattern, model):
    """The Rankine-Hugoniot gap with both pressures through thermo.pressure,
    which validates its argument as an array on every call; the pattern's
    stored p(v_m) is not used."""
    v_m = pattern.mid.v
    return (pattern.sigma ** 2 * (v - v_m)
            + thermo.pressure(v, model) - thermo.pressure(v_m, model))


def solve_profile_validated(pattern, model, monkeypatch):
    """solve_profile with the shot's v'' from ``_accel`` fed numpy scalars
    and the validated gap: the reference for the shot's bound-float v''."""
    def reference_accel(pattern, model):
        def accel(v, q):
            return float(shockprofile._accel(np.float64(v), np.float64(q), pattern, model))
        return accel

    with monkeypatch.context() as m:
        m.setattr(shockprofile, "_rankine_hugoniot_gap", validated_gap)
        m.setattr(shockprofile, "_shot_accel", reference_accel)
        return nw.solve_profile(pattern, model)


@pytest.mark.parametrize("name", ["standard", "smoke"])
def test_profile_table_matches_validated_rhs(name, monkeypatch):
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    pattern = cfg.build_pattern()
    prof = nw.solve_profile(pattern, cfg.gas)
    ref = solve_profile_validated(pattern, cfg.gas, monkeypatch)
    for key in ("xi", "v", "vp", "vpp"):
        assert np.array_equal(getattr(prof, key), getattr(ref, key)), key
    assert prof.tail_rate == ref.tail_rate
    xi = np.linspace(prof.xi_lo - 1.0, prof.xi_hi + 1.0, 2001)
    st, st_ref = nw.eval_profile(prof, xi), nw.eval_profile(ref, xi)
    assert all(np.array_equal(st[key], st_ref[key]) for key in st_ref)


def test_profile_rhs_rejects_volumes_outside_the_domain(pattern_std, model14):
    v_m = pattern_std.mid.v
    accel = shockprofile._shot_accel(pattern_std, model14)
    rate = accel(v_m, 0.0)
    assert rate == pytest.approx(0.0, abs=1e-15)
    for v in (0.0, np.nan, np.inf, -1.0, 0.5 * thermo.VOLUME_FLOOR):
        with pytest.raises(nw.DomainError):
            accel(float(v), 1e-3)


def shoot_and_reference(name, monkeypatch):
    """The profile of a config, the arguments and result of its shot, and
    scipy's RK45 on the same right-hand side, tolerances and events."""
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    shot, shoot = {}, shockprofile._shoot

    def recording_shoot(*args):
        shot["args"], shot["result"] = args, shoot(*args)
        return shot["result"]

    monkeypatch.setattr(shockprofile, "_shoot", recording_shoot)
    prof = nw.solve_profile(cfg.build_pattern(), cfg.gas)
    y0, span, v_mid, v_stop, pattern, model = shot["args"]

    def ev_mid(_, y):
        return y[0] - v_mid
    ev_mid.direction = 1.0

    def ev_arrive(_, y):
        return y[0] - v_stop
    ev_arrive.terminal = True
    ev_arrive.direction = 1.0

    def ev_turn(_, y):
        return y[1]
    ev_turn.terminal = True
    ev_turn.direction = -1.0

    accel = shockprofile._shot_accel(pattern, model)

    def rhs(_, y):
        return y[1], accel(float(y[0]), float(y[1]))

    ref = solve_ivp(rhs, (0.0, span), y0, method="RK45", rtol=shockprofile.RTOL,
                    atol=shockprofile.ATOL, events=(ev_mid, ev_arrive, ev_turn),
                    dense_output=True)
    return prof, shot["args"], shot["result"], ref


@pytest.mark.parametrize("name", ["standard", "smoke"])
def test_shot_matches_scipy_rk45(name, monkeypatch):
    prof, (_, _, v_mid, v_stop, _, _), shot, ref = shoot_and_reference(name, monkeypatch)
    xi_mid, xi_end, starts = shot[:3]
    assert ref.status == 1 and ref.t_events[2].size == 0
    # The two shots round differently (scipy sums the stages with BLAS), so
    # their step sizes part from the third step on.  Measured: 832 and 666
    # steps on both sides.
    assert abs(len(starts) - (len(ref.t) - 1)) <= 3
    # Near the saddle a rounding difference in the state is a shift along
    # the orbit: xi_mid differs by 4.2e-9 and 3.4e-10, while both are 2.0e-6
    # and 7.4e-7 from a DOP853 solve at rtol 1e-13.
    assert abs(xi_mid - ref.t_events[0][0]) < 1e-8
    # The arrival, where v' is about 1e-11, turns a v difference of 1e-14
    # into 1e-3 in xi (xi_end differs by 3.0e-4 and 7.0e-4), so it is
    # compared in v: scipy's solution at this shot's arrival and midpoint
    # (measured 2.3e-15 and 1.2e-14; 3.9e-12 and 1.3e-12, the shift above).
    assert abs(ref.sol(xi_end)[0] - v_stop) < 1e-13
    assert abs(ref.sol(xi_mid)[0] - v_mid) < 1e-11
    # the shot's table against scipy's dense output, each at its own
    # midpoint: measured 2.8e-14 and 1.5e-13 in v, 3.2e-14 and 1.6e-13 in v'
    body = (prof.xi >= prof.xi_switch) & (prof.xi <= xi_end - xi_mid)
    v_ref, vp_ref = ref.sol(prof.xi[body] + ref.t_events[0][0])
    assert np.max(np.abs(prof.v[body] - v_ref)) < 5e-13
    assert np.max(np.abs(prof.vp[body] - vp_ref)) < 5e-13


def test_shot_raises_when_the_slope_turns_negative(pattern_std, model14, monkeypatch):
    monkeypatch.setattr(shockprofile, "_shot_accel", lambda pattern, model: lambda v, q: -1e-3)
    with pytest.raises(nw.MonotonicityError, match="slope crossed zero"):
        nw.solve_profile(pattern_std, model14)


def test_shot_raises_when_the_span_ends_before_arrival(pattern_std, model14, monkeypatch):
    # v' stays at its small starting value, so v creeps up linearly
    monkeypatch.setattr(shockprofile, "_shot_accel", lambda pattern, model: lambda v, q: 0.0)
    with pytest.raises(nw.ProfileError, match="not reached within span"):
        nw.solve_profile(pattern_std, model14)


def test_residual_vanishes_at_end_states(pattern_std, model14):
    v_m, v_p = pattern_std.mid.v, pattern_std.right.v
    assert nw.profile_residual(v_m, 0.0, 0.0, pattern_std, model14) == pytest.approx(0.0, abs=1e-15)
    # Rankine-Hugoniot forces the right end to cancel as well
    assert nw.profile_residual(v_p, 0.0, 0.0, pattern_std, model14) == pytest.approx(0.0, abs=1e-12)
    for v in (-1.0, np.nan, np.inf, 0.5 * thermo.VOLUME_FLOOR, np.array([1.0, np.nan])):
        with pytest.raises(nw.DomainError):
            nw.profile_residual(v, 0.0, 0.0, pattern_std, model14)


def test_solved_profile_residual(profile_std):
    assert profile_std.self_residual() < 1e-8


@pytest.mark.parametrize("name", ["standard", "smoke"])
def test_self_residual_matches_pointwise_loop(name):
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    prof = nw.solve_profile(cfg.build_pattern(), cfg.gas)
    res = prof.self_residual()
    assert res > 0.0
    assert res == self_residual_loop(prof)


def test_self_residual_nonuniform_and_short_tables(profile_std):
    # the knots are uniform, so every interior knot is a five-point center
    h = np.diff(profile_std.xi)
    assert np.max(np.abs(h - h[0])) <= 1e-9 * h[0]
    # a table on other knots is refused: volume locates by the spacing
    xi = profile_std.xi.copy()
    xi[1:-1:7] += 0.3 * np.diff(xi)[0:-1:7]
    with pytest.raises(nw.ProfileError, match="not uniformly spaced"):
        dataclasses.replace(profile_std, xi=xi)
    k = np.arange(40)
    with pytest.raises(nw.ProfileError, match="not uniformly spaced"):
        dataclasses.replace(profile_std, xi=np.cumsum(0.1 * 1.01 ** k), v=profile_std.v[:40],
                            vp=profile_std.vp[:40], vpp=profile_std.vpp[:40])
    # fewer than seven knots
    short = dataclasses.replace(profile_std, xi=profile_std.xi[:6], v=profile_std.v[:6],
                                vp=profile_std.vp[:6], vpp=profile_std.vpp[:6])
    assert short.self_residual() == 0.0 == self_residual_loop(short)


def test_profile_monotone_and_normalized(profile_std):
    assert np.all(np.diff(profile_std.v) > 0.0)
    assert np.all(profile_std.vp > 0.0)
    mid = 0.5 * (profile_std.v_m + profile_std.v_plus)
    assert float(profile_std.volume(0.0)[0]) == pytest.approx(mid, abs=1e-10)


def test_profile_reaches_far_field(profile_std):
    assert abs(profile_std.v[0] - profile_std.v_m) < 1e-10
    assert abs(profile_std.v[-1] - profile_std.v_plus) < 1e-10


def test_degenerate_strength_rejected(model14, right_state):
    pat = nw.pattern_from_intermediate(1.0, right_state, model14)
    with pytest.raises(nw.ProfileError):
        nw.solve_profile(pat, model14)


@pytest.mark.parametrize("delta_S", [1e-6, 1e-4])
def test_shock_below_the_strength_floor_rejected_at_once(model14, right_state, delta_S):
    # without the floor, 1e-6 ran for over a minute and 1e-4 raised a
    # MonotonicityError although the profile is monotone
    pat = nw.pattern_from_intermediate(1.0 - delta_S, right_state, model14)
    started = time.perf_counter()
    with pytest.raises(nw.ProfileError, match="below the profile solve's floor") as caught:
        nw.solve_profile(pat, model14)
    assert time.perf_counter() - started < 1.0
    assert not isinstance(caught.value, nw.MonotonicityError)


def test_shock_just_above_the_strength_floor_solves(model14, right_state):
    delta_S = 1.01 * shockprofile.MIN_STRENGTH
    prof = nw.solve_profile(nw.pattern_from_intermediate(1.0 - delta_S, right_state, model14),
                            model14)
    assert np.all(np.diff(prof.v) > 0.0) and prof.self_residual() < shockprofile.RESIDUAL_TOL


def test_oscillatory_regime_rejected(model14, right_state):
    # dispersion dominates for sufficiently strong shocks at these exponents
    pat = nw.pattern_from_intermediate(0.785, right_state, model14)
    with pytest.raises(nw.MonotonicityError):
        nw.solve_profile(pat, model14)


def test_eval_far_field_and_midpoint(profile_std):
    st = nw.eval_profile(profile_std, np.array([profile_std.xi_lo - 10.0]))
    assert st["v"][0] == profile_std.v_m and st["u"][0] == profile_std.pattern.mid.u
    assert st["vx"][0] == 0.0 and st["w"][0] == 0.0
    st = nw.eval_profile(profile_std, np.array([profile_std.xi_hi + 10.0]))
    assert st["v"][0] == profile_std.v_plus
    st = nw.eval_profile(profile_std, np.array([0.0]))
    assert st["v"][0] == pytest.approx(0.5 * (profile_std.v_m + profile_std.v_plus), abs=1e-10)


def test_mass_equation_along_profile(profile_std):
    rng = np.random.default_rng(3)
    xi = rng.uniform(profile_std.xi_lo, profile_std.xi_hi, 100)
    st = nw.eval_profile(profile_std, xi)
    assert np.max(np.abs(st["ux"] + profile_std.pattern.sigma * st["vx"])) < 1e-12


def test_velocity_slope_proportional_to_volume_slope(profile_std):
    # u' = -sigma v' makes the two-sided comparability exact with C = sigma
    xi = np.linspace(profile_std.xi_lo, profile_std.xi_hi, 500)
    st = nw.eval_profile(profile_std, xi)
    assert np.all(st["ux"] <= 0.0)
    np.testing.assert_allclose(np.abs(st["ux"]), profile_std.pattern.sigma * st["vx"], rtol=1e-13)


def test_auxiliary_field_definition(profile_std, model14):
    xi = np.linspace(-20, 20, 101)
    st = nw.eval_profile(profile_std, xi)
    expected = -np.sqrt(thermo.capillarity(st["v"], model14)) * st["vx"] / st["v"] ** 2.5
    np.testing.assert_allclose(st["w"], expected, atol=1e-14)


def test_interpolant_derivative_close_to_differences(profile_std):
    # mid-cell finite differences of the interpolated volume
    xi = profile_std.xi
    mids = 0.5 * (xi[200:260] + xi[201:261])
    h = 1e-4
    vp_fd = (profile_std.volume(mids + h)[0] - profile_std.volume(mids - h)[0]) / (2 * h)
    vp = profile_std.volume(mids)[1]
    np.testing.assert_allclose(vp, vp_fd, atol=1e-6)


def test_tail_is_log_linear(profile_std):
    gap = profile_std.v_plus - profile_std.v
    sel = (gap > 1e-9) & (gap < 0.01 * profile_std.pattern.delta_S) & (profile_std.xi > 0)
    xi, lg = profile_std.xi[sel], np.log(gap[sel])
    slope, intercept = np.polyfit(xi, lg, 1)
    resid = lg - (slope * xi + intercept)
    # affine up to the subleading fast mode (about a percent in log scale)
    assert slope < 0 and np.max(np.abs(resid)) < 0.05
    assert profile_std.tail_rate == pytest.approx(-slope, rel=1e-6)


def test_sweep_fitted_constants_stable(profile_sweep):
    """Slope ceiling, curvature control and tail rate track the strength."""
    vp_ratio, curv_ratio, tail_ratio, resid = [], [], [], []
    for delta_S, (pat, prof) in profile_sweep.items():
        resid.append(prof.self_residual())
        assert np.all(np.diff(prof.v) > 0.0)
        assert float(prof.volume(0.0)[0]) == pytest.approx(
            0.5 * (prof.v_m + prof.v_plus), abs=1e-10)
        vp_ratio.append(np.max(prof.vp) / delta_S ** 2)
        curv_ratio.append(np.max(np.abs(prof.vpp) / (delta_S * prof.vp)))
        tail_ratio.append(prof.tail_rate / delta_S)
    assert max(resid) < 1e-8
    for seq in (vp_ratio, curv_ratio, tail_ratio):
        seq = np.array(seq)
        assert np.all(np.isfinite(seq))
        assert seq.max() / seq.min() < 2.0
    # decay rate within a factor 3 of the strength scale
    assert all(0.5 <= r <= 3.0 for r in tail_ratio)


# -- the analytic left tail --------------------------------------------------------


@pytest.fixture(scope="module")
def profile_standard():
    cfg = parse_config(CONFIGS / "standard.cfg")
    return nw.solve_profile(cfg.build_pattern(), cfg.gas)


@pytest.fixture(params=["standard", "std"])
def tail_profile(request, profile_standard, profile_std):
    return {"standard": profile_standard, "std": profile_std}[request.param]


def relative_second_differences(f):
    return np.max(np.abs(f[2:] - 2.0 * f[1:-1] + f[:-2]) / np.abs(f[1:-1]))


def tail_window(prof, lo, hi):
    """xi at spacing 0.01 where v - v_m runs from about lo to about hi (on the
    standard pattern, xi in [-223, -190])."""
    xi_lo, xi_hi = np.interp([lo, hi], prof.v - prof.v_m, prof.xi)
    return np.arange(xi_lo, xi_hi, 0.01)


def test_left_tail_is_as_smooth_as_its_exponential(tail_profile):
    # where v - v_m is 1e-8 to 1e-7, the shot slope's absolute error made v'
    # and v'' rough (relative second differences 3e-4 and 5e-3 on the
    # standard pattern, against 4.7e-7 for exp(growth_rate xi))
    xi = tail_window(tail_profile, 1e-8, 1e-7)
    st = nw.eval_profile(tail_profile, xi)
    exact = relative_second_differences(np.exp(tail_profile.growth_rate * xi))
    for key in ("vx", "vxx", "vxxx"):
        assert relative_second_differences(st[key]) < 2.0 * exact, key


ORDER_KEYS = {1: {"v", "vx", "u", "ux"},
              2: {"v", "vx", "u", "ux", "vxx", "uxx", "w", "wx"}}


def test_lower_orders_are_the_order_three_stack_truncated(tail_profile):
    prof = tail_profile
    # the analytic tail, the body and beyond both table ends
    xi = np.concatenate([np.linspace(prof.xi_lo, prof.xi_switch, 50, endpoint=False),
                         np.linspace(prof.xi_switch, prof.xi_hi, 400),
                         [prof.xi_lo - 10.0, prof.xi_hi + 10.0]])
    full = nw.eval_profile(prof, xi)
    assert nw.eval_profile(prof, xi, order=3).keys() == full.keys()
    for order, keys in ORDER_KEYS.items():
        st = nw.eval_profile(prof, xi, order=order)
        assert st.keys() == keys
        for key in keys:
            assert np.array_equal(st[key], full[key]), (order, key)
    for order in (0, 4):
        with pytest.raises(nw.DomainError):
            nw.eval_profile(prof, xi, order=order)


def searched_volume(prof, xi):
    """``volume`` with each body point's interval found by np.searchsorted
    on the knots, the lookup the uniform table's arithmetic replaced."""
    v, vp = (f.copy() for f in prof.volume(xi))
    body = (xi >= prof.xi_switch) & (xi <= prof.xi_hi)
    knots = prof._knots            # the knots of the interpolated intervals
    i = np.minimum(np.searchsorted(knots, xi[body], side="right") - 1, len(knots) - 2)
    s = xi[body] - knots[i]
    c = prof._cubics.take(i, axis=2)
    v[body], vp[body] = ((c[0] * s + c[1]) * s + c[2]) * s + c[3]
    return v, vp


def test_volume_is_the_cubic_located_by_search(tail_profile):
    prof = tail_profile
    rng = np.random.default_rng(11)
    # off the knots the interval, and so every bit, is the searched one
    xi = np.concatenate([rng.uniform(prof.xi_lo - 5.0, prof.xi_hi + 5.0, 20000),
                         [prof.xi_lo - 10.0, prof.xi_lo - 1e-9, prof.xi_hi + 1e-9,
                          prof.xi_hi + 10.0]])
    for got, ref in zip(prof.volume(xi), searched_volume(prof, xi)):
        assert np.array_equal(got, ref)
    # at a knot the arithmetic may land in the neighbouring interval, whose
    # C^1 cubic meets the knot's value to rounding
    knots = np.concatenate([prof.xi, [prof.xi_switch]])
    for got, ref in zip(prof.volume(knots), searched_volume(prof, knots)):
        assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(np.abs(ref)))


def test_volume_rejects_bad_order(profile_std):
    for order in (0, 4, 2.0, 1.5):
        with pytest.raises(nw.DomainError):
            profile_std.volume(np.array([0.0]), order)


def sorted_volume(prof, xi):
    """``ShockProfile.volume_sorted`` at the non-decreasing ``xi``."""
    out, work = np.empty((2, xi.size)), np.empty((2, xi.size))
    prof.volume_sorted(xi, out, work, np.empty(xi.size, np.intp))
    return out


@pytest.mark.parametrize("name", ["smoke", "standard"])
def test_volume_on_sorted_grid_slices_is_volume(name):
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    prof = nw.solve_profile(cfg.build_pattern(), cfg.gas)
    x = cfg.grid.x
    marks = np.array([prof.xi_lo, prof.xi_switch, prof.xi_hi])
    # the grid as it is, and moved so that its ends fall in the tail or the body
    shifts = (0.0, x[0] - 0.5 * (prof.xi_lo + prof.xi_switch),
              x[-1] - 0.5 * (prof.xi_switch + prof.xi_hi))
    regions = set()
    for c in shifts:
        xi = x - c
        edges = np.searchsorted(xi, marks)
        slices = [xi, xi[edges[0]:edges[2]], xi[edges[0] + 1:edges[2] - 1]]
        slices += [xi[max(j - 3, 0):j + 3] for j in edges]
        # the table's ends and the switch as points of the slice
        slices.append(np.sort(np.concatenate([xi, marks])))
        for part in slices:
            got, ref = sorted_volume(prof, part), prof.volume(part)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
            regions.update(np.searchsorted(marks, part, side="right"))
    # nodes left of the table, in the tail, in the body and right of it
    assert regions == {0, 1, 2, 3}


def test_volume_in_any_order_is_the_sorted_evaluation(tail_profile):
    """Points in any order or shape get the bits of the same points sorted,
    which go through the regions' slices unpermuted."""
    prof = tail_profile
    rng = np.random.default_rng(17)
    # points in every region, every knot, the table's ends and the switch
    xi = np.concatenate([rng.uniform(prof.xi_lo - 5.0, prof.xi_hi + 5.0, 3000), prof.xi,
                         [prof.xi_lo, prof.xi_switch, prof.xi_hi]])
    rng.shuffle(xi)
    by_value = np.argsort(xi)
    m = 2 * (xi.size // 2)
    for order in (1, 2, 3):
        got, got_2d = prof.volume(xi, order), prof.volume(xi[:m].reshape(-1, 2), order)
        assert len(got) == order + 1
        for k, ref in enumerate(prof.volume(xi[by_value], order)):
            mapped = np.empty_like(ref)
            mapped[by_value] = ref
            assert np.array_equal(got[k], mapped), (order, k)
            assert np.array_equal(got_2d[k], mapped[:m].reshape(-1, 2)), (order, k)
        # a NaN point gets the right far field, alone or among others
        for points in (np.array([np.nan]), np.array([0.0, np.nan, prof.xi_lo - 1.0])):
            got = prof.volume(points, order)
            nan = np.isnan(points)
            assert np.all(got[0][nan] == prof.v_plus)
            assert all(np.all(g[nan] == 0.0) for g in got[1:])
            for k, g in enumerate(got):
                assert np.array_equal(g[~nan], [prof.volume(p, order)[k] for p in points[~nan]])


def test_eval_profile_solves_the_tail_once_and_the_residual_on_the_body(tail_profile,
                                                                       monkeypatch):
    """Each call solves the manifold once, on the tail's points, and hands the
    residual equation's v'' and v''' only the body's points."""
    prof = tail_profile
    xi = np.sort(np.append(np.linspace(prof.xi_lo - 5.0, prof.xi_hi + 5.0, 1001),
                           prof.xi_switch))
    tail = int(np.count_nonzero((xi >= prof.xi_lo) & (xi < prof.xi_switch)))
    body = int(np.count_nonzero((xi >= prof.xi_switch) & (xi <= prof.xi_hi)))
    calls = []

    def log(name):
        real = getattr(shockprofile, name)

        def logged(*args, **kwargs):
            calls.append((name, np.size(args[0])))
            return real(*args, **kwargs)

        monkeypatch.setattr(shockprofile, name, logged)

    for name in ("_manifold_gap", "_accel", "_accel_grad"):
        log(name)
    residual = {1: [], 2: [("_accel", body)], 3: [("_accel", body), ("_accel_grad", body)]}
    for points in (xi, np.random.default_rng(3).permutation(xi)):
        for order, expected in residual.items():
            calls.clear()
            nw.eval_profile(prof, points, order)
            assert calls == [("_manifold_gap", tail)] + expected, order


def test_switch_is_continuous(tail_profile):
    xs = tail_profile.xi_switch
    xi = xs + np.array([-1e-9, 0.0, 1e-9])
    st = nw.eval_profile(tail_profile, xi)
    v, vx = tail_profile.volume(xi)
    # volume and eval_profile share one tail
    assert np.array_equal(v, st["v"]) and np.array_equal(vx, st["vx"])
    # measured jumps from the tail to the switch node: v' 7e-11 and 1.3e-10,
    # v'' 5.4e-9, v''' 7.7e-8 and 3.2e-8 on the two patterns.  From the node
    # on, v'' and v''' solve the residual equation, whose rounding there
    # (2.7e-9 and 3.8e-8 against an accurate re-solve at v - v_m = 1e-6)
    # is the jump: it moves v''' by 1.5e-8 over the next 1e-9 in xi.  That
    # rounding falls like 1 / (v - v_m) while the expansion's error in v'''
    # grows like (v - v_m)^2 (6e-8 at 1e-5), so no switch gap gives 1e-8.
    for key, bound in (("vx", 1e-9), ("vxx", 2e-8), ("vxxx", 2e-7)):
        assert abs(st[key][0] / st[key][1] - 1.0) < bound, key
        assert abs(st[key][2] / st[key][1] - 1.0) < bound, key


def test_tail_matches_an_accurate_resolve(tail_profile):
    """The profile ODE solved in (v - v_m, v') with DOP853 at atol 1e-30 and
    the Rankine-Hugoniot gap free of cancellation, from v - v_m = 1e-13 on
    the linear manifold, shifted to reach the switch gap at xi_switch."""
    prof = tail_profile
    pat, model = prof.pattern, prof.model
    a, b, g, s, v_m = model.alpha, model.beta, model.gamma, pat.sigma, pat.mid.v

    def accel(dv, q):
        v = v_m + dv
        gap = s * s * dv + v_m ** -g * np.expm1(-g * np.log1p(dv / v_m))
        return -v ** (5.0 + b) * gap - s * v ** (4.0 + b - a) * q + 0.5 * (5.0 + b) * q * q / v

    def at_switch(_, y):
        return y[0] - shockprofile.TAIL_SWITCH * pat.delta_S
    at_switch.terminal = True

    d_start = 1e-13
    sol = solve_ivp(lambda _, y: [y[1], accel(y[0], y[1])], (0.0, 1e4),
                    [d_start, prof.growth_rate * d_start], method="DOP853",
                    rtol=1e-13, atol=1e-30, events=at_switch, dense_output=True)
    shift = prof.xi_switch - sol.t_events[0][0]
    xi = np.linspace(prof.xi_lo, prof.xi_switch, 2001)[:-1]
    xi = xi[xi > shift]
    dv_ref, q_ref = sol.sol(xi - shift)
    tail = (xi >= prof.xi_lo) & (xi < prof.xi_switch)
    dv = shockprofile._manifold_gap(xi, prof.xi_switch, shockprofile.TAIL_SWITCH * pat.delta_S,
                                    prof.growth_rate, prof.manifold_c2)
    st = nw.eval_profile(prof, xi)
    assert tail.all()
    # measured: 5e-11, 1e-10 and 5e-10 on both patterns
    assert np.max(np.abs(dv / dv_ref - 1.0)) < 1e-9
    assert np.max(np.abs(st["vx"] / q_ref - 1.0)) < 1e-9
    assert np.max(np.abs(st["vxx"] / accel(dv_ref, q_ref) - 1.0)) < 5e-9
