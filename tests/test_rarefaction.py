from pathlib import Path

import numpy as np
import pytest

import nskwave as nw
from nskwave import thermo
from nskwave.rarefaction import X0_WINDOW, RarefactionWave

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def wave(pattern_std, model14):
    return RarefactionWave(pattern_std, model14)


def bisection_foot_point(wave, tau, x, iters=200):
    lo = x - wave.w_m * tau - 2.0
    hi = x - wave.w_minus * tau + 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        r = mid + (wave.center + wave.half_width * np.tanh(mid)) * tau - x
        if r > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def fan_speed(wave, x0):
    """The characteristic speed w0(x0) carried from the foot point x0."""
    return wave.center + wave.half_width * np.tanh(x0)


def test_burgers_identity_at_t0(wave):
    x = np.linspace(-5, 5, 11)
    x0 = wave.burgers_state(0.0, x)
    w = fan_speed(wave, x0)
    assert np.allclose(x0, x)
    assert np.allclose(w, wave.center + wave.half_width * np.tanh(x))


def test_burgers_far_field_saturation(wave):
    t = 7.0
    for x, target in ((50.0 + abs(wave.w_m) * t, wave.w_m),
                      (-50.0 - abs(wave.w_minus) * t, wave.w_minus)):
        w = fan_speed(wave, wave.burgers_state(t, np.array([x])))
        assert abs(w[0] - target) < 1e-12


def test_burgers_interior_against_bisection(wave):
    t = 10.0
    x = t * wave.center
    w = fan_speed(wave, wave.burgers_state(t, np.array([x])))
    x0 = bisection_foot_point(wave, t, x)
    w_oracle = wave.center + wave.half_width * np.tanh(x0)
    assert abs(w[0] - w_oracle) < 1e-12


@pytest.mark.parametrize("times", [(1.0,), (200.0,), (1.0, 200.0)],
                         ids=["1.0", "200.0", "per-point"])
def test_burgers_frozen_points_keep_their_positions(wave, times):
    """Points converge at different iterations (at t = 200 from 2 near the
    fan's centre to 7 inside it); each must be returned at its own
    position of a 2-D input that interleaves both far fields with it.
    With several times each point carries its own time offset, which the
    iteration compacts with the live points."""
    x, tau = [], []
    for t in times:
        tau_t = 1.0 + t
        x_t = np.concatenate([
            np.linspace(wave.w_minus * tau_t - 60.0, wave.w_minus * tau_t - 40.0, 6),
            np.linspace(wave.w_m * tau_t + 40.0, wave.w_m * tau_t + 60.0, 6),
            np.linspace(wave.center * tau_t - 16.0, wave.center * tau_t + 16.0, 36),
        ])
        x.append(x_t)
        tau.append(np.full_like(x_t, tau_t))
    order = np.random.default_rng(5).permutation(sum(len(x_t) for x_t in x))
    x = np.concatenate(x)[order].reshape(-1, 8)
    tau = np.concatenate(tau)[order].reshape(x.shape)
    x0 = wave.burgers_state(tau if len(times) > 1 else 1.0 + times[0], x)
    w = fan_speed(wave, x0)
    assert w.shape == x0.shape == x.shape
    oracle = np.vectorize(lambda xi, ti: bisection_foot_point(wave, ti, xi))(x, tau)
    w_oracle = wave.center + wave.half_width * np.tanh(oracle)
    assert np.max(np.abs(w - w_oracle)) < 1e-12
    # the foot point is as accurate as the residual tolerance allows (slope >= 1)
    tol = 1e-13 * np.maximum(1.0, np.abs(x) + np.abs(wave.w_m) * tau)
    assert np.all(np.abs(x0 - oracle) <= 2.0 * tol)
    if len(times) > 1:
        for t in times:
            at_t = tau == 1.0 + t
            x0_t = wave.burgers_state(1.0 + t, x[at_t])
            w_t = fan_speed(wave, x0_t)
            assert np.array_equal(w[at_t], w_t) and np.array_equal(x0[at_t], x0_t)


def long_double_foot_point(wave, tau, x, iters=60):
    """Newton from 0 on x = x0 + w0(x0) tau in long double, with the double
    inputs taken as exact; g(x0) = x0 + half_width tanh(x0) tau is concave
    for x0 > 0 (convex below), so the iteration climbs to the root."""
    X = np.asarray(x, dtype=np.longdouble)
    T = np.broadcast_to(np.asarray(tau, dtype=np.longdouble), X.shape)
    c, h = np.longdouble(wave.center), np.longdouble(wave.half_width)
    y = np.zeros_like(X)
    for _ in range(iters):
        th = np.tanh(y)
        y = y - (y + (c + h * th) * T - X) / (1 + h * (1 - th * th) * T)
    return y


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
def test_burgers_foot_point_is_at_rounding():
    """The foot point is within 4 ulps of |x| + |w_m| tau of the long-double
    root on the standard.cfg grid, at one time per call and one per point;
    the error left is that of rounding s = x - center tau and a tanh."""
    cfg = nw.parse_config(CONFIGS / "standard.cfg")
    wave = RarefactionWave(cfg.build_pattern(), cfg.gas)
    x = cfg.grid.x
    times = (0.0, 1.0, 20.0, 200.0)
    per_point = np.random.default_rng(3).choice(times, x.size)
    for tau in [1.0 + t for t in times] + [1.0 + per_point]:
        x0 = wave.burgers_state(tau, x)
        err = np.abs(x0 - long_double_foot_point(wave, tau, x))
        assert np.all(err <= 4.0 * np.spacing(np.abs(x) + abs(wave.w_m) * tau))


@pytest.mark.parametrize("tau", [1.0, 201.0, 1e3, 1e4])
def test_burgers_residual_within_tolerance(wave, tau):
    """The plain Newton iteration converges far beyond the simulated times,
    on the far fields out to |x| = 1e6 and across the fan interior."""
    x = np.concatenate([np.linspace(-1e6, 1e6, 2001),
                        np.linspace(*wave.support(tau - 1.0), 2001)])
    x0 = wave.burgers_state(tau, x)
    res = x0 + fan_speed(wave, x0) * tau - x
    assert np.all(np.abs(res) <= 1e-13 * np.maximum(1.0, np.abs(x) + abs(wave.w_m) * tau))


def test_burgers_on_a_zero_width_fan_transports_rigidly(model14, right_state):
    """With half_width = 0 the foot point is x - w_m tau, to the bit."""
    pat = nw.pattern_from_intermediate(0.9, right_state, model14)
    wave = RarefactionWave(pat, model14)
    assert wave.half_width == 0.0
    x = np.linspace(-500.0, 500.0, 1001)
    for tau in (1.0, 4.0, 201.0):
        assert np.array_equal(wave.burgers_state(tau, x), x - wave.w_m * tau)


def test_burgers_rejects_bad_input(wave):
    with pytest.raises(nw.DomainError):
        wave.burgers_state(-1.0, np.array([0.0]))
    with pytest.raises(nw.DomainError):
        wave.burgers_state(1.0, np.array([np.nan]))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(nw.DomainError):
            wave.burgers_state(np.array([1.0, bad]), np.array([0.0, 0.0]))


def test_eval_far_field(wave):
    t = 4.0
    x = np.array([wave.w_minus * t - 30.0])
    st = wave.eval(t, x, order=0)
    assert abs(st["v"][0] - wave.v_minus) < 1e-10
    assert abs(st["u"][0] - wave.u_minus) < 1e-10


def unwindowed_stack(wave, t, x, order):
    """Reference for RarefactionWave.eval: the characteristic solve on every node."""
    return wave._stack_from_x0(1.0 + t, wave.burgers_state(1.0 + t, x), order)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 200.0])
def test_eval_window_matches_unwindowed_stack(wave, t, monkeypatch):
    """Order 0 solves only the nodes inside support(t, X0_WINDOW) and snaps
    the rest to the end states; tanh saturates exactly out there, so the
    result must equal the all-node solve to the bit, on a shuffled 2-D
    array with nodes exactly at both window ends."""
    lo, hi = wave.support(t, pad=X0_WINDOW)
    x = np.concatenate([
        np.linspace(lo - 80.0, lo, 16),
        np.linspace(hi, hi + 80.0, 16),
        np.linspace(lo, hi, 61),
        [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), 0.5 * (lo + hi)],
    ])
    x = np.random.default_rng(11).permutation(x).reshape(8, 12)
    solved = []
    burgers_state = wave.burgers_state

    def spy(tau, xs):
        solved.append(np.array(xs))
        return burgers_state(tau, xs)

    monkeypatch.setattr(wave, "burgers_state", spy)
    st = wave.eval(t, x, order=0)
    (inner,) = solved
    assert inner.size == np.count_nonzero((x >= lo) & (x <= hi))
    monkeypatch.undo()
    ref = unwindowed_stack(wave, t, x, 0)
    assert set(st) == {"v", "u"}
    for key in ("v", "u"):
        assert st[key].shape == x.shape
        assert np.array_equal(st[key], ref[key])
    for order in (1, 2, 3, 4):
        st = wave.eval(t, x, order=order)
        ref = unwindowed_stack(wave, t, x, order)
        assert set(st) == set(ref)
        assert all(np.array_equal(st[key], ref[key]) for key in ref)


def test_eval_window_scalar_and_bad_positions(wave):
    t = 1.0
    lo, hi = wave.support(t, pad=X0_WINDOW)
    for x in (lo - 1.0, lo, 0.5 * (lo + hi), hi, hi + 1.0):
        st = wave.eval(t, x, order=0)
        ref = unwindowed_stack(wave, t, x, 0)
        for key in ("v", "u"):
            assert np.shape(st[key]) == ()
            assert st[key] == ref[key]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(nw.DomainError):
            wave.eval(t, np.array([0.0, bad]), order=0)


def test_eval_with_a_time_per_point_matches_one_call_per_time(wave):
    """A time array, one entry per point, gives each point the bits of the
    scalar call at its own time, at every order, on a shuffled array that
    mixes the windows, the fan interiors and the far fields of all times."""
    times = (0.0, 0.5, 1.0, 200.0)
    x, t = [], []
    for ti in times:
        lo, hi = wave.support(ti, pad=X0_WINDOW)
        x_t = np.concatenate([np.linspace(lo - 80.0, lo, 8), np.linspace(hi, hi + 80.0, 8),
                              np.linspace(lo, hi, 40)])
        x.append(x_t)
        t.append(np.full_like(x_t, ti))
    order = np.random.default_rng(7).permutation(sum(len(x_t) for x_t in x))
    x = np.concatenate(x)[order].reshape(-1, 8)
    t = np.concatenate(t)[order].reshape(x.shape)
    for deriv in range(5):
        st = wave.eval(t, x, order=deriv)
        for ti in times:
            at_t = t == ti
            ref = wave.eval(ti, x[at_t], order=deriv)
            assert set(st) == set(ref)
            assert all(np.array_equal(st[key][at_t], ref[key]) for key in ref), (deriv, ti)
    for bad in (-1.0, -np.inf, np.inf, np.nan):
        for deriv in (0, 1):
            with pytest.raises(nw.DomainError):
                wave.eval(np.array([0.0, bad]), np.array([0.0, 1.0]), order=deriv)
            with pytest.raises(nw.DomainError):
                wave.eval(bad, np.array([0.0, 1.0]), order=deriv)


def test_eval_with_a_time_per_row_matches_one_call_per_time(wave):
    """Times of shape (2, 1) against nodes broadcast to (2, n), the stepping
    path's one call for both new stage times: each row is the scalar call."""
    x = np.linspace(-120.0, 80.0, 1001)
    times = np.array([[0.4], [0.8]])
    for deriv in (0, 1):
        st = wave.eval(times, np.broadcast_to(x, (2, x.size)), order=deriv)
        for row, ti in enumerate(times[:, 0]):
            ref = wave.eval(ti, x, order=deriv)
            assert all(np.array_equal(st[key][row], ref[key]) for key in ref), (deriv, ti)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_w0_derivatives_stop_at_the_order(wave, order):
    x0 = np.linspace(-30.0, 30.0, 601)
    full = wave._w0_derivatives(x0, 4)
    got = wave._w0_derivatives(x0, order)
    assert all(np.array_equal(a, b) for a, b in zip(got[:2 + order], full))
    assert got[2 + order:] == (None,) * (4 - order)


def test_eval_rejects_bad_order(wave):
    for order in (5, 1.5, 1.0):
        with pytest.raises(nw.DomainError):
            wave.eval(0.0, np.array([0.0]), order=order)


def test_pointwise_gradient_identities(wave, model14):
    """The two first-derivative identities tie u_x, v_x and the transported
    speed gradient together pointwise."""
    g = model14.gamma
    t = 3.0
    x = np.linspace(*wave.support(t), 1000)
    st = wave.eval(t, x, order=1)
    x0 = wave.burgers_state(1.0 + t, x)
    w1 = wave.half_width * (1.0 - np.tanh(x0) ** 2)
    wx = w1 / (1.0 + w1 * (1.0 + t))
    assert np.max(np.abs(st["ux"] - 2.0 * st["v"] / (g + 1.0) * wx)) < 1e-12
    assert np.max(np.abs(st["vx"] - st["v"] ** ((g + 1.0) / 2.0) / np.sqrt(g) * st["ux"])) < 1e-12
    assert np.all(st["ux"] >= 0.0) and np.all(st["vx"] >= 0.0)
    inside = (x0 > -18) & (x0 < 18)
    assert np.all(st["ux"][inside] > 0.0)


def test_first_derivative_against_finite_difference(wave):
    t, h = 5.0, 1e-5
    x = wave.center * (1.0 + t)  # mid-fan
    vp = wave.eval(t, np.array([x + h]), order=0)["v"][0]
    vm = wave.eval(t, np.array([x - h]), order=0)["v"][0]
    an = wave.eval(t, np.array([x]), order=1)["vx"][0]
    assert (vp - vm) / (2 * h) == pytest.approx(an, rel=1e-6)


def test_higher_derivatives_against_finite_difference(wave):
    t, h = 5.0, 1e-4
    x = wave.center * (1.0 + t) + 0.37
    for low, high in (("vx", "vxx"), ("vxx", "vxxx"), ("vxxx", "vxxxx"),
                      ("ux", "uxx"), ("uxx", "uxxx"), ("uxxx", "uxxxx")):
        order = {"vx": 1, "vxx": 2, "vxxx": 3, "ux": 1, "uxx": 2, "uxxx": 3}[low]
        fp = wave.eval(t, np.array([x + h]), order=order)[low][0]
        fm = wave.eval(t, np.array([x - h]), order=order)[low][0]
        an = wave.eval(t, np.array([x]), order=order + 1)[high][0]
        assert (fp - fm) / (2 * h) == pytest.approx(an, rel=5e-7, abs=1e-12)


def test_invariant_constant_across_fan(wave, model14):
    t = 2.5
    x = np.linspace(*wave.support(t), 500)
    st = wave.eval(t, x, order=0)
    z1 = thermo.riemann_invariant_z1(st["v"], st["u"], model14)
    assert np.max(np.abs(z1 - wave.z1)) < 1e-12


def test_fan_solves_ideal_equations(wave, model14):
    """v_t = u_x and u_t = -p(v)_x hold exactly through the chain rule."""
    t, h = 1.7, 1e-5
    x = np.linspace(*wave.support(t), 200)
    st = wave.eval(t, x, order=1)
    stp = wave.eval(t + h, x, order=0)
    stm = wave.eval(t - h, x, order=0)
    vt = (stp["v"] - stm["v"]) / (2 * h)
    ut = (stp["u"] - stm["u"]) / (2 * h)
    assert np.max(np.abs(vt - st["ux"])) < 1e-9
    px = thermo.dpressure(st["v"], model14) * st["vx"]
    assert np.max(np.abs(ut + px)) < 1e-9


def test_degenerate_fan(model14, right_state):
    pat = nw.pattern_from_intermediate(0.9, right_state, model14)
    wave = RarefactionWave(pat, model14)
    st = wave.eval(3.0, np.linspace(-10, 10, 50), order=2)
    assert np.all(st["v"] == pat.mid.v) and np.all(st["u"] == pat.mid.u)
    assert np.all(st["vx"] == 0.0) and np.all(st["uxx"] == 0.0)
    for x in (np.linspace(-500, 500, 50).reshape(5, 10), 2.0):
        st = wave.eval(3.0, x, order=0)
        assert set(st) == {"v", "u"} and st["v"].shape == np.shape(x)
        assert np.all(st["v"] == pat.mid.v) and np.all(st["u"] == pat.mid.u)
    assert wave.derivative_norms(1.0, 2) == {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}


@pytest.mark.parametrize("p", [2, np.inf])
@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_derivative_norms_reject_bad_times(wave, t, p):
    with pytest.raises(nw.DomainError, match="time must be finite and nonnegative"):
        wave.derivative_norms(t, p)


@pytest.mark.parametrize("degenerate", [False, True], ids=["fan", "degenerate"])
def test_eval_rejects_positions_that_are_not_finite(wave, model14, right_state, degenerate):
    """A degenerate fan checks its positions as a fan with width does,
    before it returns the end state."""
    if degenerate:
        wave = RarefactionWave(nw.pattern_from_intermediate(0.9, right_state, model14), model14)
    for x, order in (([np.nan, np.inf], 0), ([np.nan], 2)):
        with pytest.raises(nw.DomainError, match="position must be finite"):
            wave.eval(1.0, np.array(x), order=order)


@pytest.mark.parametrize("degenerate", [False, True], ids=["fan", "degenerate"])
def test_derivative_norms_take_one_time(wave, model14, right_state, degenerate):
    if degenerate:
        wave = RarefactionWave(nw.pattern_from_intermediate(0.9, right_state, model14), model14)
    for t in (np.array([1.0, 2.0]), np.array([1.0])):
        with pytest.raises(nw.DomainError, match="takes one time"):
            wave.derivative_norms(t, 2)


@pytest.mark.parametrize("degenerate", [False, True], ids=["fan", "degenerate"])
def test_derivative_norms_reject_bad_exponents_and_orders(wave, model14, right_state,
                                                          degenerate):
    """The exponent and the orders are checked before a degenerate fan
    returns its zeros; -inf and nan are not exponents, 1.5 is no order."""
    if degenerate:
        wave = RarefactionWave(nw.pattern_from_intermediate(0.9, right_state, model14), model14)
    for p in (-np.inf, -3, np.nan, 0.5):
        with pytest.raises(nw.DomainError):
            wave.derivative_norms(1.0, p)
    for orders in ((0,), (5,), (1.5,)):
        with pytest.raises(nw.DomainError):
            wave.derivative_norms(1.0, 2, orders=orders)


def test_velocity_variation_equals_strength(wave, pattern_std):
    n1 = wave.derivative_norms(0.0, 1, orders=(1,), field="u")[1]
    assert abs(n1 - pattern_std.delta_R) < 1e-8


def test_sup_gradient_decay(wave, pattern_std):
    assert wave.derivative_norms(0.0, np.inf, orders=(1,), field="u")[1] <= pattern_std.delta_R
    vals = {t: wave.derivative_norms(t, np.inf, orders=(1,), field="u")[1] * (1.0 + t)
            for t in (1.0, 10.0, 100.0)}
    arr = np.array(list(vals.values()))
    assert np.all(np.isfinite(arr)) and arr.max() < 10.0 * pattern_std.delta_R * 20


def test_norms_against_dense_simpson_oracle(wave):
    # independent fixed-grid Simpson in physical coordinates
    from scipy.integrate import simpson
    t, p, j = 2.0, 2, 1
    lo, hi = wave.support(t)
    x = np.linspace(lo, hi, 20001)
    st = wave.eval(t, x, order=1)
    mag = np.hypot(st["vx"], st["ux"])
    oracle = simpson(mag ** p, x=x) ** (1.0 / p)
    mine = wave.derivative_norms(t, p, orders=(j,))[j]
    assert mine == pytest.approx(oracle, rel=1e-6)


def test_exponential_tails(wave):
    """Two-sided tail decay at rate 2 in the shifted frame."""
    for t in (0.0, 5.0):
        tau = 1.0 + t
        # offsets deep enough that the asymptotic rate dominates the fit
        d = np.linspace(3.0, 11.0, 17)
        # right tail, measured from the fast edge
        x = wave.w_m * tau + d
        st = wave.eval(t, x, order=0)
        gap = np.abs(st["v"] - wave.v_m) + np.abs(st["u"] - wave.u_m)
        slope = np.polyfit(d, np.log(gap), 1)[0]
        assert slope <= -1.95
        # left tail, measured from the slow edge at time t (not tau)
        x = wave.w_minus * t - d
        st = wave.eval(t, x, order=0)
        gap = np.abs(st["v"] - wave.v_minus) + np.abs(st["u"] - wave.u_minus)
        slope = np.polyfit(d, np.log(gap), 1)[0]
        assert slope <= -1.95


def test_second_gradient_controlled_by_first(wave):
    t = 3.0
    x = np.linspace(*wave.support(t), 2000)
    st = wave.eval(t, x, order=2)
    mask = st["ux"] > 1e-13
    c = np.max(np.abs(st["uxx"][mask]) / st["ux"][mask])
    assert np.isfinite(c) and c < 50.0


def _envelope(j, p, delta, t):
    first = delta
    second = delta ** (1.0 / p) / (1.0 + t) ** (1.0 - 1.0 / p)
    third = 1.0 / (1.0 + t) + delta ** (1.0 / p - 1.0) / (1.0 + t) ** (2.0 - 1.0 / p)
    return min(first, second, third) if j >= 3 else min(first, second)


def test_high_derivative_norm_envelopes(model14, right_state):
    """L1/L2 norms of the third and fourth derivatives obey the三-term
    min envelope with one stable fitted constant per (j, p)."""
    from tests.conftest import make_pattern
    for p in (1, 2):
        for j in (3, 4):
            ratios = []
            for delta_R in (0.05, 0.1):
                pat = make_pattern(model14, 0.95, delta_R)
                wv = RarefactionWave(pat, model14)
                for t in (0.0, 1.0 / delta_R, 10.0 / delta_R):
                    norm = wv.derivative_norms(t, p, orders=(j,))[j]
                    ratios.append(norm / _envelope(j, p, delta_R, t))
            ratios = np.array(ratios)
            assert np.all(np.isfinite(ratios))
            assert ratios.max() < 40.0, f"envelope constant blew up for j={j}, p={p}"


def test_limit_toward_self_similar_fan(wave, model14):
    """The smooth fan approaches the Lipschitz self-similar fan in sup norm."""
    g = model14.gamma

    def exact_fan(t, x):
        xi = x / t
        lam_lo, lam_hi = wave.w_minus, wave.w_m
        v = np.where(xi <= lam_lo, wave.v_minus,
                     np.where(xi >= lam_hi, wave.v_m, (g / np.minimum(xi, -1e-10) ** 2) ** (1.0 / (g + 1.0))))
        u = wave.z1 - thermo.lambda1_antiderivative(np.maximum(v, 1e-10), model14)
        return v, u

    sups = []
    for t in (100.0, 1000.0):
        x = np.linspace(wave.w_minus * t - 50, wave.w_m * t + 50, 4000)
        st = wave.eval(t, x, order=0)
        ve, ue = exact_fan(t, x)
        sups.append(np.max(np.abs(st["v"] - ve) + np.abs(st["u"] - ue)))
    assert sups[1] < sups[0]
    assert sups[1] < 5e-3


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_derivative_norms_of_all_orders_match_one_order_at_a_time(wave, p):
    # the orders refine in lockstep; each keeps the result it gets alone
    together = wave.derivative_norms(3.0, p)
    alone = {j: wave.derivative_norms(3.0, p, orders=(j,))[j] for j in (1, 2, 3, 4)}
    assert together == alone
