"""Viscous-dispersive traveling-wave profile of the fast shock family.

The profile solves the momentum equation integrated once from the left
far field, with the mass equation eliminating velocity (u' = -sigma v').
In the (v, v') phase plane the left end state is a saddle and the right
end state a stable node for weak shocks; the profile is the saddle's
unstable manifold.  An adaptive Dormand-Prince 5(4) shot (``_shoot``)
runs between the two switches, where |v - v_end| is ``TAIL_SWITCH`` times
the shock strength; translated so the midpoint volume sits at xi = 0, it
is tabulated at uniform knots xi_switch + k h, the body.

``ShockProfile._evaluate`` is the one evaluator of v, v', v'' and v''':
left of the span, in either tail, in the body (cubic Hermite interpolants
and the residual equation) and right of the span.  ``volume`` takes points
in any order, ``volume_sorted`` sorted points and scratch, and
``eval_profile`` is the stack of ``volume``'s derivatives.

Both tails are closed forms.  There the shot's absolute error (about
``ATOL``) would be a large relative error of the slope, the residual
equation would amplify it in v'' and v''', and tabulated volumes would
round to equal neighbours.  Instead the invariant manifold's expansion
q(dv) = rate dv + c2 dv^2 (dv = v - v_end) gives the slope, and dv(xi) is
the exact solution of dv' = q(dv), computed from xi alone: along the
saddle's unstable direction at v_m from ``xi_switch``, where the shot
starts on the same expansion, and along the node's slow direction at
v_plus from ``xi_stop``, where the shot stops, less than one knot spacing
beyond the last knot.  v and v' are continuous at ``xi_switch`` and agree
at the last knot to the shot's error; v'' and v''' agree at both to
O(dv^2) and the rounding of the residual equation.  Each tail ends where
its gap falls to ``TAIL_CUT``, at ``xi_lo`` and ``xi_hi``; beyond them v
is the far-field state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import thermo
from .errors import DomainError, MonotonicityError, ProfileError, check_order
from .riemann import WavePattern
from .thermo import GasModel

#: each closed-form tail ends where its gap to the far-field state falls to this
TAIL_CUT = 1e-12
#: relative and absolute tolerances of the Dormand-Prince shooting
RTOL = 1e-11
ATOL = 1e-13
#: largest self-check residual solve_profile accepts
RESIDUAL_TOL = 1e-8
#: both tails are closed forms below |v - v_end| = TAIL_SWITCH * delta_S
#: (1e-6 on the standard pattern): there the expansion's truncation error,
#: about (16 dv)^2 relative at v_m, is far below the shot slope's
#: ATOL / (rate dv)
TAIL_SWITCH = 2e-5
#: weakest shock the profile solve takes, a guard on its cost, as the knot
#: count grows like 1 / delta_S; it also refuses the degenerate strengths.
#: At 1e-3 every case of gamma in {1.2, 1.4, 5/3}, beta in {0, 1} and v_plus
#: in {0.5, 1, 2, 4} solves, in up to 79 s (v_plus = 4, beta = 1)
MIN_STRENGTH = 1e-3


def _rankine_hugoniot_gap(v, pattern: WavePattern, model: GasModel):
    """sigma^2 (v - v_m) + p(v) - p(v_m); vanishes at both end volumes.

    p(v_m) is ``pattern.p_m``.  The pressure p(v) is evaluated with
    ``np.power``, the ufunc that ``thermo.pressure`` uses, but without its
    validation: the callers own the volume check.  A scalar ``v`` goes
    through the same ufunc loop as an array, so p(v) in the shot
    (``_shot_accel``) and in the tabulated stack agree to the bit; plain
    ``**`` on a float differs from that loop in about 5 % of values.  The
    other powers of ``_accel`` do not agree: on floats they are Python's
    ``**``, on arrays numpy's, and scalar and array ``_accel`` differ at
    about 8 % of random (v, q) on ``configs/standard.cfg`` (1,545 of
    20,000 with v in [v_m, v_plus] and q in [0, 1e-3]).  p(v) stays a
    numpy call so that the shot keeps the bits of ``thermo.pressure``, the
    reference its tests solve with.
    """
    return pattern.sigma ** 2 * (v - pattern.mid.v) + np.power(v, -model.gamma) - pattern.p_m


def profile_residual(v, vp, vpp, pattern: WavePattern, model: GasModel):
    """Once-integrated traveling-wave equation; zero characterizes the profile.

    Obtained by substituting u' = -sigma v' into the momentum equation and
    integrating from the left far field with vanishing derivatives.
    """
    v = np.asarray(v, dtype=float)
    if not np.all((v > thermo.VOLUME_FLOOR) & (v < np.inf)):
        raise DomainError("volume must be finite and positive")
    a, b = model.alpha, model.beta
    return (_rankine_hugoniot_gap(v, pattern, model)
            + pattern.sigma * v ** (-a - 1.0) * vp
            + v ** (-b - 5.0) * vpp
            - 0.5 * (5.0 + b) * v ** (-b - 6.0) * vp ** 2)


def _accel(v, q, pattern: WavePattern, model: GasModel):
    """v'' solved from the residual equation."""
    a, b = model.alpha, model.beta
    F = _rankine_hugoniot_gap(v, pattern, model)
    return (-v ** (5.0 + b) * F
            - pattern.sigma * v ** (4.0 + b - a) * q
            + 0.5 * (5.0 + b) * q * q / v)


def _accel_grad(v, q, pattern: WavePattern, model: GasModel):
    """(d/dv, d/dq) of the acceleration, for the third derivative."""
    a, b = model.alpha, model.beta
    F = _rankine_hugoniot_gap(v, pattern, model)
    Fp = pattern.sigma ** 2 + thermo.dpressure(v, model)
    gv = (-(5.0 + b) * v ** (4.0 + b) * F - v ** (5.0 + b) * Fp
          - pattern.sigma * (4.0 + b - a) * v ** (3.0 + b - a) * q
          - 0.5 * (5.0 + b) * q * q / (v * v))
    gq = -pattern.sigma * v ** (4.0 + b - a) + (5.0 + b) * q / v
    return gv, gq


def _saddle_rate(v0, pattern, model):
    """Eigenvalues of the linearized flow at a rest volume v0."""
    a, b = model.alpha, model.beta
    Fp = pattern.sigma ** 2 + float(thermo.dpressure(v0, model))
    A = -v0 ** (5.0 + b) * Fp
    B = -pattern.sigma * v0 ** (4.0 + b - a)
    disc = B * B + 4.0 * A
    return A, B, disc


def _manifold_c2(lam, v0, pattern: WavePattern, model: GasModel):
    """dv^2 coefficient c2 of the invariant manifold q = lam dv + c2 dv^2
    (dv = v - v0) along the eigendirection of rate ``lam`` at an end volume v0.

    On the manifold v'' = q'(v) q.  Write ``_accel`` as A(v) + B(v) q +
    C(v) q^2 with Taylor coefficients A1, A2, B0, B1, C0 at v0, where A
    vanishes (Rankine-Hugoniot).  The dv terms of q' q = _accel(v, q) give
    lam^2 = A1 + B0 lam, an eigenvalue of the rest point, and the dv^2
    terms give 3 lam c2 = A2 + B0 c2 + B1 lam + C0 lam^2.
    """
    a, b = model.alpha, model.beta
    Fp = pattern.sigma ** 2 + float(thermo.dpressure(v0, model))
    Fpp = float(thermo.d2pressure(v0, model))
    A2 = -(5.0 + b) * v0 ** (4.0 + b) * Fp - 0.5 * v0 ** (5.0 + b) * Fpp
    B0 = -pattern.sigma * v0 ** (4.0 + b - a)
    B1 = -pattern.sigma * (4.0 + b - a) * v0 ** (3.0 + b - a)
    C0 = 0.5 * (5.0 + b) / v0
    return (A2 + B1 * lam + C0 * lam * lam) / (3.0 * lam - B0)


def _manifold_slope(dv, lam, c2, out=None):
    """Slope q = (c2 dv + lam) dv on the invariant manifold, written into
    ``out`` when given.  Along the manifold v' = q, v'' = q' q and v''' =
    (q'' q + q'^2) q, with q' = lam + 2 c2 dv and q'' = 2 c2."""
    q = np.multiply(dv, c2, out=out)
    q += lam
    q *= dv
    return q


def _manifold_gap(xi, xi0, dv0, lam, c2, out=None):
    """dv at the array xi on the solution of dv' = lam dv + c2 dv^2 through
    (xi0, dv0), in closed form (a Bernoulli equation), to full relative
    precision: dv0 / ((1 + k) / e - k) with k = (c2 / lam) dv0 and e =
    exp(lam (xi - xi0)).  Written into ``out`` when given, else into a new
    array."""
    k = c2 / lam * dv0
    d = np.subtract(xi, xi0, out=out)
    d *= -lam
    np.exp(d, out=d)
    d *= 1.0 + k
    d -= k
    return np.divide(dv0, d, out=d)


def _manifold_reach(dv, xi0, dv0, lam, c2):
    """xi where the solution of ``_manifold_gap`` through (xi0, dv0) reaches
    dv: xi0 + log(dv (1 + k dv0) / (dv0 (1 + k dv))) / lam with k = c2 / lam."""
    k = c2 / lam
    return xi0 + math.log(dv * (1.0 + k * dv0) / (dv0 * (1.0 + k * dv))) / lam


def _shot_accel(pattern: WavePattern, model: GasModel):
    """The shot's v'' as a function of (v, v') = (v, q), on plain floats,
    with the pattern's constants bound once; the shot's right-hand side is
    (q, v'').

    It is ``_accel``'s arithmetic term by term: the powers other than p(v)
    are Python's ``**`` on floats, as in ``_accel`` on a scalar, and p(v) is
    ``np.power`` on one-element arrays, the ufunc loop an array takes
    (``_rankine_hugoniot_gap``).  The shot is the one caller; this
    module-level factory is the seam its tests replace.
    """
    sigma, v_m, p_m = float(pattern.sigma), float(pattern.mid.v), float(pattern.p_m)
    sigma2 = float(pattern.sigma ** 2)
    a, b = model.alpha, model.beta
    e_gap, e_drag, c_cap = 5.0 + b, 4.0 + b - a, 0.5 * (5.0 + b)
    floor, inf, power = thermo.VOLUME_FLOOR, math.inf, np.power
    # input, exponent and output apart: an output that overlaps an input
    # sends numpy to its scalar pow loop, whose bits differ from the array
    # loop's
    arg, exponent, p = np.empty(1), np.full(1, -model.gamma), np.empty(1)

    def accel(v, q):
        # scalar check: thermo's array validation would cost more than this
        if not floor < v < inf:
            raise DomainError(f"profile solve left the volume domain (v = {v!r})")
        arg[0] = v
        power(arg, exponent, p)
        gap = sigma2 * (v - v_m) + p.item() - p_m
        return -v ** e_gap * gap - sigma * v ** e_drag * q + c_cap * q * q / v

    return accel


# Dormand-Prince 5(4), the coefficients of scipy's RK45: stage coefficients,
# the fifth-order weights and the error weights (both without stage 2, whose
# weight is 0; the error's last is stage 7's, the slope at the step's end),
# and Shampine's quartic dense output, row s for stage s + 1
_A2 = 1 / 5
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


def _rms(a, b):
    return math.sqrt(0.5 * (a * a + b * b))


def _crossing(t0, h, y0, k, level, sign):
    """xi in the step [t0, t0 + h] where sign * (y - level) rises through 0.

    y is one component of the step's dense output, with starting value
    ``y0`` and stages ``k``; bisection narrows the bracket to about 4 eps
    relative, the tolerance scipy's event location uses.
    """
    c = [sum(ks * p for ks, p in zip(k, row)) for row in _P.T.tolist()]

    def g(t):
        x = (t - t0) / h
        return sign * (y0 + h * x * (c[0] + x * (c[1] + x * (c[2] + x * c[3]))) - level)

    lo, hi = t0, t0 + h
    while hi - lo > 4.0 * np.finfo(float).eps * (1.0 + abs(hi)):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _shoot(y0, span, v_mid, v_stop, pattern: WavePattern, model: GasModel):
    """Integrate (v, v')' = (v', ``_shot_accel``) from xi = 0 until v rises to ``v_stop``.

    Dormand-Prince 5(4) with local extrapolation, with the step control of
    scipy's RK45 at ``RTOL``/``ATOL``: Hairer's initial step, the RMS error
    scaled by max(|y|, |y_new|), safety 0.9 and step factors in [0.2, 10].
    Returns xi_mid, where v first rises through ``v_mid``; xi_end, where it
    reaches ``v_stop``; and, per accepted step, its start (n,), size (n,),
    starting (v, v') (n, 2) and seven stages of each component (n, 2, 7),
    the last being the slope at the step's end.  A slope that turns
    negative first raises ``MonotonicityError``, a span passed first
    ``ProfileError``.
    """
    accel = _shot_accel(pattern, model)
    # the tableau as locals: one step reads them 52 times
    a21 = _A2
    a31, a32 = _A3
    a41, a42, a43 = _A4
    a51, a52, a53, a54 = _A5
    a61, a62, a63, a64, a65 = _A6
    b1, b3, b4, b5, b6 = _B
    e1, e3, e4, e5, e6, e7 = _E
    v, q = y0
    span = float(span)
    fv, fq = q, accel(v, q)
    # initial step of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4,
    # for the error estimator's order 4
    sv, sq = ATOL + abs(v) * RTOL, ATOL + abs(q) * RTOL
    d0, d1 = _rms(v / sv, q / sq), _rms(fv / sv, fq / sq)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    gv = q + h0 * fq
    gq = accel(v + h0 * fv, gv)
    d2 = _rms((gv - fv) / sv, (gq - fq) / sq) / h0
    h1 = (max(1e-6, 1e-3 * h0) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100.0 * h0, h1, span)

    t, xi_mid = 0.0, None
    # per accepted step: start, size, v, v', then the seven stages of v and
    # those of v'; a stage of v is the v' it is taken at
    steps = []
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ProfileError(f"profile solve failed: step size fell below {min_step:.3g} "
                                   f"at xi = {t:.6g}")
            t_new = min(t + h_abs, span)
            h = t_new - t
            h_abs = h
            k2v = q + h * (a21 * fq)
            k2q = accel(v + h * (a21 * fv), k2v)
            k3v = q + h * (a31 * fq + a32 * k2q)
            k3q = accel(v + h * (a31 * fv + a32 * k2v), k3v)
            k4v = q + h * (a41 * fq + a42 * k2q + a43 * k3q)
            k4q = accel(v + h * (a41 * fv + a42 * k2v + a43 * k3v), k4v)
            k5v = q + h * (a51 * fq + a52 * k2q + a53 * k3q + a54 * k4q)
            k5q = accel(v + h * (a51 * fv + a52 * k2v + a53 * k3v + a54 * k4v), k5v)
            k6v = q + h * (a61 * fq + a62 * k2q + a63 * k3q + a64 * k4q + a65 * k5q)
            k6q = accel(v + h * (a61 * fv + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v), k6v)
            v_new = v + h * (b1 * fv + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            q_new = q + h * (b1 * fq + b3 * k3q + b4 * k4q + b5 * k5q + b6 * k6q)
            k7v, k7q = q_new, accel(v_new, q_new)
            err_v = h * (e1 * fv + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
            err_q = h * (e1 * fq + e3 * k3q + e4 * k4q + e5 * k5q + e6 * k6q + e7 * k7q)
            err = _rms(err_v / (ATOL + max(abs(v), abs(v_new)) * RTOL),
                       err_q / (ATOL + max(abs(q), abs(q_new)) * RTOL))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True

        kv = (fv, k2v, k3v, k4v, k5v, k6v, k7v)
        kq = (fq, k2q, k3q, k4q, k5q, k6q, k7q)
        steps += (t, h, v, q, *kv, *kq)
        if xi_mid is None and v <= v_mid <= v_new:
            xi_mid = _crossing(t, h, v, kv, v_mid, 1.0)
        xi_end = _crossing(t, h, v, kv, v_stop, 1.0) if v <= v_stop <= v_new else None
        if q_new <= 0.0 <= q and (xi_end is None or _crossing(t, h, q, kq, 0.0, -1.0) < xi_end):
            raise MonotonicityError("monotonicity violated: profile slope crossed zero before arrival")
        if xi_end is not None:
            table = np.array(steps).reshape(-1, 18)
            return (xi_mid, xi_end, table[:, 0].copy(), table[:, 1].copy(),
                    table[:, 2:4].copy(), table[:, 4:].reshape(-1, 2, 7).copy())
        if t_new == span:
            raise ProfileError(
                f"profile solve failed: right state not reached within span {span:.1f} "
                f"(final v = {v_new:.6g}, bracket [{pattern.mid.v:.6g}, {v_stop:.6g}])")
        t, v, q, fv, fq = t_new, v_new, q_new, k7v, k7q


def _dense(starts, sizes, states, stages, step, xi):
    """(v, v') at ``xi`` from the dense output of accepted step ``step``:
    y0 + h x (c0 + x (c1 + x (c2 + x c3))) with x = (xi - start) / h, the
    polynomial ``_crossing`` evaluates."""
    h = sizes[step]
    x = (xi - starts[step]) / h
    c = stages @ _P                 # (steps, 2, 4), per accepted step
    y = c[step, :, 3]
    for k in (2, 1, 0):
        y *= x[:, None]
        y += c[step, :, k]
    y *= (h * x)[:, None]
    y += states[step]
    return y[:, 0], y[:, 1]


def _hermite(x, y, dy, out):
    """Coefficients (c3, c2, c1, c0), each per interval, of the cubic Hermite
    interpolant of (y, dy) at the knots x, written to the rows of ``out``;
    on [x_i, x_i+1] it is ((c3 s + c2) s + c1) s + c0 with s = xi - x_i."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dy[:-1] + dy[1:] - 2.0 * slope) / dx
    out[0] = t / dx
    out[1] = (slope - dy[:-1]) / dx - t
    out[2] = dy[:-1]
    out[3] = y[:-1]


@dataclass
class ShockProfile:
    """Monotone traveling wave: the tabulated body between two closed-form
    tails, with derivatives and tail metadata."""

    xi: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    vp: np.ndarray = field(repr=False)
    vpp: np.ndarray = field(repr=False)
    v_m: float
    v_plus: float
    tail_rate: float
    growth_rate: float
    manifold_c2: float
    xi_switch: float
    decay_rate: float
    node_c2: float
    xi_stop: float
    model: GasModel
    pattern: WavePattern = field(repr=False)

    def __post_init__(self):
        # the knots are uniform: ``volume`` finds a point's interval by
        # arithmetic, and ``self_residual`` differences every window
        self._h = (self.xi[-1] - self.xi[0]) / (len(self.xi) - 1)
        if np.max(np.abs(np.diff(self.xi) - self._h)) > 1e-9 * self._h:
            raise ProfileError("profile table knots are not uniformly spaced")
        # coefficients (4, 2, .) of the cubic Hermite interpolants of the
        # tabulated (v, v') and (v', v''): v' is C^1, so the stack's
        # derivatives have no kinks at the knots
        self._cubics = np.empty((4, 2, len(self.xi) - 1))
        _hermite(self.xi, self.v, self.vp, self._cubics[:, 0])
        _hermite(self.xi, self.vp, self.vpp, self._cubics[:, 1])
        # each tail: its end volume, anchor, gap v - v_end there, rate and c2
        d0 = TAIL_SWITCH * self.pattern.delta_S
        self._tails = ((self.v_m, self.xi_switch, d0, self.growth_rate, self.manifold_c2),
                       (self.v_plus, self.xi_stop, -d0, self.decay_rate, self.node_c2))
        self.xi_lo, self.xi_hi = (_manifold_reach(math.copysign(TAIL_CUT, dv0), xi0, dv0, lam, c2)
                                  for _, xi0, dv0, lam, c2 in self._tails)

    def span_knots(self):
        """The table's knots continued at its spacing over [xi_lo, xi_hi]."""
        k = np.arange(math.ceil((self.xi_lo - self.xi[0]) / self._h),
                      math.floor((self.xi_hi - self.xi[0]) / self._h) + 1)
        return self.xi[0] + self._h * k

    def _evaluate(self, xi, out, work, index, ends=None):
        """v, v' and, for three or four rows of ``out``, v'' and v''' at the
        points ``xi``, written into ``out`` (order + 1, n); ``work`` (2, n)
        and the integer ``index`` (n,) are scratch.

        ``ends`` = (lo, switch, end, hi) makes [:lo], [lo:switch],
        [switch:end], [end:hi] and [hi:] the points left of the span, in the
        left tail, in the body, in the right tail and right of the span;
        without it the points are non-decreasing, a NaN last, and
        ``searchsorted`` finds the ends.  In a tail v = v_end + dv, v' =
        q(dv), v'' = q' q and v''' = (q'' q + q'^2) q.  In the body v and v'
        interpolate the tabulated (v, v') and (v', v'') by cubic Hermite
        polynomials on one interval, the integer part of the offset in knot
        spacings from the first knot (within rounding of a knot, either
        neighbour: the C^1 interpolants agree to a few ulp); v'' and v'''
        solve the residual equation and its derivative.
        """
        if ends is None:
            ends = (*xi.searchsorted((self.xi_lo, self.xi_switch)),
                    *xi.searchsorted((self.xi[-1], self.xi_hi), side="right"))
        lo, switch, end, hi = ends
        order = len(out) - 1
        out[0, :lo], out[0, hi:] = self.v_m, self.v_plus
        out[1:, :lo] = out[1:, hi:] = 0.0
        # the tails, each with dv in v's row until its end volume is added
        for part, (v_end, xi0, dv0, lam, c2) in zip((slice(lo, switch), slice(end, hi)),
                                                   self._tails):
            dv = _manifold_gap(xi[part], xi0, dv0, lam, c2, out=out[0, part])
            q = _manifold_slope(dv, lam, c2, out=out[1, part])
            if order >= 2:
                dq = lam + 2.0 * c2 * dv
                out[2, part] = dq * q
                if order == 3:
                    out[3, part] = (2.0 * c2 * q + dq * dq) * q
            dv += v_end
        # the body: the interval index, then each interpolant in Horner order;
        # every index is in range, and with mode="clip" ``take`` writes into
        # ``out`` directly, where the default mode would buffer it
        body = slice(switch, end)
        s, c, i = work[0, body], work[1, body], index[body]
        np.subtract(xi[body], self.xi[0], out=s)
        s /= self._h
        i[...] = s                  # truncation toward 0 is the floor: s > -1
        np.minimum(i, len(self.xi) - 2, out=i)
        self.xi.take(i, out=c, mode="clip")
        np.subtract(xi[body], c, out=s)
        for coefficients, y in zip(self._cubics.transpose(1, 0, 2), out[:2, body]):
            coefficients[0].take(i, out=y, mode="clip")
            for row in coefficients[1:]:
                y *= s
                row.take(i, out=c, mode="clip")
                y += c
        if order >= 2:
            v, vx = out[0, body], out[1, body]
            vxx = out[2, body] = _accel(v, vx, self.pattern, self.model)
            if order == 3:
                gv, gq = _accel_grad(v, vx, self.pattern, self.model)
                out[3, body] = gv * vx + gq * vxx

    def volume(self, xi, order: int = 1):
        """v and v' at arbitrary xi, plus v'' from order 2 on and v''' at
        order 3, each of xi's shape (``_evaluate``).  Points out of order are
        grouped by region with boolean masks, evaluated and scattered back,
        so each point gets the same bits in any order."""
        check_order(order, 1, 3)
        xi = np.asarray(xi, dtype=float)
        flat = xi.ravel()
        out, work = np.empty((order + 1, flat.size)), np.empty((2, flat.size))
        index = np.empty(flat.size, np.intp)
        if np.all(flat[1:] >= flat[:-1]):
            self._evaluate(flat, out, work, index)
        else:
            # the regions are differences of nested masks; a NaN is in none
            nested = (flat < self.xi_lo, flat < self.xi_switch, flat <= self.xi[-1],
                      flat <= self.xi_hi)
            regions = [nested[0], *(b ^ a for a, b in zip(nested, nested[1:])), ~nested[-1]]
            groups = [np.flatnonzero(m) for m in regions]
            grouped = np.concatenate(groups)
            self._evaluate(flat[grouped], out, work, index,
                           np.cumsum([g.size for g in groups[:4]]))
            for row in out:
                work[0] = row
                row[grouped] = work[0]
        return tuple(out.reshape((order + 1,) + xi.shape))

    def volume_sorted(self, xi, out, work, index):
        """``volume`` at the non-decreasing 1-D ``xi``, to the order the rows of
        ``out`` (order + 1, n) hold, written into them bit for bit; with the
        scratch ``work`` (2, n) and integer ``index`` (n,) nothing is allocated."""
        self._evaluate(xi, out, work, index)

    def self_residual(self) -> float:
        """Max residual over the table's interior knots, with v'' from the
        five-point difference of the tabulated v' (independent of the
        algebraic closure used during the solve)."""
        xi, v, q = self.xi, self.v, self.vp
        n = len(xi)
        if n < 7:
            return 0.0
        h = np.diff(xi)
        i = np.arange(2, n - 2)
        dq = (q[i - 2] - 8.0 * q[i - 1] + 8.0 * q[i + 1] - q[i + 2]) / (12.0 * h[i - 2])
        r = profile_residual(v[i], q[i], dq, self.pattern, self.model)
        return float(np.max(np.abs(r), initial=0.0))


def solve_profile(pattern: WavePattern, model: GasModel) -> ShockProfile:
    """Compute the traveling-wave table for the fast shock of ``pattern``."""
    delta_S = pattern.delta_S
    if delta_S < MIN_STRENGTH:
        raise ProfileError(f"shock strength delta_S = {delta_S:.3g} is below the profile "
                           f"solve's floor MIN_STRENGTH = {MIN_STRENGTH:g}")
    v_m, v_p = pattern.mid.v, pattern.right.v

    A_m, B_m, disc_m = _saddle_rate(v_m, pattern, model)
    if A_m <= 0.0:
        raise ProfileError("left end state is not a saddle; profile solve failed")
    lam_plus = 0.5 * (B_m + np.sqrt(disc_m))
    c2 = _manifold_c2(lam_plus, v_m, pattern, model)
    A_p, B_p, disc_p = _saddle_rate(v_p, pattern, model)
    if disc_p <= 0.0:
        raise MonotonicityError(
            "monotonicity violated: right end state is a spiral "
            f"(discriminant {disc_p:.3g}); shock outside the weak-dispersion regime")
    nu_slow = 0.5 * (B_p + np.sqrt(disc_p))

    # shoot from the left switch on the manifold to the right switch; beyond
    # them the tails are closed forms
    d0 = TAIL_SWITCH * delta_S
    y0 = (v_m + d0, float(_manifold_slope(d0, lam_plus, c2)))
    span = 3.0 * np.log((v_p - v_m) / d0) * (1.0 / lam_plus + 1.0 / abs(nu_slow)) + 100.0
    xi_mid, xi_end, starts, sizes, states, stages = _shoot(
        y0, span, 0.5 * (v_m + v_p), v_p - d0, pattern, model)

    # the body at uniform knots k h from the shot's start to its stop.  The
    # spacing is no coarser than the shot's steps through the steep middle
    # (0.066 to 0.077 on the standard and smoke patterns), where the
    # interpolant's error is largest
    h = min(0.07, 0.007 / delta_S)
    s = h * np.arange(int(xi_end // h) + 1)
    step = np.searchsorted(starts, s, side="right") - 1
    v, q = _dense(starts, sizes, states, stages, step, s)
    if np.any(np.diff(v) <= 0.0) or np.any(q <= 0.0):
        raise MonotonicityError("monotonicity violated: tabulated profile is not strictly increasing")
    vpp = np.asarray(_accel(v, q, pattern, model))

    xi_switch = -xi_mid
    xi = xi_switch + s
    # fitted exponential decay rate of the right tail, on the body
    gap = v_p - v
    sel = (gap < 0.01 * delta_S) & (xi > 0.0)
    if np.count_nonzero(sel) >= 8:
        slope = np.polyfit(xi[sel], np.log(gap[sel]), 1)[0]
        tail_rate = float(-slope)
    else:
        tail_rate = float(abs(nu_slow))

    prof = ShockProfile(xi=xi, v=v, vp=q, vpp=vpp, v_m=v_m, v_plus=v_p, tail_rate=tail_rate,
                        growth_rate=float(lam_plus), manifold_c2=float(c2), xi_switch=xi_switch,
                        decay_rate=float(nu_slow),
                        node_c2=float(_manifold_c2(nu_slow, v_p, pattern, model)),
                        xi_stop=xi_switch + xi_end, model=model, pattern=pattern)

    if abs(float(prof.volume(0.0)[0]) - 0.5 * (v_m + v_p)) > 1e-10:
        raise ProfileError("profile normalization failed: midpoint not at xi = 0")
    res = prof.self_residual()
    if res > RESIDUAL_TOL:
        raise ProfileError(f"profile residual {res:.3g} exceeds tolerance {RESIDUAL_TOL:.3g}")
    return prof


def stack_from_volume(pattern: WavePattern, model: GasModel, v, vx, vxx=None, vxxx=None) -> dict:
    """The shock stack of volume v, to the order of the last x-derivative
    given: order 1 is v, vx and the velocity u = u_m - sigma (v - v_m) with
    ux; order 2 adds vxx, uxx, w and wx; order 3 adds vxxx."""
    sigma, mid, b = pattern.sigma, pattern.mid, model.beta
    st = {"v": v, "vx": vx, "u": mid.u - sigma * (v - mid.v), "ux": -sigma * vx}
    if vxx is not None:
        gcap = v ** (-0.5 * (b + 5.0))
        st.update(vxx=vxx, uxx=-sigma * vxx, w=-vx * gcap,
                  wx=-vxx * gcap + 0.5 * (b + 5.0) * vx * vx * v ** (-0.5 * (b + 7.0)))
    if vxxx is not None:
        st["vxxx"] = vxxx
    return st


def eval_profile(profile: ShockProfile, xi, order: int = 3) -> dict:
    """Profile fields at xi: the ``stack_from_volume`` of order ``order`` of
    ``ShockProfile.volume`` at that order."""
    return stack_from_volume(profile.pattern, profile.model, *profile.volume(xi, order))
