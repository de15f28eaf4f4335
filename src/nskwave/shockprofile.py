"""Viscous-dispersive traveling-wave profile of the fast shock family.

The profile solves the momentum equation integrated once from the left
far field, with the mass equation eliminating velocity (u' = -sigma v').
In the (v, v') phase plane the left end state is a saddle and the right
end state a stable node for weak shocks; the profile is the saddle's
unstable manifold.  We shoot from a point on that manifold with an
adaptive Dormand-Prince 5(4) integrator (``_shoot``), translate so the
midpoint volume sits at xi = 0, and tabulate the profile at uniform knots
xi_lo + k h: the analytic left tail (below) up to the shot's start, its
dense output up to its arrival and the linearized node flow beyond, so
that both table ends reach the far-field states to 1e-12.  ``volume``
interpolates the table with cubic Hermite polynomials, on the interval
it finds by arithmetic on the knots.

The left tail, where v - v_m is below ``TAIL_SWITCH`` times the shock
strength, is analytic.  There the shooting's absolute error (about
``ATOL``) would be a large relative error of the slope, solving the
residual equation for v'' and v''' would amplify it, and v - v_m formed
from v would carry the rounding of v.  Instead the manifold's expansion
q(v) = growth_rate dv + manifold_c2 dv^2 (dv = v - v_m) gives the slope,
and dv(xi) is the exact solution of dv' = q(dv), which ``volume`` and
``eval_profile`` evaluate from xi alone.  The shot starts at the switch,
``xi_switch``, on the same expansion, so v and v' are continuous there;
the residual equation holds for the expansion to O(dv^3), so v'' and v'''
agree there to O(dv^2) and the rounding of the residual equation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import thermo
from .errors import DomainError, MonotonicityError, ProfileError
from .riemann import DEGENERATE_STRENGTH, WavePattern
from .thermo import GasModel

#: both table ends reach their far-field value to this tolerance
TAIL_CUT = 1e-12
#: relative and absolute tolerances of the Dormand-Prince shooting
RTOL = 1e-11
ATOL = 1e-13
#: largest self-check residual solve_profile accepts
RESIDUAL_TOL = 1e-8
#: the left tail is analytic below v - v_m = TAIL_SWITCH * delta_S (1e-6 on
#: the standard pattern): there the expansion's truncation error, about
#: (16 dv)^2 relative, is far below the shot slope's ATOL / (growth_rate dv)
TAIL_SWITCH = 2e-5


def _rankine_hugoniot_gap(v, pattern: WavePattern, model: GasModel):
    """sigma^2 (v - v_m) + p(v) - p(v_m); vanishes at both end volumes.

    p(v_m) is ``pattern.p_m``.  The pressure p(v) is evaluated with
    ``np.power``, the ufunc that ``thermo.pressure`` uses, but without its
    validation: the callers own the volume check.  A scalar ``v`` goes
    through the same ufunc loop as an array, so the shot's right-hand side
    and the tabulated stack agree to the bit (plain ``**`` on a float may
    differ by one ulp).
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


def _manifold_c2(lam, pattern: WavePattern, model: GasModel):
    """dv^2 coefficient c2 of the unstable manifold q = lam dv + c2 dv^2 at v_m.

    On the manifold v'' = q'(v) q.  Write ``_accel`` as A(v) + B(v) q +
    C(v) q^2 with Taylor coefficients A1, A2, B0, B1, C0 at v_m.  The dv
    terms of q' q = _accel(v, q) give lam^2 = A1 + B0 lam, the saddle rate,
    and the dv^2 terms give 3 lam c2 = A2 + B0 c2 + B1 lam + C0 lam^2.
    """
    a, b = model.alpha, model.beta
    v0 = pattern.mid.v
    Fp = pattern.sigma ** 2 + float(thermo.dpressure(v0, model))
    Fpp = float(thermo.d2pressure(v0, model))
    A2 = -(5.0 + b) * v0 ** (4.0 + b) * Fp - 0.5 * v0 ** (5.0 + b) * Fpp
    B0 = -pattern.sigma * v0 ** (4.0 + b - a)
    B1 = -pattern.sigma * (4.0 + b - a) * v0 ** (3.0 + b - a)
    C0 = 0.5 * (5.0 + b) / v0
    return (A2 + B1 * lam + C0 * lam * lam) / (3.0 * lam - B0)


def _manifold(dv, lam, c2):
    """Slope q = lam dv + c2 dv^2 on the unstable manifold, with dq/dv and
    d^2q/dv^2.  Along the manifold v' = q, v'' = q' q, v''' = (q'' q + q'^2) q."""
    return dv * (lam + c2 * dv), lam + 2.0 * c2 * dv, 2.0 * c2


def _manifold_gap(xi, xi0, dv0, lam, c2, out=None, work=None):
    """dv at the array xi on the solution of dv' = lam dv + c2 dv^2 through
    (xi0, dv0), in closed form (a Bernoulli equation), to full relative
    precision: dv0 e / (1 + (c2 / lam) dv0 (1 - e)) with e = exp(lam (xi -
    xi0)).  Written into ``out`` with ``work`` for the denominator when
    given, else into new arrays."""
    e = np.subtract(xi, xi0, out=out)
    e *= lam
    np.exp(e, out=e)
    den = np.subtract(1.0, e, out=work)
    den *= (c2 / lam) * dv0
    den += 1.0
    e *= dv0
    e /= den
    return e


def _rhs(v, q, pattern: WavePattern, model: GasModel):
    """(v', v'') of the shot at (v, v') = (v, q), on plain floats."""
    # scalar check: thermo's array validation would cost more than the closure
    if not thermo.VOLUME_FLOOR < v < np.inf:
        raise DomainError(f"profile solve left the volume domain (v = {v!r})")
    return q, float(_accel(v, q, pattern, model))


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
    """Integrate (v, v')' = ``_rhs`` from xi = 0 until v rises to ``v_stop``.

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
    v, q = y0
    span = float(span)
    fv, fq = _rhs(v, q, pattern, model)
    # initial step of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4,
    # for the error estimator's order 4
    sv, sq = ATOL + abs(v) * RTOL, ATOL + abs(q) * RTOL
    d0, d1 = _rms(v / sv, q / sq), _rms(fv / sv, fq / sq)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    gv, gq = _rhs(v + h0 * fv, q + h0 * fq, pattern, model)
    d2 = _rms((gv - fv) / sv, (gq - fq) / sq) / h0
    h1 = (max(1e-6, 1e-3 * h0) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100.0 * h0, h1, span)

    t, xi_mid = 0.0, None
    starts, sizes, states, stages = [], [], [], []
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
            k2v, k2q = _rhs(v + h * (_A2 * fv), q + h * (_A2 * fq), pattern, model)
            a = _A3
            k3v, k3q = _rhs(v + h * (a[0] * fv + a[1] * k2v),
                            q + h * (a[0] * fq + a[1] * k2q), pattern, model)
            a = _A4
            k4v, k4q = _rhs(v + h * (a[0] * fv + a[1] * k2v + a[2] * k3v),
                            q + h * (a[0] * fq + a[1] * k2q + a[2] * k3q), pattern, model)
            a = _A5
            k5v, k5q = _rhs(v + h * (a[0] * fv + a[1] * k2v + a[2] * k3v + a[3] * k4v),
                            q + h * (a[0] * fq + a[1] * k2q + a[2] * k3q + a[3] * k4q),
                            pattern, model)
            a = _A6
            k6v, k6q = _rhs(
                v + h * (a[0] * fv + a[1] * k2v + a[2] * k3v + a[3] * k4v + a[4] * k5v),
                q + h * (a[0] * fq + a[1] * k2q + a[2] * k3q + a[3] * k4q + a[4] * k5q),
                pattern, model)
            b = _B
            v_new = v + h * (b[0] * fv + b[1] * k3v + b[2] * k4v + b[3] * k5v + b[4] * k6v)
            q_new = q + h * (b[0] * fq + b[1] * k3q + b[2] * k4q + b[3] * k5q + b[4] * k6q)
            k7v, k7q = _rhs(v_new, q_new, pattern, model)
            e = _E
            err_v = h * (e[0] * fv + e[1] * k3v + e[2] * k4v + e[3] * k5v + e[4] * k6v
                         + e[5] * k7v)
            err_q = h * (e[0] * fq + e[1] * k3q + e[2] * k4q + e[3] * k5q + e[4] * k6q
                         + e[5] * k7q)
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
        starts.append(t)
        sizes.append(h)
        states.append((v, q))
        stages.append((kv, kq))
        if xi_mid is None and v <= v_mid <= v_new:
            xi_mid = _crossing(t, h, v, kv, v_mid, 1.0)
        xi_end = _crossing(t, h, v, kv, v_stop, 1.0) if v <= v_stop <= v_new else None
        if q_new <= 0.0 <= q and (xi_end is None or _crossing(t, h, q, kq, 0.0, -1.0) < xi_end):
            raise MonotonicityError("monotonicity violated: profile slope crossed zero before arrival")
        if xi_end is not None:
            return (xi_mid, xi_end, np.array(starts), np.array(sizes), np.array(states),
                    np.array(stages))
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
    """Tabulated monotone traveling wave with derivatives and tail metadata."""

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
    model: GasModel
    pattern: WavePattern = field(repr=False)

    def __post_init__(self):
        # the knots are uniform: ``volume`` finds a point's interval by
        # arithmetic, and ``self_residual`` differences every window
        self._h = (self.xi[-1] - self.xi[0]) / (len(self.xi) - 1)
        if np.max(np.abs(np.diff(self.xi) - self._h)) > 1e-9 * self._h:
            raise ProfileError("profile table knots are not uniformly spaced")
        # coefficients (4, 2, .) of the cubic Hermite interpolants of the
        # tabulated (v, v') and (v', v''), from the interval that holds the
        # switch on (left of it ``volume`` is the analytic tail): v' is C^1,
        # so the stack's derivatives have no kinks at the knots
        first = int(np.clip((self.xi_switch - self.xi[0]) // self._h, 0, len(self.xi) - 2))
        self._knots = self.xi[first:]
        self._cubics = np.empty((4, 2, len(self._knots) - 1))
        _hermite(self._knots, self.v[first:], self.vp[first:], self._cubics[:, 0])
        _hermite(self._knots, self.vp[first:], self.vpp[first:], self._cubics[:, 1])

    @property
    def xi_lo(self) -> float:
        return float(self.xi[0])

    @property
    def xi_hi(self) -> float:
        return float(self.xi[-1])

    def _tail(self, xi):
        """The analytic left tail at ``xi``: the mask of the points in it and,
        at those points, dv = v - v_m, the manifold slope q, dq/dv and
        d^2q/dv^2."""
        tail = (xi >= self.xi[0]) & (xi < self.xi_switch)
        dv = _manifold_gap(xi[tail], self.xi_switch, TAIL_SWITCH * self.pattern.delta_S,
                           self.growth_rate, self.manifold_c2)
        return (tail, dv, *_manifold(dv, self.growth_rate, self.manifold_c2))

    def volume(self, xi):
        """v and v' at arbitrary xi (end-state constants beyond the table).

        From ``xi_switch`` on, v and v' are the cubic Hermite interpolants
        of the tabulated (v, v') and (v', v''), on the table interval found
        once for both: the integer part of the point's offset, in knot
        spacings, to the knot at or below the switch.  A point within
        rounding of a knot may land in the interval on its other side,
        where the C^1 interpolant agrees to a few ulp.  In the analytic
        left tail, below ``xi_switch``, they are v_m + dv and q(dv), and no
        interpolant is evaluated.
        """
        xi = np.asarray(xi, dtype=float)
        body = (xi >= self.xi_switch) & (xi <= self.xi[-1])
        tail, dv, q, _, _ = self._tail(xi)
        v = np.where(xi < self.xi_switch, self.v_m, self.v_plus)
        vp = np.zeros_like(v)
        s = xi[body]
        # truncation toward 0 is the floor: s - knots[0] > -h
        i = ((s - self._knots[0]) / self._h).astype(np.intp)
        np.minimum(i, len(self._knots) - 2, out=i)
        s -= self._knots[i]
        c = self._cubics.take(i, axis=2)
        v[body], vp[body] = ((c[0] * s + c[1]) * s + c[2]) * s + c[3]
        v[tail] = self.v_m + dv
        vp[tail] = q
        return v, vp

    def volume_sorted(self, xi, v, vp, work, index):
        """``volume`` at non-decreasing ``xi``, written into ``v`` and ``vp``.

        The far field left of the table, the analytic tail, the body and
        the far field right of it are then consecutive slices of ``xi``,
        found by ``searchsorted`` at the table's ends and the switch, and
        each is evaluated on its own slice.  The arithmetic is
        ``volume``'s, the interval index and the Horner order included, so
        v and v' equal its values bit for bit.  ``work`` (2, n) and the
        integer ``index`` (n,) are scratch for the n points; nothing is
        allocated per point.
        """
        lo, switch = (int(j) for j in xi.searchsorted((self.xi[0], self.xi_switch)))
        hi = int(xi.searchsorted(self.xi[-1], side="right"))
        v[:lo], vp[:lo] = self.v_m, 0.0
        v[hi:], vp[hi:] = self.v_plus, 0.0
        # the tail: v_m + dv and q(dv) = dv (lam + c2 dv)
        dv = _manifold_gap(xi[lo:switch], self.xi_switch, TAIL_SWITCH * self.pattern.delta_S,
                           self.growth_rate, self.manifold_c2,
                           out=v[lo:switch], work=work[0, lo:switch])
        q = np.multiply(dv, self.manifold_c2, out=vp[lo:switch])
        q += self.growth_rate
        q *= dv
        dv += self.v_m
        # the body: the interval index, then each interpolant in Horner order;
        # every index is in range, and with mode="clip" ``take`` writes into
        # ``out`` directly, where the default mode would buffer it
        body = slice(switch, hi)
        s, c, i = work[0, body], work[1, body], index[body]
        np.subtract(xi[body], self._knots[0], out=s)
        s /= self._h
        i[...] = s                              # astype(np.intp): truncation
        np.minimum(i, len(self._knots) - 2, out=i)
        self._knots.take(i, out=c, mode="clip")
        np.subtract(xi[body], c, out=s)
        for coefficients, y in zip(self._cubics.transpose(1, 0, 2), (v[body], vp[body])):
            coefficients[0].take(i, out=y, mode="clip")
            for row in coefficients[1:]:
                y *= s
                row.take(i, out=c, mode="clip")
                y += c

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
    if delta_S < DEGENERATE_STRENGTH:
        raise ProfileError("degenerate shock strength: equal end states admit no profile")
    v_m, v_p = pattern.mid.v, pattern.right.v

    A_m, B_m, disc_m = _saddle_rate(v_m, pattern, model)
    if A_m <= 0.0:
        raise ProfileError("left end state is not a saddle; profile solve failed")
    lam_plus = 0.5 * (B_m + np.sqrt(disc_m))
    c2 = _manifold_c2(lam_plus, pattern, model)
    A_p, B_p, disc_p = _saddle_rate(v_p, pattern, model)
    if disc_p <= 0.0:
        raise MonotonicityError(
            "monotonicity violated: right end state is a spiral "
            f"(discriminant {disc_p:.3g}); shock outside the weak-dispersion regime")
    nu_slow = 0.5 * (B_p + np.sqrt(disc_p))

    # shoot from the switch on the manifold; left of it the tail is analytic
    d0 = TAIL_SWITCH * delta_S
    y0 = (v_m + d0, float(_manifold(d0, lam_plus, c2)[0]))
    # stop while the slope is still far above the integrator noise floor,
    # then close the last stretch with the linearized node flow
    gap_stop = max(TAIL_CUT, 1000.0 * ATOL)
    span = 3.0 * (np.log((v_p - v_m) / d0) / lam_plus
                  + np.log((v_p - v_m) / TAIL_CUT) / abs(nu_slow)) + 100.0

    xi_mid, xi_end, starts, sizes, states, stages = _shoot(
        y0, span, 0.5 * (v_m + v_p), v_p - gap_stop, pattern, model)

    # the table at uniform knots xi_lo + k h, in the frame where the shot's
    # start is the switch: left of it the analytic tail from the cut level
    # on, then the shot's dense output up to its arrival.  The spacing is
    # no coarser than the shot's steps through the steep middle (0.066 to
    # 0.077 on the standard and smoke patterns), where the interpolant's
    # error is largest
    h = min(0.07, 0.007 / delta_S)
    xi_switch = -xi_mid
    n_tail = int(np.ceil(np.log(d0 / TAIL_CUT) / lam_plus / h))
    xi_lo = xi_switch - n_tail * h
    xi = xi_lo + h * np.arange(n_tail + int(np.ceil(xi_end / h)) + 2)
    xi = xi[xi - xi_switch <= xi_end]
    tail = xi < xi_switch
    dv_tail = _manifold_gap(xi[tail], xi_switch, d0, lam_plus, c2)
    s = xi[~tail] - xi_switch
    step = np.searchsorted(starts, s, side="right") - 1
    v_shot, q_shot = _dense(starts, sizes, states, stages, step, s)
    v = np.concatenate([v_m + dv_tail, v_shot])
    q = np.concatenate([_manifold(dv_tail, lam_plus, c2)[0], q_shot])
    # extend the right tail with the linearized node flow down to the cut level
    d_last = v_p - v[-1]
    if d_last > TAIL_CUT:
        n_ext = int(np.ceil(np.log(d_last / TAIL_CUT) / abs(nu_slow) / h))
        xi_end_knot = xi[-1]
        xi = xi_lo + h * np.arange(len(xi) + n_ext)
        dv_ext = d_last * np.exp(nu_slow * (xi[len(v):] - xi_end_knot))
        v = np.concatenate([v, v_p - dv_ext])
        q = np.concatenate([q, abs(nu_slow) * dv_ext])

    if np.any(np.diff(v) <= 0.0) or np.any(q <= 0.0):
        raise MonotonicityError("monotonicity violated: tabulated profile is not strictly increasing")

    vpp = np.asarray(_accel(v, q, pattern, model))

    # fitted exponential decay rate of the right tail
    gap = v_p - v
    sel = (gap > 1e-9) & (gap < 0.01 * delta_S) & (xi > 0.0)
    if np.count_nonzero(sel) >= 8:
        slope = np.polyfit(xi[sel], np.log(gap[sel]), 1)[0]
        tail_rate = float(-slope)
    else:
        tail_rate = float(abs(nu_slow))

    prof = ShockProfile(xi=xi, v=v, vp=q, vpp=vpp, v_m=v_m, v_plus=v_p, tail_rate=tail_rate,
                        growth_rate=float(lam_plus), manifold_c2=float(c2),
                        xi_switch=xi_switch, model=model, pattern=pattern)

    if abs(float(prof.volume(0.0)[0]) - 0.5 * (v_m + v_p)) > 1e-10:
        raise ProfileError("profile normalization failed: midpoint not at xi = 0")
    if abs(v[0] - v_m) > 1e-10 or abs(v[-1] - v_p) > 1e-10:
        raise ProfileError("profile tails did not reach the far-field states")
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
    """Profile fields at xi: their ``stack_from_volume`` of order ``order``.

    v and v' come from ``ShockProfile.volume``; order 1 needs nothing else.
    From the switch on, v'' is the residual equation solved for it
    (differentiated once for v''' at order 3), so the derivatives satisfy
    the traveling-wave system to the accuracy of the table itself.  In the
    analytic left tail, v'' = q' q and v''' = (q'' q + q'^2) q from the same
    manifold expansion q(dv) that gives ``volume`` its v' there.  Beyond
    the table the far-field constants are returned with zero derivatives.
    """
    if order not in (1, 2, 3):
        raise DomainError(f"unsupported derivative order {order}")
    xi = np.asarray(xi, dtype=float)
    p, model = profile.pattern, profile.model
    v, vx = profile.volume(xi)
    if order == 1:
        return stack_from_volume(p, model, v, vx)
    inside = (xi >= profile.xi_lo) & (xi <= profile.xi_hi)
    vxx = np.where(inside, _accel(v, vx, p, model), 0.0)
    tail, _, q, dq, ddq = profile._tail(xi)
    vxx[tail] = dq * q
    if order == 2:
        return stack_from_volume(p, model, v, vx, vxx)
    gv, gq = _accel_grad(v, vx, p, model)
    vxxx = np.where(inside, gv * vx + gq * vxx, 0.0)
    vxxx[tail] = (ddq * q + dq * dq) * q
    return stack_from_volume(p, model, v, vx, vxx, vxxx)
