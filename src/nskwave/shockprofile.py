"""Viscous-dispersive traveling-wave profile of the fast shock family.

The profile solves the momentum equation integrated once from the left
far field, with the mass equation eliminating velocity (u' = -sigma v').
In the (v, v') phase plane the left end state is a saddle and the right
end state a stable node for weak shocks; the profile is the saddle's
unstable manifold, a monotone orbit.  ``_orbit`` integrates it forward
in s = log((v - v_m) / (v_plus - v)), where both end states are at
infinity, for one scalar, r = ds/dxi, by implicit Radau IIA steps that
the node's stiffness does not slow; xi is the quadrature of 1 / r.  It
runs between the two switches, where |v - v_end| is ``TAIL_SWITCH`` times
the shock strength; translated so the midpoint volume (s = 0) sits at
xi = 0, it is tabulated at uniform knots xi_switch + k h, the body.

``ShockProfile._evaluate`` is the one evaluator of v, v', v'' and v''':
left of the span, in either tail, in the body (cubic Hermite interpolants
and the residual equation) and right of the span.  ``volume`` takes points
in any order, and ``eval_profile`` is the stack of ``volume``'s
derivatives.

Both tails are closed forms, where tabulated volumes would round to equal
neighbours: the invariant manifold's expansion q(dv) = rate dv + c2 dv^2
(dv = v - v_end) gives the slope, and dv(xi) is the exact solution of
dv' = q(dv), from xi alone: along the saddle's unstable direction at v_m
from ``xi_switch``, where the orbit starts on the same expansion, and
along the node's slow direction at v_plus from ``xi_stop``, where the
orbit stops, less than one knot spacing beyond the last knot.  v and v'
are continuous at ``xi_switch`` and agree at the last knot to the orbit's
error; v'' and v''' agree at both to O(dv^2) and the rounding of the
residual equation.  Each tail ends where its gap falls to ``TAIL_CUT``,
at ``xi_lo`` and ``xi_hi``; beyond them v is the far-field state.
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
#: relative tolerance of the orbit's step control, on r = ds/dxi
ORBIT_TOL = 1e-11
#: longest step of the orbit in s: at weak shocks the whole orbit is stiff,
#: and the error estimate, damped by the stiffness, misses most of the error
ORBIT_MAX_STEP = 0.1
#: largest self-check residual solve_profile accepts
RESIDUAL_TOL = 1e-8
#: both tails are closed forms below |v - v_end| = TAIL_SWITCH * delta_S
#: (1e-6 on the standard pattern), where the expansion's truncation error
#: is about (16 dv)^2 relative at v_m
TAIL_SWITCH = 2e-5
#: weakest shock the profile solve takes: it bounds the table's knot count,
#: which grows like 1 / delta_S (up to 1.18 million at 1e-3, v_plus = 4),
#: and refuses the degenerate strengths
MIN_STRENGTH = 1e-3


def _rankine_hugoniot_gap(v, pattern: WavePattern, model: GasModel):
    """sigma^2 (v - v_m) + p(v) - p(v_m); vanishes at both end volumes.

    p(v_m) is ``pattern.p_m``.  The pressure p(v) is evaluated with
    ``np.power``, the ufunc that ``thermo.pressure`` uses, but without its
    validation: the callers own the volume check.  ``_orbit_coefficients``
    forms the gap without its cancellation near the end volumes.
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


def _orbit_coefficients(pattern: WavePattern, model: GasModel):
    """dr/ds = P / r + Q + R r as the plain-float function s -> (P, Q, R).
    With g = dv/ds = (v - v_m) (v_plus - v) / delta_S, r = v' / g and
    ``_accel`` = A + B v' + C v'^2: P = A / g, Q = B, R = C g + tanh(s / 2).
    v and the Rankine-Hugoniot gap come from the nearer end state's offset d,
    the gap as sigma^2 d + p(v_end) expm1(-gamma log1p(d / v_end)), free of
    the cancellation of p(v) - p_m."""
    delta, sigma = float(pattern.delta_S), float(pattern.sigma)
    v_m, p_m, v_p = float(pattern.mid.v), float(pattern.p_m), float(pattern.right.v)
    p_p = float(thermo.pressure(v_p, model))
    gamma, b = model.gamma, model.beta
    e_gap, e_drag, c_cap = 5.0 + b, 4.0 + b - model.alpha, 0.5 * (5.0 + b)
    exp, expm1, log1p = math.exp, math.expm1, math.log1p

    def coefficients(s):
        x = exp(-abs(s))
        w = delta * x / (1.0 + x)          # |v - v_end|
        t = (1.0 - x) / (1.0 + x)          # |tanh(s / 2)|
        v_end, p_end, d, t = (v_p, p_p, -w, t) if s > 0.0 else (v_m, p_m, w, -t)
        v = v_end + d
        if not thermo.VOLUME_FLOOR < v < math.inf:
            raise DomainError(f"profile solve left the volume domain (v = {v!r})")
        g = w / (1.0 + x)
        gap = sigma * sigma * d + p_end * expm1(-gamma * log1p(d / v_end))
        return -v ** e_gap * gap / g, -sigma * v ** e_drag, c_cap * g / v + t

    return coefficients


# Radau IIA of order 5 (Hairer & Wanner, Solving ODEs II, Sec. IV.8): nodes,
# coefficients (the last row is the weights) and the error estimate
# (h f(r) + E . Z) / (MU - h J) of the stage increments Z
_S6 = math.sqrt(6.0)
_C = ((4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0, 1.0)
_A = (((88.0 - 7.0 * _S6) / 360.0, (296.0 - 169.0 * _S6) / 1800.0, (-2.0 + 3.0 * _S6) / 225.0),
      ((296.0 + 169.0 * _S6) / 1800.0, (88.0 + 7.0 * _S6) / 360.0, (-2.0 - 3.0 * _S6) / 225.0),
      ((16.0 - _S6) / 36.0, (16.0 + _S6) / 36.0, 1.0 / 9.0))
_E = ((-13.0 - 7.0 * _S6) / 3.0, (-13.0 + 7.0 * _S6) / 3.0, -1.0 / 3.0)
_MU = 3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0)


def _orbit(s0, s1, r0, coefficients):
    """s, r, xi and f = dr/ds at the ends of the Radau IIA steps from (s0, r0,
    xi = 0) to s1, one ending at s = 0, with dxi/ds = 1 / r: simplified
    Newton at the step's starting Jacobian, step control on r's relative
    error.  The first step is short: r0 is off the orbit by its expansion's
    truncation error, whose stiff transient a long step would carry into the
    table.  r <= 0 raises ``MonotonicityError``, a step under ten ulp of s
    ``ProfileError``."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = _A
    (c1, c2, _), (e1, e2, e3) = _C, _E
    s, r, xi, h = s0, r0, 0.0, 1e-5
    P, Q, R = coefficients(s)
    f = P / r + Q + R * r
    out = [(s, r, xi, f)]
    for stop in (0.0, s1):
        while s < stop:
            while True:
                if h < 10.0 * (math.nextafter(s, math.inf) - s):
                    raise ProfileError("profile solve failed: step size fell below ten ulp "
                                       f"at s = {s:.6g}")
                h, last = (stop - s, True) if h >= stop - s else (h, False)
                (P1, Q1, R1), (P2, Q2, R2), (P3, Q3, R3) = (coefficients(s + c * h) for c in _C)
                # adjugate k and determinant of I - h J A, J = df/dr at the start
                hj = h * (R - P / (r * r))
                m11, m12, m13 = 1.0 - hj * a11, -hj * a12, -hj * a13
                m21, m22, m23 = -hj * a21, 1.0 - hj * a22, -hj * a23
                m31, m32, m33 = -hj * a31, -hj * a32, 1.0 - hj * a33
                k11, k12, k13 = m22 * m33 - m23 * m32, m13 * m32 - m12 * m33, m12 * m23 - m13 * m22
                det = m11 * k11 + m21 * k12 + m31 * k13
                k21, k22, k23 = m23 * m31 - m21 * m33, m11 * m33 - m13 * m31, m13 * m21 - m11 * m23
                k31, k32, k33 = m21 * m32 - m22 * m31, m12 * m31 - m11 * m32, m11 * m22 - m12 * m21
                z1, z2, z3 = c1 * h * f, c2 * h * f, h * f
                tol, norm_old = 0.03 * ORBIT_TOL * r, 0.0
                for _ in range(8):
                    y1, y2, y3 = r + z1, r + z2, r + z3
                    if y1 <= 0.0 or y2 <= 0.0 or y3 <= 0.0:
                        raise MonotonicityError(f"monotonicity violated: ds/dxi <= 0 at s = {s:g}")
                    f1, f2 = P1 / y1 + Q1 + R1 * y1, P2 / y2 + Q2 + R2 * y2
                    f3 = P3 / y3 + Q3 + R3 * y3
                    g1 = h * (a11 * f1 + a12 * f2 + a13 * f3) - z1
                    g2 = h * (a21 * f1 + a22 * f2 + a23 * f3) - z2
                    g3 = h * (a31 * f1 + a32 * f2 + a33 * f3) - z3
                    dz1, dz2, dz3 = ((k11 * g1 + k12 * g2 + k13 * g3) / det,
                                     (k21 * g1 + k22 * g2 + k23 * g3) / det,
                                     (k31 * g1 + k32 * g2 + k33 * g3) / det)
                    z1, z2, z3 = z1 + dz1, z2 + dz2, z3 + dz3
                    # done when norm theta / (1 - theta), theta = norm / norm_old, is in tol
                    norm = abs(dz1) + abs(dz2) + abs(dz3)
                    if norm * norm <= tol * (norm_old - norm):
                        break
                    norm_old = norm
                else:
                    h *= 0.5
                    continue
                y1, y2, y3 = r + z1, r + z2, r + z3
                err = abs((h * f + e1 * z1 + e2 * z2 + e3 * z3) / (_MU - hj))
                err /= ORBIT_TOL * max(r, y3)
                if err <= 1.0:
                    break
                h *= max(0.2, 0.9 * err ** -0.25)
            xi += h * (a31 / y1 + a32 / y2 + a33 / y3)
            s, r, P, Q, R = stop if last else s + h, y3, P3, Q3, R3
            f = P / r + Q + R * r
            out.append((s, r, xi, f))
            h = min(h * (10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.25)), ORBIT_MAX_STEP)
    return np.array(out).T


def _interpolate(x, y, dy, ddy, at):
    """The quintic Hermite interpolant of (y, dy, ddy) at the knots x, and
    its derivative, at the points ``at`` in [x[0], x[-1]]."""
    i = np.minimum(np.searchsorted(x, at, side="right") - 1, len(x) - 2)
    h = x[i + 1] - x[i]
    t = (at - x[i]) / h
    y0, d0, d1, e0, e1 = y[i], h * dy[i], h * dy[i + 1], h * h * ddy[i], h * h * ddy[i + 1]
    # c3 t^3 + c4 t^4 + c5 t^5 makes up what y0 + d0 t + e0 t^2 / 2 misses at t = 1
    m0, m1, m2 = y[i + 1] - y0 - d0 - 0.5 * e0, d1 - d0 - e0, e1 - e0
    c3, c4 = 10.0 * m0 - 4.0 * m1 + 0.5 * m2, 7.0 * m1 - 15.0 * m0 - m2
    c5 = 6.0 * m0 - 3.0 * m1 + 0.5 * m2
    return (y0 + t * (d0 + t * (0.5 * e0 + t * (c3 + t * (c4 + t * c5)))),
            (d0 + t * (e0 + t * (3.0 * c3 + t * (4.0 * c4 + t * 5.0 * c5)))) / h)


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

    def _evaluate(self, xi, out, ends=None):
        """v, v' and, for three or four rows of ``out``, v'' and v''' at the
        points ``xi``, written into ``out`` (order + 1, n).

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
        # the body: the interval index (truncation toward 0 is the floor, as
        # the offset in spacings is > -1), then each interpolant in Horner
        # order; every index is in range, and with mode="clip" ``take``
        # writes into ``out`` directly, where the default mode would buffer it
        body = slice(switch, end)
        i = np.minimum(((xi[body] - self.xi[0]) / self._h).astype(np.intp), len(self.xi) - 2)
        s, c = xi[body] - self.xi[i], np.empty(i.size)
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
        out = np.empty((order + 1, flat.size))
        if np.all(flat[1:] >= flat[:-1]):
            self._evaluate(flat, out)
        else:
            # the regions are differences of nested masks; a NaN is in none
            nested = (flat < self.xi_lo, flat < self.xi_switch, flat <= self.xi[-1],
                      flat <= self.xi_hi)
            regions = [nested[0], *(b ^ a for a, b in zip(nested, nested[1:])), ~nested[-1]]
            groups = [np.flatnonzero(m) for m in regions]
            grouped = np.concatenate(groups)
            self._evaluate(flat[grouped], out, np.cumsum([g.size for g in groups[:4]]))
            for row in out:
                row[grouped] = row.copy()
        return tuple(out.reshape((order + 1,) + xi.shape))

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

    # the orbit from the left switch, on the manifold, to the right switch,
    # where v_plus - v is d0 too; beyond them the tails are closed forms
    d0 = TAIL_SWITCH * delta_S
    s0 = math.log(d0 / (delta_S - d0))
    r0 = float(_manifold_slope(d0, lam_plus, c2)) * delta_S / (d0 * (delta_S - d0))
    s, r, xi, f = _orbit(s0, -s0, r0, _orbit_coefficients(pattern, model))
    xi_switch, xi_stop = -xi[s == 0.0][0], xi[-1] - xi[s == 0.0][0]

    # the body at uniform knots k h from the left switch to the right one,
    # with s and r = ds/dxi at each from the quintic Hermite interpolant of
    # s(xi), as d^2s/dxi^2 = dr/dxi = f r; h is 0.07 on both configs, which
    # resolves the steep middle, where the table's cubics err most
    h = min(0.07, 0.007 / delta_S)
    knots = h * np.arange(int(xi[-1] // h) + 1)
    s_k, r_k = _interpolate(xi, s, r, f * r, knots)
    e = np.exp(-s_k)
    v = v_m + delta_S / (1.0 + e)
    q = r_k * delta_S / ((1.0 + e) * (1.0 + 1.0 / e))
    if np.any(np.diff(v) <= 0.0) or np.any(q <= 0.0):
        raise MonotonicityError("monotonicity violated: tabulated profile is not strictly increasing")
    vpp = np.asarray(_accel(v, q, pattern, model))

    prof = ShockProfile(xi=xi_switch + knots, v=v, vp=q, vpp=vpp, v_m=v_m, v_plus=v_p,
                        growth_rate=float(lam_plus), manifold_c2=float(c2), xi_switch=xi_switch,
                        decay_rate=float(nu_slow), xi_stop=xi_stop, model=model, pattern=pattern,
                        node_c2=float(_manifold_c2(nu_slow, v_p, pattern, model)))

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
