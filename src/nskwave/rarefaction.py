"""Smooth approximate slow-family rarefaction wave.

The fan is generated by transporting a tanh profile of the slow
characteristic speed along its own characteristics (an exact implicit
Burgers solution evaluated at time offset 1 + t).  Specific volume is
recovered through the closed-form inverse of the characteristic speed and
velocity through the constant slow Riemann invariant.  Every x-derivative
up to fourth order is assembled analytically from the implicit-function
chain rule; no numerical differentiation enters the stack.
"""
from __future__ import annotations

import numpy as np

from . import thermo
from .errors import DomainError, check_order
from .quadrature import gauss_kronrod
from .riemann import WavePattern
from .thermo import GasModel

#: initial-profile coordinates beyond this are fully saturated in double
#: precision: tanh(x0) rounds to exactly +-1 once |x0| > 19.1, so the fan
#: value there is exactly an end state (``eval`` at order 0 relies on this)
X0_WINDOW = 25.0


def _time_offsets(t):
    """``t`` as a float array, of shape () for one time; raises
    ``DomainError`` unless every value is finite and nonnegative.  It is
    not broadcast: a caller's (2, 1) times stay (2, 1) until they meet the
    points."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < np.inf)):
        raise DomainError("time must be finite and nonnegative")
    return t


class RarefactionWave:
    """Smooth expansion fan joining the left and intermediate states."""

    def __init__(self, pattern: WavePattern, model: GasModel):
        self.model = model
        self.gamma = model.gamma
        self.v_minus, self.u_minus = pattern.left.v, pattern.left.u
        self.v_m, self.u_m = pattern.mid.v, pattern.mid.u
        self.delta_R = pattern.delta_R
        self.w_minus = float(thermo.characteristic_speeds(self.v_minus, model)[0])
        self.w_m = float(thermo.characteristic_speeds(self.v_m, model)[0])
        if self.w_minus > self.w_m + 1e-14:
            raise DomainError("fan speeds must be ordered: lambda1(v_minus) <= lambda1(v_m)")
        self.center = 0.5 * (self.w_m + self.w_minus)
        self.half_width = 0.5 * (self.w_m - self.w_minus)
        self.z1 = float(thermo.riemann_invariant_z1(self.v_minus, self.u_minus, model))
        self.degenerate = not pattern.has_rarefaction

    # -- initial profile -------------------------------------------------

    def _w0_derivatives(self, x0, order):
        """tanh(x0), w0(x0) and the first four derivatives of w0, those
        above ``order`` as None."""
        T = np.tanh(x0)
        A = self.half_width
        w0 = self.center + A * T
        if order == 0:
            return T, w0, None, None, None, None
        e = np.exp(-2.0 * np.abs(x0))
        sech2 = 4.0 * e / (1.0 + e) ** 2
        w = [A * sech2, None, None, None]
        if order >= 2:
            w[1] = -2.0 * A * T * sech2
        if order >= 3:
            w[2] = -2.0 * A * sech2 * (1.0 - 3.0 * T * T)
        if order >= 4:
            w[3] = 8.0 * A * T * sech2 * (2.0 - 3.0 * T * T)
        return T, w0, *w

    # -- implicit characteristic solve ------------------------------------

    def burgers_state(self, tau, x):
        """Foot points x0 of x = x0 + w0(x0) tau; the speed there is
        ``center + half_width * tanh(x0)``.

        ``tau`` is one time offset or an array of them that broadcasts to
        ``x``; it is broadcast to one offset per point.  With
        a = half_width tau and s = x - center tau the equation reads
        g(x0) = x0 + a tanh(x0) = s, where g is odd, increasing and concave
        for x0 > 0.  Newton from x0 = 0 first lands at s / (1 + a), where
        the iteration starts, on the near side of the root, since g lies
        below its tangent at 0; g also lies below its tangent at every later
        iterate, so each step stays on that side and climbs monotonically to
        the root (the mirror image for s < 0).  The iteration cap is the
        only safeguard.  A point leaves
        the iteration, and its arrays, at its first iterate whose residual
        meets the tolerance, keeping the Newton step from that iterate: its
        bits do not depend on the other points of the call, and the foot
        point is at rounding.
        """
        x = np.asarray(x, dtype=float)
        tau = _time_offsets(tau)
        if not np.all(np.isfinite(x)):
            raise DomainError("position must be finite")
        xs = x.ravel()
        tau = np.broadcast_to(tau, x.shape).ravel()
        foot = np.empty_like(xs)
        live = np.arange(xs.size)
        a = self.half_width * tau
        s = xs - self.center * tau
        tol = 1e-13 * np.maximum(1.0, np.abs(xs) + np.abs(self.w_m) * tau)
        x0 = s / (1.0 + a)
        for _ in range(120):
            T = np.tanh(x0)
            res = x0 + a * T - s
            x0 = x0 - res / (1.0 + a * (1.0 - T * T))
            done = np.abs(res) <= tol
            foot[live[done]] = x0[done]
            keep = ~done
            live, x0, a, s, tol = live[keep], x0[keep], a[keep], s[keep], tol[keep]
            if not live.size:
                return foot.reshape(x.shape)
        raise DomainError("characteristic foot-point iteration did not converge")

    # -- field evaluation --------------------------------------------------

    def _stack_from_x0(self, tau, x0, order):
        """Field values and x-derivatives given the foot points x0."""
        g = self.gamma
        T, w, w1_0, w2_0, w3_0, w4_0 = self._w0_derivatives(x0, order)
        V = (g / (w * w)) ** (1.0 / (g + 1.0))
        u = self.z1 - thermo.lambda1_antiderivative(V, self.model)

        # snap the saturated far field to the exact end states
        sat_hi = T >= 1.0
        sat_lo = T <= -1.0
        v = np.where(sat_hi, self.v_m, np.where(sat_lo, self.v_minus, V))
        u = np.where(sat_hi, self.u_m, np.where(sat_lo, self.u_minus, u))
        out = {"v": v, "u": u}
        if order == 0:
            return out

        D = 1.0 + w1_0 * tau
        wx = [w1_0 / D]
        if order >= 2:
            wx.append(w2_0 / D ** 3)
        if order >= 3:
            wx.append(w3_0 / D ** 4 - 3.0 * tau * w2_0 ** 2 / D ** 5)
        if order >= 4:
            wx.append(w4_0 / D ** 5 - 10.0 * tau * w2_0 * w3_0 / D ** 6
                      + 15.0 * tau ** 2 * w2_0 ** 3 / D ** 7)

        # derivatives of the speed inverse: V^(k) = V / w^k * prod_{j<k} (c - j)
        c = -2.0 / (g + 1.0)
        Vd = []
        coef = 1.0
        for k in range(1, order + 1):
            coef *= c - (k - 1)
            Vd.append(coef * V / w ** k)
        # velocity follows from the constant invariant: dU/dw = -w dV/dw
        Ud = [-c * V]
        for k in range(1, order):
            Ud.append(-c * Vd[k - 1])

        def compose(F):
            f = [F[0] * wx[0]]
            if order >= 2:
                f.append(F[1] * wx[0] ** 2 + F[0] * wx[1])
            if order >= 3:
                f.append(F[2] * wx[0] ** 3 + 3.0 * F[1] * wx[0] * wx[1] + F[0] * wx[2])
            if order >= 4:
                f.append(F[3] * wx[0] ** 4 + 6.0 * F[2] * wx[0] ** 2 * wx[1]
                         + 3.0 * F[1] * wx[1] ** 2 + 4.0 * F[1] * wx[0] * wx[2] + F[0] * wx[3])
            return f

        vda = compose(Vd)
        uda = compose(Ud)
        names = ["x", "xx", "xxx", "xxxx"]
        for k in range(order):
            out["v" + names[k]] = vda[k]
            out["u" + names[k]] = uda[k]
        return out

    def eval(self, t, x, order: int = 1) -> dict:
        """Fan fields at physical time t with x-derivatives up to ``order`` (0..4).

        ``t`` is one time or an array of them that broadcasts to ``x``, one
        per point or per row of points; both take the same path, and each
        point gets the values a call at its own time would give.

        At order 0 only the nodes inside ``support(t, X0_WINDOW)`` go
        through the characteristic solve; the rest get the end states.
        This is exact, not an approximation: left of the window the foot
        point satisfies x0 = x - w0 tau <= x - w_minus tau < -X0_WINDOW,
        right of it x0 >= x - w_m tau > X0_WINDOW, so tanh(x0) is exactly
        -1 or +1 and ``_stack_from_x0`` would snap the node to
        (v_minus, u_minus) or (v_m, u_m) anyway.  Derivatives in the far
        field are tiny but not zero, so orders 1-4 evaluate every node.
        """
        check_order(order, 0, 4)
        x = np.asarray(x, dtype=float)
        # first: a degenerate fan and the order-0 window send inf and nan to an end state
        if not np.all(np.isfinite(x)):
            raise DomainError("position must be finite")
        t = _time_offsets(t)
        tau = 1.0 + t
        if self.degenerate:
            zeros = np.zeros_like(x)
            out = {"v": np.full_like(x, self.v_m), "u": np.full_like(x, self.u_m)}
            for k, name in enumerate(["x", "xx", "xxx", "xxxx"][:order]):
                out["v" + name] = zeros
                out["u" + name] = zeros
            return out
        if order > 0:
            x0 = self.burgers_state(tau, x)
            return self._stack_from_x0(tau, x0, order)
        lo, hi = self.support(t, pad=X0_WINDOW)
        left = x < lo
        inside = ~left & (x <= hi)
        v = np.where(left, self.v_minus, self.v_m)
        u = np.where(left, self.u_minus, self.u_m)
        if inside.any():
            tau_in = np.broadcast_to(tau, x.shape)[inside]
            x0 = self.burgers_state(tau_in, x[inside])
            fan = self._stack_from_x0(tau_in, x0, 0)
            v[inside] = fan["v"]
            u[inside] = fan["u"]
        return {"v": v, "u": u}

    # -- norms --------------------------------------------------------------

    def support(self, t, pad: float = 45.0):
        """Interval containing everything but double-precision-null tails."""
        tau = 1.0 + t
        return self.w_minus * tau - pad, self.w_m * tau + pad

    @staticmethod
    def _magnitude(st, order, field):
        """|u| or |(v, u)| of the order-``order`` x-derivative in stack ``st``."""
        key = ["x", "xx", "xxx", "xxxx"][order - 1]
        if field == "u":
            return np.abs(st["u" + key])
        return np.hypot(st["v" + key], st["u" + key])

    def derivative_norms(self, t, p, orders=(1, 2, 3, 4), field: str = "pair") -> dict:
        """L^p norms of the x-derivative stack at time t.

        ``p`` may be a finite exponent >= 1 or ``np.inf``.  ``field``
        selects the u-component or the euclidean magnitude of the (v, u)
        pair.  Finite-p integrals run in foot-point coordinates with
        the exact jacobian 1 + w0' tau, which keeps the integration window
        fixed for all times; the discarded tails are below 1e-20 by the
        tanh envelope.  The integrals of all ``orders`` refine in lockstep,
        one stack evaluation per level, each to 1e-10 of itself with no
        absolute floor, since the norms fall by decades with t and with
        the order.
        """
        if field not in ("u", "pair"):
            raise DomainError(f"unknown field {field!r}")
        t = _time_offsets(t)
        if t.ndim:
            raise DomainError("derivative_norms takes one time")
        orders = tuple(orders)
        for j in orders:
            check_order(j, 1, 4)
        if not p >= 1:
            raise DomainError("Lebesgue exponent must be >= 1 or inf")
        if self.degenerate or not orders:
            return {j: 0.0 for j in orders}
        tau = 1.0 + t
        top = max(orders)
        if np.isinf(p):
            st = self._stack_from_x0(tau, np.linspace(-X0_WINDOW, X0_WINDOW, 8001), top)
            return {j: float(np.max(self._magnitude(st, j, field))) for j in orders}

        def integrand(x0, domain):
            st = self._stack_from_x0(tau, x0, top)
            mag = np.choose(domain, [self._magnitude(st, j, field) for j in orders])
            jac = 1.0 + self._w0_derivatives(x0, top)[2] * tau
            return mag ** p * jac

        breaks = [-X0_WINDOW, -12.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 12.0, X0_WINDOW]
        vals = gauss_kronrod(integrand, [breaks] * len(orders), abs_tol=0.0, rel_tol=1e-10)
        return {j: float(max(float(val[0]), 0.0) ** (1.0 / p)) for j, val in zip(orders, vals)}
