"""Viscous-dispersive traveling-wave profile of the fast shock family.

The profile solves the momentum equation integrated once from the left
far field, with the mass equation eliminating velocity (u' = -sigma v').
In the (v, v') phase plane the left end state is a saddle and the right
end state a stable node for weak shocks; the profile is the saddle's
unstable manifold.  We shoot from a point on that manifold with a
high-order adaptive integrator, translate so the midpoint volume sits at
xi = 0, and extend the right tail with the linearized node flow, so that
both table ends reach the far-field states to 1e-12.

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

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from . import thermo
from .errors import DomainError, MonotonicityError, ProfileError
from .riemann import DEGENERATE_STRENGTH, WavePattern
from .thermo import GasModel

#: both table ends reach their far-field value to this tolerance
TAIL_CUT = 1e-12
#: relative and absolute tolerances of the RK45 shooting
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

    The pressure is evaluated with ``np.power``, the ufunc that
    ``thermo.pressure`` uses, but without its validation: the callers own
    the volume check.  A scalar ``v`` goes through the same ufunc loop as
    an array, so the RK45 right-hand side and the tabulated stack agree
    to the bit (plain ``**`` on a float may differ by one ulp).
    """
    v_m = pattern.mid.v
    g = model.gamma
    return pattern.sigma ** 2 * (v - v_m) + np.power(v, -g) - np.power(v_m, -g)


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


def _manifold_gap(xi, xi0, dv0, lam, c2):
    """dv at xi on the solution of dv' = lam dv + c2 dv^2 through (xi0, dv0),
    in closed form (a Bernoulli equation), to full relative precision."""
    e = np.exp(lam * (xi - xi0))
    return dv0 * e / (1.0 + (c2 / lam) * dv0 * (1.0 - e))


@dataclass
class ShockProfile:
    """Tabulated monotone traveling wave with derivatives and tail metadata."""

    xi: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    vp: np.ndarray = field(repr=False)
    vpp: np.ndarray = field(repr=False)
    sigma: float
    v_m: float
    v_plus: float
    u_m: float
    tail_rate: float
    growth_rate: float
    manifold_c2: float
    xi_switch: float
    model: GasModel
    pattern: WavePattern = field(repr=False)

    def __post_init__(self):
        self._spline = CubicHermiteSpline(self.xi, self.v, self.vp)
        # v' interpolates the tabulated (v', v''): it is C^1, so the stack's
        # derivatives have no kinks at the knots
        self._dspline = CubicHermiteSpline(self.xi, self.vp, self.vpp)

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

        From ``xi_switch`` on, v and v' are the splines of the tabulated
        (v, v') and (v', v'').  In the analytic left tail, below
        ``xi_switch``, they are v_m + dv and q(dv), and no spline is
        evaluated.
        """
        xi = np.asarray(xi, dtype=float)
        body = (xi >= self.xi_switch) & (xi <= self.xi[-1])
        tail, dv, q, _, _ = self._tail(xi)
        v = np.where(xi < self.xi_switch, self.v_m, self.v_plus)
        vp = np.zeros_like(v)
        v[body] = self._spline(xi[body])
        vp[body] = self._dspline(xi[body])
        v[tail] = self.v_m + dv
        vp[tail] = q
        return v, vp

    def self_residual(self) -> float:
        """Max residual over the table, with v'' from a fourth-order
        difference of the tabulated v' (independent of the algebraic
        closure used during the solve)."""
        xi, v, q = self.xi, self.v, self.vp
        n = len(xi)
        if n < 7:
            return 0.0
        # interior five-point stencil on the (mildly) nonuniform grid is
        # avoided by sampling: the grid is uniform away from the raw
        # integrator knots, so restrict to the centers i of uniformly spaced
        # runs xi[i - 2 .. i + 2]; row j of the window holds h[j .. j + 3]
        h = np.diff(xi)
        hs = np.lib.stride_tricks.sliding_window_view(h, 4)
        uniform = np.max(np.abs(hs - hs[:, :1]), axis=1) <= 1e-9 * hs[:, 0]
        i = np.flatnonzero(uniform) + 2
        dq = (q[i - 2] - 8.0 * q[i - 1] + 8.0 * q[i + 1] - q[i + 2]) / (12.0 * h[i - 2])
        r = profile_residual(v[i], q[i], dq, self.pattern, self.model)
        return float(np.max(np.abs(r), initial=0.0))


def solve_profile(pattern: WavePattern, model: GasModel) -> ShockProfile:
    """Compute the traveling-wave table for the fast shock of ``pattern``."""
    delta_S = pattern.delta_S
    if delta_S < DEGENERATE_STRENGTH:
        raise ProfileError("degenerate shock strength: equal end states admit no profile")
    v_m, v_p = pattern.mid.v, pattern.right.v
    sigma = pattern.sigma

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
    y0 = np.array([v_m + d0, _manifold(d0, lam_plus, c2)[0]])
    # stop while the slope is still far above the integrator noise floor,
    # then close the last stretch with the linearized node flow
    gap_stop = max(TAIL_CUT, 1000.0 * ATOL)
    span = 3.0 * (np.log((v_p - v_m) / d0) / lam_plus
                  + np.log((v_p - v_m) / TAIL_CUT) / abs(nu_slow)) + 100.0

    def rhs(_, y):
        # scalar check: thermo's array validation would cost more than the closure
        v, q = float(y[0]), float(y[1])
        if not thermo.VOLUME_FLOOR < v < np.inf:
            raise DomainError(f"profile solve left the volume domain (v = {v!r})")
        return [q, float(_accel(v, q, pattern, model))]

    def ev_mid(_, y):
        return y[0] - 0.5 * (v_m + v_p)
    ev_mid.direction = 1.0

    def ev_arrive(_, y):
        return y[0] - (v_p - gap_stop)
    ev_arrive.terminal = True
    ev_arrive.direction = 1.0

    def ev_turn(_, y):
        return y[1]
    ev_turn.terminal = True
    ev_turn.direction = -1.0

    sol = solve_ivp(rhs, (0.0, span), y0, method="RK45", rtol=RTOL, atol=ATOL,
                    events=(ev_mid, ev_arrive, ev_turn), dense_output=True)
    if sol.t_events[2].size:
        raise MonotonicityError("monotonicity violated: profile slope crossed zero before arrival")
    if not sol.t_events[1].size:
        raise ProfileError(
            f"profile solve failed: right state not reached within span {span:.1f} "
            f"(final v = {sol.y[0, -1]:.6g}, bracket [{v_m:.6g}, {v_p:.6g}])")
    xi_mid = float(sol.t_events[0][0])
    xi_end = float(sol.t_events[1][0])

    h = min(0.1, 0.01 / delta_S)
    knots = sol.t[(sol.t > 0.0) & (sol.t < xi_end)]
    base = np.concatenate([[0.0], knots, [xi_end]])
    pieces = [np.array([0.0])]
    for aL, aR in zip(base[:-1], base[1:]):
        k = max(1, int(np.ceil((aR - aL) / h)))
        pieces.append(np.linspace(aL, aR, k + 1)[1:])
    grid = np.concatenate(pieces)
    vq = sol.sol(grid)
    v, q = vq[0], vq[1]
    xi = grid - xi_mid

    # tabulate the analytic left tail and extend the right one with the
    # linearized node flow, both down to the cut level
    xi_switch = float(xi[0])
    n_ext = int(np.ceil(np.log(d0 / TAIL_CUT) / lam_plus / h))
    xi_ext = xi_switch - h * np.arange(n_ext, 0, -1)
    dv_ext = _manifold_gap(xi_ext, xi_switch, d0, lam_plus, c2)
    xi = np.concatenate([xi_ext, xi])
    v = np.concatenate([v_m + dv_ext, v])
    q = np.concatenate([_manifold(dv_ext, lam_plus, c2)[0], q])
    d_last = v_p - v[-1]
    if d_last > TAIL_CUT:
        n_ext = int(np.ceil(np.log(d_last / TAIL_CUT) / abs(nu_slow) / h))
        xi_ext = xi[-1] + h * np.arange(1, n_ext + 1)
        dv_ext = d_last * np.exp(nu_slow * (xi_ext - xi[-1]))
        xi = np.concatenate([xi, xi_ext])
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

    prof = ShockProfile(xi=xi, v=v, vp=q, vpp=vpp, sigma=sigma,
                        v_m=v_m, v_plus=v_p, u_m=pattern.mid.u, tail_rate=tail_rate,
                        growth_rate=float(lam_plus), manifold_c2=float(c2),
                        xi_switch=xi_switch, model=model, pattern=pattern)

    if abs(float(prof._spline(0.0)) - 0.5 * (v_m + v_p)) > 1e-10:
        raise ProfileError("profile normalization failed: midpoint not at xi = 0")
    if abs(v[0] - v_m) > 1e-10 or abs(v[-1] - v_p) > 1e-10:
        raise ProfileError("profile tails did not reach the far-field states")
    res = prof.self_residual()
    if res > RESIDUAL_TOL:
        raise ProfileError(f"profile residual {res:.3g} exceeds tolerance {RESIDUAL_TOL:.3g}")
    return prof


def eval_profile(profile: ShockProfile, xi) -> dict:
    """Profile fields at xi: volume/velocity/auxiliary stacks.

    v and v' come from ``ShockProfile.volume``.  From the switch on, v''
    is the residual equation solved for it (differentiated once for
    v'''), so the derivatives satisfy the traveling-wave system to the
    accuracy of the table itself.  In the analytic left tail,
    v'' = q' q and v''' = (q'' q + q'^2) q from the same manifold
    expansion q(dv) that gives ``volume`` its v' there.  Beyond the table
    the far-field constants are returned with zero derivatives.
    """
    xi = np.asarray(xi, dtype=float)
    p = profile.pattern
    model = profile.model
    b = model.beta
    v, vx = profile.volume(xi)
    inside = (xi >= profile.xi_lo) & (xi <= profile.xi_hi)
    vxx = np.where(inside, _accel(v, vx, p, model), 0.0)
    gv, gq = _accel_grad(v, vx, p, model)
    vxxx = np.where(inside, gv * vx + gq * vxx, 0.0)
    tail, _, q, dq, ddq = profile._tail(xi)
    vxx[tail] = dq * q
    vxxx[tail] = (ddq * q + dq * dq) * q

    u = profile.u_m - profile.sigma * (v - profile.v_m)
    ux = -profile.sigma * vx
    gcap = v ** (-0.5 * (b + 5.0))
    w = -vx * gcap
    wx = -vxx * gcap + 0.5 * (b + 5.0) * vx * vx * v ** (-0.5 * (b + 7.0))
    return {"v": v, "vx": vx, "vxx": vxx, "vxxx": vxxx,
            "u": u, "ux": ux, "uxx": -profile.sigma * vxx,
            "w": w, "wx": wx}
