"""Viscous-dispersive traveling-wave profile of the fast shock family.

The profile solves the momentum equation integrated once from the left
far field, with the mass equation eliminating velocity (u' = -sigma v').
In the (v, v') phase plane the left end state is a saddle and the right
end state a stable node for weak shocks; the profile is the saddle's
unstable manifold.  We shoot along the unstable eigenvector with a
high-order adaptive integrator, translate so the midpoint volume sits at
xi = 0, and extend the left tail with the linearized flow so both table
ends reach the far-field states to 1e-12.
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
    model: GasModel
    pattern: WavePattern = field(repr=False)

    def __post_init__(self):
        self._spline = CubicHermiteSpline(self.xi, self.v, self.vp)
        self._dspline = self._spline.derivative()

    @property
    def xi_lo(self) -> float:
        return float(self.xi[0])

    @property
    def xi_hi(self) -> float:
        return float(self.xi[-1])

    def volume(self, xi):
        """v and v' at arbitrary xi (end-state constants beyond the table)."""
        xi = np.asarray(xi, dtype=float)
        inside = (xi >= self.xi[0]) & (xi <= self.xi[-1])
        xin = np.where(inside, xi, self.xi[0])
        v = np.where(inside, self._spline(xin), np.where(xi < self.xi[0], self.v_m, self.v_plus))
        vp = np.where(inside, self._dspline(xin), 0.0)
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
    A_p, B_p, disc_p = _saddle_rate(v_p, pattern, model)
    if disc_p <= 0.0:
        raise MonotonicityError(
            "monotonicity violated: right end state is a spiral "
            f"(discriminant {disc_p:.3g}); shock outside the weak-dispersion regime")
    nu_slow = 0.5 * (B_p + np.sqrt(disc_p))

    d0 = 1e-8 * delta_S
    y0 = np.array([v_m + d0, d0 * lam_plus])
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

    # extend both tails with the linearized saddle/node flows down to the cut level
    d_first = v[0] - v_m
    if d_first > TAIL_CUT:
        n_ext = int(np.ceil(np.log(d_first / TAIL_CUT) / lam_plus / h))
        xi_ext = xi[0] - h * np.arange(n_ext, 0, -1)
        dv_ext = d_first * np.exp(lam_plus * (xi_ext - xi[0]))
        xi = np.concatenate([xi_ext, xi])
        v = np.concatenate([v_m + dv_ext, v])
        q = np.concatenate([lam_plus * dv_ext, q])
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
                        growth_rate=float(lam_plus), model=model, pattern=pattern)

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

    Derivatives come from the tabulated slope and the residual equation
    solved for v'' (and differentiated once for v'''), so they satisfy the
    traveling-wave system to the accuracy of the table itself.  Beyond the
    table the far-field constants are returned with zero derivatives.
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

    u = profile.u_m - profile.sigma * (v - profile.v_m)
    ux = -profile.sigma * vx
    gcap = v ** (-0.5 * (b + 5.0))
    w = -vx * gcap
    wx = -vxx * gcap + 0.5 * (b + 5.0) * vx * vx * v ** (-0.5 * (b + 7.0))
    return {"v": v, "vx": vx, "vxx": vxx, "vxxx": vxxx,
            "u": u, "ux": ux, "uxx": -profile.sigma * vxx,
            "w": w, "wx": wx}
