"""Method-of-lines integrator for the augmented three-field system.

The original momentum equation carries a third-order capillarity term;
evolving the auxiliary gradient variable w alongside (v, u) keeps the
spatial operator second order.  Space is discretized with central
differences: the viscous term is conservative with face-averaged
coefficients, the w-equation is the exact time derivative of the discrete
definition w = -g(v) D0 v on interior nodes, and the capillary momentum
term is its adjoint, so the pressure and capillary terms cancel in the
semi-discrete energy balance.  Time is classical four-stage Runge-Kutta
under a parabolic CFL bound, on a stacked stage state: the fields, each
stage's tendency and their weighted sum are (3, n) arrays, so every
Runge-Kutta combination is one array operation.  The shock shift,
re-evaluated at every stage, and the boundary-flux integral of the mass
audit ride along as two extra scalars.  The shift rate integrates over
the shock's support only, the nodes where its table reaches: beyond it
the integrand is exactly zero.

The intermediates of a stage (the right-hand side's, the shift rate's,
the stage fields and the stage sums) live in grid-sized scratch that
persists across calls, so a stage allocates no grid-sized temporaries.
No scratch array is returned: ``spatial_rhs`` with ``out=None`` still
returns a new array, and so does ``step`` for the new state and its fan.
The solver is single-threaded, and its scratch must not be shared across
threads, so each thread gets scratch of its own.
"""
from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .composite import CompositeWave
from .diagnostics import (DiagnosticsRecord, collect_record, discrete_gradient_w,
                          mass_defect, relative_entropy_density)
from .errors import CflError, ConfigError, SolverError, VacuumError, check
from .fd import _first_derivative_into, first_derivative
from .rarefaction import RarefactionWave
from .shockprofile import solve_profile
from .thermo import GasModel

log = logging.getLogger(__name__)

#: smallest volume the spatial operator and the step bound accept
VACUUM_FLOOR = 1e-6
#: constraint defect above which a run logs a warning (once)
CONSTRAINT_CEILING = 1e-4
#: largest perturbation amplitude a Perturbation accepts
AMPLITUDE_CAP = 0.1


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    n: int

    def __post_init__(self):
        check(ConfigError, [(self.x_lo < self.x_hi, "x_lo < x_hi is required"),
                            (self.n >= 16, "n must be at least 16")])

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n)

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n - 1)


@dataclass(frozen=True)
class Perturbation:
    kind: str = "none"
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0
    field: str = "both"

    def __post_init__(self):
        check(ConfigError, [
            (self.kind in ("none", "gaussian"), f"kind {self.kind!r} is not 'none' or 'gaussian'"),
            (self.field in ("v", "u", "both"), f"field {self.field!r} is not 'v', 'u' or 'both'"),
            (self.width > 0.0, "width must be positive"),
            (abs(self.amplitude) <= AMPLITUDE_CAP,
             f"amplitude {self.amplitude} exceeds the cap {AMPLITUDE_CAP}")])

    def profile(self, x):
        if self.kind == "none" or self.amplitude == 0.0:
            return np.zeros_like(x)
        return self.amplitude * np.exp(-((x - self.center) ** 2) / (2.0 * self.width ** 2))


@dataclass(frozen=True)
class SchemeConfig:
    t_end: float
    cfl: float = 0.4
    output_stride: int = 50
    shift: bool = True

    def __post_init__(self):
        check(ConfigError, [(0.0 < self.cfl <= 0.5, "cfl must lie in (0, 0.5]"),
                            (self.t_end > 0.0, "t_end must be positive"),
                            (self.output_stride >= 1, "output_stride must be at least 1")])


@dataclass
class SimState:
    v: np.ndarray
    u: np.ndarray
    w: np.ndarray
    t: float = 0.0
    X: float = 0.0
    #: integral of the boundary flux since t = 0, the mass that left the interior
    flux: float = 0.0
    #: the fan's stack at t on the grid; None when the shift is off or the
    #: state was built by hand, and ``step`` evaluates it then if it needs it
    fan: dict | None = None


@dataclass
class Snapshot:
    t: float
    x: np.ndarray
    v: np.ndarray
    u: np.ndarray
    w: np.ndarray
    vbar: np.ndarray
    ubar: np.ndarray
    wbar: np.ndarray
    a: np.ndarray


@dataclass
class RunResult:
    records: list
    snapshots: list
    summary: dict
    final_state: SimState


def initial_data(grid: Grid, composite: CompositeWave, perturbation: Perturbation) -> SimState:
    """Composite wave at t = 0 plus optional bumps, with w set
    constraint-consistently from the discrete gradient of the perturbed volume."""
    bar = composite.eval_bar(0.0, grid.x, 0.0)
    bump = perturbation.profile(grid.x)
    v0 = bar["v"] + (bump if perturbation.field in ("v", "both") else 0.0)
    u0 = bar["u"] + (bump if perturbation.field in ("u", "both") else 0.0)
    if np.any(v0 <= 0.0):
        raise ConfigError("perturbed initial volume is not positive")
    w0 = discrete_gradient_w(v0, grid.dx, composite.model)
    return SimState(v=np.asarray(v0, float), u=np.asarray(u0, float), w=w0, t=0.0, X=0.0,
                    fan=bar["fan"])


# -- scratch -------------------------------------------------------------------

class _Scratch:
    """Work arrays of one grid size that persist across calls.

    The seven rows of ``work`` hold the intermediates of ``_rhs_arrays``
    and of ``_shift_rate``, which never run at the same time, and
    ``index`` the shift rate's table intervals; ``_step_core`` keeps its
    stage fields and its stage sums in ``U``, ``k`` and ``k_sum``, each
    (3, n).  No scratch array is ever returned to a caller.
    """

    def __init__(self, n: int):
        self.n = n
        self.work = np.empty((7, n))
        self.U, self.k, self.k_sum = np.empty((3, 3, n))
        self.index = np.empty(n, np.intp)


_local = threading.local()


def _scratch(n: int) -> _Scratch:
    """This thread's scratch for n nodes.  It holds one grid size's buffers
    and is replaced when n changes; a thread of its own gets its own."""
    scratch = getattr(_local, "scratch", None)
    if scratch is None or scratch.n != n:
        scratch = _local.scratch = _Scratch(n)
    return scratch


# -- spatial operator ---------------------------------------------------------


def _rhs_arrays(v, u, w, dx, model: GasModel, out=None):
    """Semidiscrete tendencies (v_t, u_t, w_t), the rows of one (3, n)
    array: ``out`` when given, else a new array; boundary nodes are pinned.
    The intermediates are written into the scratch."""
    if v.min() < VACUUM_FLOOR:
        raise VacuumError(f"volume fell below the vacuum floor {VACUUM_FLOOR}")
    g, a, b = model.gamma, model.alpha, model.beta
    h = 0.5 / dx
    tmp, p, visc, cap, dcap_vx, visc_flux, q_minus_p = _scratch(v.size).work
    # the three powers of v from one logarithm: p, mu(v)/v and sqrt(kappa)/v^(5/2)
    e = -0.5 * (b + 5.0)
    log_v = np.log(v, out=tmp)
    for power, exponent in ((p, -g), (visc, -a - 1.0), (cap, e)):
        np.multiply(log_v, exponent, out=power)
        np.exp(power, out=power)
    _first_derivative_into(v, dx, dcap_vx)  # cap'(v) D0 v = e cap / v D0 v
    dcap_vx *= cap
    dcap_vx /= v
    dcap_vx *= e
    # dx times twice the viscous flux at the faces, (visc_i + visc_i+1)(u_i+1 - u_i)
    visc_flux = np.add(visc[:-1], visc[1:], out=visc_flux[:-1])
    visc_flux *= np.subtract(u[1:], u[:-1], out=tmp[:-1])

    if out is None:
        out = np.empty((3, v.size))
    out[:, 0] = out[:, -1] = 0.0
    vt, ut, wt = out
    np.subtract(u[2:], u[:-2], out=vt[1:-1])
    vt[1:-1] *= h
    # w_t is the exact time derivative of discrete_gradient_w = -cap(v) D0 v on
    # interior nodes; the capillary momentum term D0 q is its adjoint, so the
    # two cancel in the discrete energy balance
    wti = wt[1:-1]
    np.subtract(vt[2:], vt[:-2], out=wti)
    wti *= cap[1:-1]
    wti *= h
    wti += np.multiply(dcap_vx[1:-1], vt[1:-1], out=tmp[1:-1])
    np.negative(wti, out=wti)
    _first_derivative_into(np.multiply(cap, w, out=tmp), dx, q_minus_p)
    q_minus_p -= np.multiply(dcap_vx, w, out=tmp)
    q_minus_p -= p
    uti = ut[1:-1]
    np.subtract(q_minus_p[2:], q_minus_p[:-2], out=uti)
    uti *= h
    flux_diff = np.subtract(visc_flux[1:], visc_flux[:-1], out=tmp[:-2])
    flux_diff *= h / dx
    uti += flux_diff
    return out


spatial_rhs = _rhs_arrays


def _parabolic_coefficient(v, model: GasModel) -> float:
    """Largest diffusion coefficient nu of the viscous and capillary terms,
    which sets the parabolic step bound dt <= cfl dx^2 / nu.

    Both coefficients are powers of v, monotone in v, so their largest
    value over the grid is taken at its smallest or its largest volume.
    """
    ends = np.array([[np.min(v)], [np.max(v)]])
    return float(np.max(ends ** [-model.alpha - 1.0, -0.5 * (model.beta + 5.0)]))


def parabolic_dt(state: SimState, grid: Grid, model: GasModel, cfl: float) -> float:
    """Stable step from the parabolic bound, with an advective guard for
    very coarse grids."""
    if np.min(state.v) < VACUUM_FLOOR:
        raise VacuumError(f"volume fell below the vacuum floor {VACUUM_FLOOR}")
    g = model.gamma
    nu = _parabolic_coefficient(state.v, model)
    lam = float(np.sqrt(g) * np.min(state.v) ** (-0.5 * (g + 1.0)))
    return cfl * min(grid.dx ** 2 / nu, 2.0 * grid.dx / lam)


# -- shift dynamics ----------------------------------------------------------


def _shift_rate(t, X, u, grid: Grid, composite: CompositeWave, fan):
    """Instantaneous shift rate of the shock location.

    Weighted projection of the velocity perturbation onto the shock
    gradient: -M/delta_S times the integral of a psi (uS' + p'(vS) vS' /
    sigma), with the weight a of ``entropy_weight`` and psi = u - ubar;
    identically zero for u = ubar and zero for degenerate shock strength.
    Beyond the shock's table vS' is exactly zero, and so is the integrand,
    so it is evaluated on the nodes of the table's support only and summed
    with the trapezoid weights of the whole grid.  Those nodes are one
    increasing slice of the grid, so ``ShockProfile.volume_sorted`` gives
    the shock on it region by region, with ``volume``'s values.  ``fan``
    is the fan's stack at t on the grid; its u is sliced to the support.
    Every intermediate is written into the scratch.
    """
    pattern, profile, x = composite.pattern, composite.profile, grid.x
    if not pattern.has_shock:
        return 0.0
    # the nodes with x - sigma t - X in [xi_lo, xi_hi], and one more on each
    # side against rounding
    c = pattern.sigma * t + X
    i0 = max(int(x.searchsorted(c + profile.xi_lo)) - 1, 0)
    i1 = min(int(x.searchsorted(c + profile.xi_hi, side="right")) + 1, x.size)
    if i0 >= i1:
        return 0.0
    part, m = slice(i0, i1), i1 - i0
    scratch = _scratch(x.size)
    uS, v, vx, ux, a, psi, factor = scratch.work[:, :m]
    # the shock's order-1 stack: v and vx at xi = x - sigma t - X (in uS's
    # row until uS is formed), then uS = u_m - sigma (v - v_m) and ux = -sigma vx
    xi = np.subtract(x[part], pattern.sigma * t, out=uS)
    xi -= X
    profile.volume_sorted(xi, v, vx, scratch.work[3:5, :m], scratch.index[:m])
    mid, sigma, g = pattern.mid, pattern.sigma, composite.model.gamma
    np.subtract(v, mid.v, out=uS)
    uS *= sigma
    np.subtract(mid.u, uS, out=uS)
    np.multiply(vx, -sigma, out=ux)
    # the weight 1 + (u_m - uS) / sqrt(delta_S) and psi = u - (uS + (uR - u_m))
    np.subtract(mid.u, uS, out=a)
    a /= np.sqrt(pattern.delta_S)
    a += 1.0
    np.subtract(fan["u"][part], mid.u, out=psi)
    psi += uS
    np.subtract(u[part], psi, out=psi)
    # ux + p'(v) vx / sigma, with p'(v) = -gamma v^(-gamma - 1) of volumes
    # from the profile table, which need no validation
    np.power(v, -g - 1.0, out=factor)
    factor *= -g
    factor *= vx
    factor /= sigma
    factor += ux
    y = np.multiply(a, psi, out=a)
    y *= factor
    # the trapezoid halves the weight of the grid's end nodes only
    total = y.sum() - 0.5 * ((y[0] if i0 == 0 else 0.0) + (y[-1] if i1 == x.size else 0.0))
    return -pattern.M / pattern.delta_S * float(total * grid.dx)


# -- time stepping -------------------------------------------------------------


def _boundary_flux(u):
    """d/dt [dx * sum(v[1:-1])], to which the interior v_t telescopes."""
    return 0.5 * (u[-1] + u[-2] - u[0] - u[1])


def _step_core(state: SimState, grid: Grid, composite: CompositeWave,
               model: GasModel, scheme: SchemeConfig, dt: float) -> SimState:
    """Advance (v, u, w, X) and the boundary-flux integral by one classical
    Runge-Kutta step; returns the new state.

    The fields are the rows of one (3, n) array, and so are each stage's
    tendency k, its fields and the weighted sum k1 + 2 k2 + 2 k3 + k4, so
    each Runge-Kutta combination is one array operation.  The fields, k
    and the sum live in the scratch; the new state's v, u and w are rows
    of one new array.  With the shift on, the fan is
    evaluated once per step, at both new stage times in one call: k1
    takes ``state.fan`` (evaluated at t when the state has none), k2 and
    k3 share the stack at t + dt/2, and the stack at t + dt drives k4 and
    becomes the new state's ``fan``.
    """
    nu = _parabolic_coefficient(state.v, model)
    if dt > scheme.cfl * grid.dx ** 2 / nu * (1.0 + 1e-9):
        raise CflError(
            f"dt = {dt:.3e} violates the parabolic bound "
            f"{scheme.cfl * grid.dx ** 2 / nu:.3e}")

    shift_on = scheme.shift and composite.pattern.has_shock
    t, X = state.t, state.X
    scratch = _scratch(grid.n)
    U, k, k_sum = scratch.U, scratch.k, scratch.k_sum
    U[0], U[1], U[2] = state.v, state.u, state.w
    # the stages' fields, and at the end the new state's: a new array
    stage = np.empty_like(U)
    fan_start = fan_half = fan_end = None
    if shift_on:
        fan_start = (state.fan if state.fan is not None
                     else composite.rarefaction.eval(t, grid.x, order=0))
        fans = composite.rarefaction.eval(np.array([[t + 0.5 * dt], [t + dt]]),
                                          np.broadcast_to(grid.x, (2, grid.n)), order=0)
        fan_half = {"v": fans["v"][0], "u": fans["u"][0]}
        # copied, so that the new state does not hold the half-step row too
        fan_end = {"v": fans["v"][1].copy(), "u": fans["u"][1].copy()}

    # stage i at time t + c dt; the next stage's fields are U + a dt k
    xdot, flux = [0.0] * 4, [0.0] * 4
    rows, X_stage = U, X
    for i, (c, a, fan) in enumerate(zip((0.0, 0.5, 0.5, 1.0), (0.5, 0.5, 1.0, None),
                                        (fan_start, fan_half, fan_half, fan_end))):
        _rhs_arrays(*rows, grid.dx, model, out=k)
        if shift_on:
            xdot[i] = _shift_rate(t + c * dt, X_stage, rows[1], grid, composite, fan)
        flux[i] = _boundary_flux(rows[1])
        if a is not None:
            np.multiply(k, a * dt, out=stage)
            stage += U
            rows, X_stage = stage, X + a * dt * xdot[i]
        # the weighted sum, left to right: k1, + 2 k2, + 2 k3, + k4
        if i == 0:
            k, k_sum = k_sum, k
            continue
        if i < 3:
            k *= 2.0
        k_sum += k

    sixth = dt / 6.0
    k_sum *= sixth
    np.add(U, k_sum, out=stage)
    if not np.isfinite(stage).all():
        raise SolverError(f"non-finite field at t = {t + dt:.6g}; aborting")
    X_new = X + sixth * (xdot[0] + 2.0 * xdot[1] + 2.0 * xdot[2] + xdot[3])
    flux_new = state.flux + sixth * (flux[0] + 2.0 * flux[1] + 2.0 * flux[2] + flux[3])
    v, u, w = stage
    return SimState(v=v, u=u, w=w, t=t + dt, X=float(X_new), flux=float(flux_new),
                    fan=fan_end)


step = _step_core


# -- full runs ------------------------------------------------------------------


def build_composite(pattern, model: GasModel) -> CompositeWave:
    """Waves for a resolved pattern; degenerate strengths yield absent waves."""
    profile = solve_profile(pattern, model) if pattern.has_shock else None
    return CompositeWave(RarefactionWave(pattern, model), profile, pattern, model)


def _check_domain(grid: Grid, composite: CompositeWave, t_end: float):
    """Reject a domain on which a pinned boundary node would meet the waves.

    The ansatz must be saturated at both ends at t = 0 and at t_end, and the
    fan's support at t_end must lie inside the domain: the solution carries
    a diffusive tail beyond the tanh ansatz, so an ansatz that is saturated
    at a boundary is not enough.
    """
    pattern = composite.pattern
    for t in (0.0, t_end):
        bar = composite.eval_bar(t, np.array([grid.x_lo, grid.x_hi]), 0.0)
        err = max(abs(bar["v"][0] - pattern.left.v), abs(bar["v"][1] - pattern.right.v))
        if err > 1e-6:
            raise ConfigError(
                f"domain too small: composite wave differs from the far field by "
                f"{err:.2e} at a boundary (t = {t:g})")
    if not composite.rarefaction.degenerate:
        lo, hi = composite.rarefaction.support(t_end)
        if not (grid.x_lo <= lo and hi <= grid.x_hi):
            raise ConfigError(
                f"domain too small: the fan support [{lo:.1f}, {hi:.1f}] at "
                f"t = {t_end:g} leaves [{grid.x_lo:g}, {grid.x_hi:g}]")


def run(config) -> RunResult:
    """Integrate a full configuration and collect the diagnostic ledger.

    ``config`` is a RunConfig (see nskwave.config); each record's mass
    audit is ``diagnostics.mass_defect`` against the initial state.
    """
    model, grid, scheme = config.gas, config.grid, config.scheme
    pattern = config.build_pattern()
    composite = build_composite(pattern, model)
    _check_domain(grid, composite, scheme.t_end)

    if not pattern.has_shock:
        log.warning("shift disabled: degenerate shock strength")

    state = start = initial_data(grid, composite, config.perturbation)
    shift_on = scheme.shift and pattern.has_shock

    records: list[DiagnosticsRecord] = []
    snapshots: list[Snapshot] = []
    a_min, a_max = np.inf, -np.inf
    v_min_global = float(np.min(state.v))

    def record():
        """Append the record of the current state; returns its background,
        the one evaluation of the waves at this time."""
        nonlocal a_min, a_max, ceiling_hit
        bar = composite.eval_bar(state.t, grid.x, state.X)
        # the rate the stages integrate, from this record's own fan
        xdot = (_shift_rate(state.t, state.X, state.u, grid, composite, bar["fan"])
                if shift_on else 0.0)
        rec = collect_record(grid, state, bar, pattern, model, xdot,
                             mass_defect=mass_defect(state, start, grid))
        records.append(rec)
        a_min = min(a_min, float(np.min(bar["a"])))
        a_max = max(a_max, float(np.max(bar["a"])))
        if rec.constraint_defect > CONSTRAINT_CEILING and not ceiling_hit:
            ceiling_hit = True
            log.warning("constraint defect %.3e exceeded the ceiling %.1e at t = %.3g",
                        rec.constraint_defect, CONSTRAINT_CEILING, state.t)
        return bar

    def snapshot(bar):
        snapshots.append(Snapshot(t=state.t, x=grid.x.copy(), v=state.v.copy(),
                                  u=state.u.copy(), w=state.w.copy(),
                                  vbar=np.asarray(bar["v"]), ubar=np.asarray(bar["u"]),
                                  wbar=np.asarray(bar["w"]), a=np.asarray(bar["a"])))

    step_count = 0
    ceiling_hit = False
    snapshot(record())
    try:
        while state.t < scheme.t_end - 1e-12:
            dt = min(parabolic_dt(state, grid, model, scheme.cfl),
                     scheme.t_end - state.t)
            state = _step_core(state, grid, composite, model, scheme, dt)
            step_count += 1
            v_min_global = min(v_min_global, float(np.min(state.v)))
            # the last step always records, and its background is the final snapshot's
            if state.t >= scheme.t_end - 1e-12:
                snapshot(record())
            elif step_count % scheme.output_stride == 0:
                record()
    except Exception as exc:
        # attach whatever was collected so callers can flush partial output
        try:
            snapshot(composite.eval_bar(state.t, grid.x, state.X))
        except Exception:
            pass
        exc.partial = RunResult(records=records, snapshots=snapshots,
                                summary={}, final_state=state)
        raise

    summary = _summarize(records, step_count, scheme.t_end, a_min, a_max, v_min_global)
    return RunResult(records=records, snapshots=snapshots, summary=summary,
                     final_state=state)


def _decay_ratios(t, X, Xdot, sup, eta, t_end) -> dict:
    """Clauses of the stability check from the record series t, X, Xdot and
    the (initial, final) pairs of the sup-norm and the weighted entropy."""
    t, X, Xdot = (np.asarray(a, dtype=float) for a in (t, X, Xdot))
    t_quarter = t_end / 4.0
    early = np.abs(Xdot[t <= t_quarter])
    late = np.abs(Xdot[t >= 3.0 * t_quarter])
    iq = int(np.argmin(np.abs(t - t_quarter)))
    x_rate_quarter = float(abs(X[iq]) / max(t[iq], 1e-300))
    x_rate_final = float(abs(X[-1]) / max(t[-1], 1e-300))
    mean_early = float(np.mean(early)) if early.size else 0.0
    mean_late = float(np.mean(late)) if late.size else 0.0
    return {
        "sup_initial": sup[0],
        "sup_final": sup[1],
        "sup_ratio": sup[1] / sup[0] if sup[0] > 0 else 0.0,
        "xdot_mean_first_quarter": mean_early,
        "xdot_mean_last_quarter": mean_late,
        "xdot_quarter_ratio": mean_late / mean_early if mean_early > 0 else 0.0,
        "x_rate_quarter": x_rate_quarter,
        "x_rate_final": x_rate_final,
        "x_sublinearity_ratio": (x_rate_final / x_rate_quarter
                                 if x_rate_quarter > 0 else 0.0),
        "eta_initial": eta[0],
        "eta_final": eta[1],
        "eta_ratio": eta[1] / eta[0] if eta[0] > 0 else 0.0,
    }


def _summarize(records, steps, t_end, a_min, a_max, v_min_global) -> dict:
    first, last = records[0], records[-1]
    return {
        "steps": steps,
        **_decay_ratios([r.t for r in records], [r.X for r in records],
                        [r.Xdot for r in records],
                        (first.W1inf_phi + first.Linf_psi, last.W1inf_phi + last.Linf_psi),
                        (first.eta_weighted, last.eta_weighted), t_end),
        "a_min": a_min,
        "a_max": a_max,
        "constraint_max": max(r.constraint_defect for r in records),
        "mass_defect_max": max(r.mass_defect for r in records),
        "v_min": v_min_global,
    }


def response_summary(perturbed: RunResult, twin: RunResult, model: GasModel) -> dict:
    """Stability clauses evaluated on the response to the perturbation.

    ``twin`` is the same run without the perturbation.  The smoothed fan is
    not an exact NSK solution, so both runs drift from the composite ansatz
    by nearly the same amount; their difference isolates what the
    perturbation does.  The sup-norm is W1inf(phi_p - phi_u) + Linf(psi_p -
    psi_u) from the first and last snapshots, the shift clauses use X_p - X_u
    and Xdot_p - Xdot_u, and the entropy is the a_p-weighted integral of
    eta(U_p | U_u).  Both runs must have the same record times.
    """
    t = [r.t for r in perturbed.records]
    if t != [r.t for r in twin.records]:
        raise ValueError("perturbed run and twin have different record times")

    def sup_and_eta(p: Snapshot, q: Snapshot):
        dx = (p.x[-1] - p.x[0]) / (p.x.size - 1)
        dphi = (p.v - p.vbar) - (q.v - q.vbar)
        dpsi = (p.u - p.ubar) - (q.u - q.ubar)
        sup = (max(np.max(np.abs(dphi)), np.max(np.abs(first_derivative(dphi, dx))))
               + np.max(np.abs(dpsi)))
        eta = relative_entropy_density(p.v, p.u, p.w, q.v, q.u, q.w, model)
        return float(sup), float(np.trapezoid(p.a * eta, dx=dx))

    (sup0, eta0), (supT, etaT) = (sup_and_eta(perturbed.snapshots[i], twin.snapshots[i])
                                  for i in (0, -1))
    return _decay_ratios(
        t, [p.X - q.X for p, q in zip(perturbed.records, twin.records)],
        [p.Xdot - q.Xdot for p, q in zip(perturbed.records, twin.records)],
        (sup0, supT), (eta0, etaT), t[-1])
