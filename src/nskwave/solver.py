"""Method-of-lines integrator for the augmented three-field system.

The original momentum equation carries a third-order capillarity term;
evolving the auxiliary gradient variable w alongside (v, u) keeps the
spatial operator second order.  Space is discretized with central
differences: the viscous term is conservative with face-averaged
coefficients, the w-equation is the exact time derivative of the discrete
definition w = -g(v) D0 v on interior nodes, and the capillary momentum
term is its adjoint, so the pressure and capillary terms cancel in the
semi-discrete energy balance.

Time is the additive Runge-Kutta pair ARK4(3)6L[2]SA (Kennedy & Carpenter,
Appl. Numer. Math. 44 (2003)), fourth order in six stages.  Its implicit
part f_I is the part of the right-hand side linear in (u, w) at the step's
frozen v; the explicit part f_E = f - f_I (the pressure and the change of
the coefficients), the shock shift and the boundary-flux integral of the
mass audit are evaluated at every stage, so the split is exact.  The step
bound is acoustic, dt <= cfl 2 dx / lambda_max.  The shift rate
integrates over the shock's support only, the nodes where its table
reaches: beyond it the integrand is exactly zero.

The intermediates of a stage live in grid-sized scratch that persists
across calls.  No scratch array is returned: ``spatial_rhs`` with
``out=None`` still returns a new array, and so does ``step`` for the new
state.
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
                          mass_defect, sup_norms, weighted_relative_entropy)
from .errors import CflError, ConfigError, SolverError, VacuumError, check
from .fd import _first_derivative_into, first_derivative
from .rarefaction import RarefactionWave
from .shockprofile import solve_profile
from .thermo import GasModel, pressure

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
    """The fields at time t, the shift X and the boundary-flux integral,
    and nothing else: ``step`` evaluates whatever else it needs at t."""

    v: np.ndarray
    u: np.ndarray
    w: np.ndarray
    t: float = 0.0
    X: float = 0.0
    #: integral of the boundary flux since t = 0, the mass that left the interior
    flux: float = 0.0


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
    return SimState(v=np.asarray(v0, float), u=np.asarray(u0, float), w=w0, t=0.0, X=0.0)


# -- scratch -------------------------------------------------------------------

class _Scratch:
    """Work arrays of one grid size that persist across calls.

    The seven rows of ``work`` hold the intermediates of ``_rhs_arrays``
    and of ``_shift_rate``, which never run at the same time, and
    ``index`` the shift rate's table intervals; ``_step_core`` keeps its
    stage fields in ``stage``, each stage's right-hand side in ``F`` and
    its implicit (u, w) part in ``G``.  No scratch array is ever returned
    to a caller.
    """

    def __init__(self, n: int):
        self.n = n
        self.work = np.empty((7, n))
        self.index = np.empty(n, np.intp)
        self.stage = np.empty((3, n))
        self.F = np.empty((6, 3, n))
        self.G = np.empty((6, 2, n))


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


def _max_wave_speed(v, model: GasModel) -> float:
    """Largest characteristic speed sqrt(-p'(v)) over the grid, taken at
    the smallest volume."""
    v_min = float(np.min(v))
    if v_min < VACUUM_FLOOR:
        raise VacuumError(f"volume fell below the vacuum floor {VACUUM_FLOOR}")
    g = model.gamma
    return float(np.sqrt(g) * v_min ** (-0.5 * (g + 1.0)))


def parabolic_dt(state: SimState, grid: Grid, model: GasModel, cfl: float) -> float:
    """The step bound cfl 2 dx / lambda_max.

    The viscous and capillary terms are implicit, so only the acoustic
    waves bound the step: at cfl = 0.5 their largest |lambda dt| is 1, a
    quarter of the explicit tableau's imaginary-axis limit (about 4.0), and
    the frozen-coefficient scheme stays stable up to cfl = 2.5.  The name
    predates the implicit stepper; it is kept because the benchmark's
    tracer patches it by name.
    """
    return cfl * 2.0 * grid.dx / _max_wave_speed(state.v, model)


# -- shift dynamics ----------------------------------------------------------


def _shift_rate(t, X, u, grid: Grid, composite: CompositeWave, fan_u):
    """Instantaneous shift rate of the shock location.

    Weighted projection of the velocity perturbation onto the shock
    gradient: -M/delta_S times the integral of a psi (uS' + p'(vS) vS' /
    sigma), with the weight a of ``entropy_weight`` and psi = u - ubar;
    identically zero for u = ubar and zero for degenerate shock strength.
    Beyond the shock's span [xi_lo, xi_hi] vS' is exactly zero, and so is
    the integrand, so it is evaluated on the nodes of the span only and summed
    with the trapezoid weights of the whole grid.  Those nodes are one
    increasing slice of the grid, so ``ShockProfile.volume_sorted`` gives
    the shock on it region by region, with ``volume``'s values.  ``fan_u``
    is the fan's u at t on the grid, sliced here to the support.
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
    profile.volume_sorted(xi, scratch.work[1:3, :m], scratch.work[3:5, :m], scratch.index[:m])
    mid, sigma, g = pattern.mid, pattern.sigma, composite.model.gamma
    np.subtract(v, mid.v, out=uS)
    uS *= sigma
    np.subtract(mid.u, uS, out=uS)
    np.multiply(vx, -sigma, out=ux)
    # the weight 1 + (u_m - uS) / sqrt(delta_S) and psi = u - (uS + (uR - u_m))
    np.subtract(mid.u, uS, out=a)
    a /= np.sqrt(pattern.delta_S)
    a += 1.0
    np.subtract(fan_u[part], mid.u, out=psi)
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


# -- the implicit (u, w) block -------------------------------------------------

#: ARK4(3)6L[2]SA: the stage times, the explicit tableau, and the ESDIRK
#: tableau with diagonal ARK_GAMMA whose last row is the weights both share
ARK_C = np.array((0.0, 1 / 2, 83 / 250, 31 / 50, 17 / 20, 1.0))
ARK_GAMMA = 1 / 4
ARK_EXPLICIT = np.array((
    (0, 0, 0, 0, 0, 0), (1 / 2, 0, 0, 0, 0, 0), (13861 / 62500, 6889 / 62500, 0, 0, 0, 0),
    (-116923316275 / 2393684061468, -2731218467317 / 15368042101831,
     9408046702089 / 11113171139209, 0, 0, 0),
    (-451086348788 / 2902428689909, -2682348792572 / 7519795681897,
     12662868775082 / 11960479115383, 3355817975965 / 11060851509271, 0, 0),
    (647845179188 / 3216320057751, 73281519250 / 8382639484533,
     552539513391 / 3454668386233, 3354512671639 / 8306763924573, 4040 / 17871, 0)))
ARK_IMPLICIT = np.array((
    (0, 0, 0, 0, 0, 0), (1 / 4, 1 / 4, 0, 0, 0, 0), (8611 / 62500, -1743 / 31250, 1 / 4, 0, 0, 0),
    (5012029 / 34652500, -654441 / 2922500, 174375 / 388108, 1 / 4, 0, 0),
    (15267082809 / 155376265600, -71443401 / 120774400, 730878875 / 902184768,
     2285395 / 8070912, 1 / 4, 0),
    (82889 / 524892, 0, 15625 / 83664, 69875 / 102672, -2260 / 8211, 1 / 4)))
ARK_B = ARK_IMPLICIT[-1]


def _band_apply(band, x):
    """B x for a banded matrix B given as a dict offset d -> diagonal, whose
    entry i is B[i, i + d] and zero where i + d is off the grid."""
    n = x.size
    y = np.zeros(n)
    for d, diag in band.items():
        lo, hi = max(0, -d), n - max(0, d)
        y[lo:hi] += diag[lo:hi] * x[lo + d:hi + d]
    return y


def _band_product(a, b):
    """The product AB of two banded matrices in ``_band_apply``'s form,
    without its diagonals that are exactly zero."""
    n = next(iter(a.values())).size
    out = {}
    for da, ca in a.items():
        lo, hi = max(0, -da), n - max(0, da)
        for db, cb in b.items():
            out.setdefault(da + db, np.zeros(n))[lo:hi] += ca[lo:hi] * cb[lo + da:hi + da]
    return {d: diag for d, diag in out.items() if diag.any()}


def _implicit_operators(v, dx, model: GasModel):
    """The viscous-capillary block of ``_rhs_arrays`` at frozen v, as banded
    matrices: u_t = V u + K w - D0 p(v) and w_t = M u.  The rows of the two
    pinned boundary nodes are zero."""
    n, h = v.size, 0.5 / dx
    e = -0.5 * (model.beta + 5.0)
    cap = v ** e
    visc = v ** (-model.alpha - 1.0)
    inner = np.ones(n)
    inner[[0, -1]] = 0.0
    d0 = {-1: -h * inner, 1: h * inner}
    # the stencil of fd.first_derivative: central inside, one-sided at the ends
    d1 = {d: np.zeros(n) for d in (-2, -1, 0, 1, 2)}
    d1[-1][1:-1], d1[1][1:-1] = -h, h
    d1[0][0], d1[1][0], d1[2][0] = -3.0 * h, 4.0 * h, -h
    d1[0][-1], d1[-1][-1], d1[-2][-1] = 3.0 * h, -4.0 * h, h
    dcap_vx = e * cap / v * first_derivative(v, dx)
    # u_t: the faces' viscous fluxes and D0 (D1 (cap w) - cap'(v) v_x w)
    face = (visc[:-1] + visc[1:]) * (h / dx)
    up, down = np.zeros(n), np.zeros(n)
    up[1:-1], down[1:-1] = face[1:], face[:-1]
    V = {-1: down, 0: -(up + down), 1: up}
    q = _band_product(d1, {0: cap})
    q[0] -= dcap_vx
    K = _band_product(d0, q)
    # w_t = -(cap D0 + cap'(v) v_x) D0 u
    E = _band_product({0: -cap}, d0)
    E[0] = -dcap_vx
    M = _band_product(E, d0)
    return V, K, M


#: block count below which cyclic reduction stops and the rest is solved dense
DENSE_BLOCKS = 16


def _blocks_times(blocks, x):
    """Each block of ``blocks`` (4, c, m) times its column of x (c, m)."""
    return np.einsum("ijk,jk->ik", blocks, x)


def _pairs(x):
    """Each column of x (4, L) stacked on the next: (8, L - 1)."""
    return np.concatenate((x[:, :-1], x[:, 1:]))


def _soa(blocks):
    """Blocks (m, 4, 4) as a contiguous (4, 4, m) array, block index last."""
    return np.ascontiguousarray(blocks.transpose(1, 2, 0))


class _ImplicitStage:
    """The implicit stages of one step: (I - g L) z = y, with g = ARK_GAMMA dt
    and L (u, w) = (D0 u, V u + K w, M u) at the step's frozen v.

    v = y_v + g D0 u and w = y_w + g M u follow from u, which solves
    (I - g V - g^2 K M) u = y_u + g K y_w, of bandwidth 4: in blocks of 4
    nodes, A_k x_k-1 + B_k x_k + C_k x_k+1 = d_k, the last block padded
    with identity rows.  Block cyclic reduction factors it once: each level
    inverts the odd blocks and eliminates them from the even ones, down to
    DENSE_BLOCKS blocks, inverted dense.  [A | C] sit side by side, so one
    product serves both neighbours.
    """

    def __init__(self, v, dx, model: GasModel, g: float):
        self.v, self.dx, self.model, self.g, self.n = v, dx, model, g, v.size
        V, self.K, self.M = _implicit_operators(v, dx, model)
        S = _band_product(self.K, self.M)
        for diag in S.values():
            diag *= -g * g
        for d, diag in V.items():
            S[d] -= g * diag
        S[0] += 1.0
        m = self.m = -(-self.n // 4)
        # block row k holds rows 4k..4k+3: [A | C | B] on the columns
        # 4k-4..4k-1, 4k+4..4k+7 and 4k..4k+3, so row r of the block finds
        # column 4k + c at c + 4 (c < 0), c (c > 3) or c + 8
        Z = np.zeros((m, 4, 12))
        for d, diag in S.items():
            for r in range(4):
                c = r + d
                part = diag[r::4]
                Z[:part.size, r, c + 4 if c < 0 else c if c > 3 else c + 8] = part
        for i in range(self.n, 4 * m):
            Z[-1, i % 4, i % 4 + 8] = 1.0
        del S, V
        AC, B = Z[..., :8], Z[..., 8:]
        self.levels = []
        while len(B) > DENSE_BLOCKS:
            # x_odd = inv_odd d_odd - [P | Q] (x_left, x_right), with [P | Q]
            # padded by a zero block on each side, so that even block k reads
            # row k for its left neighbour and row k + 1 for its right one
            me, mo = (len(B) + 1) // 2, len(B) // 2
            inv_odd = np.linalg.inv(B[1::2])
            PQ = np.zeros((me + 1, 4, 8))
            np.matmul(inv_odd, AC[1::2], out=PQ[1:mo + 1])
            even = AC[0::2]
            self.levels.append((_soa(inv_odd), _soa(even), _soa(PQ[1:mo + 1])))
            left = even[..., :4] @ PQ[:-1]     # [A P | A Q] of the left neighbour
            right = even[..., 4:] @ PQ[1:]     # [C P | C Q] of the right one
            B = B[0::2] - left[..., 4:] - right[..., :4]
            left[..., 4:] = right[..., 4:]
            AC = np.negative(left, out=left)
        # the last few blocks, assembled dense and inverted
        k = np.arange(len(B))
        dense = np.zeros((len(B), 4, len(B), 4))
        dense[k, :, k, :] = B
        dense[k[1:], :, k[:-1], :] = AC[1:, :, :4]
        dense[k[:-1], :, k[1:], :] = AC[:-1, :, 4:]
        self.last = np.linalg.inv(dense.reshape(4 * len(B), 4 * len(B)))

    def at_start(self, f, out):
        """out = the (u, w) rows of L z at the step's start, from the
        right-hand side f there: ``_rhs_arrays`` is affine in (u, w), so they
        are f's less the pressure term -D0 p(v)."""
        out[:] = f[1:]
        p = pressure(self.v, self.model)
        out[0, 1:-1] += (p[2:] - p[:-2]) * (0.5 / self.dx)

    def _solve(self, rhs):
        """The u of (I - g V - g^2 K M) u = rhs."""
        d = np.zeros(4 * self.m)
        d[:self.n] = rhs
        d = d.reshape(self.m, 4).T
        sums = []
        for inv_odd, even, _ in self.levels:
            me, mo = even.shape[2], inv_odd.shape[2]
            odd = np.zeros((4, me + 1))
            odd[:, 1:mo + 1] = _blocks_times(inv_odd, d[:, 1::2])
            sums.append(odd)
            d = d[:, 0::2] - _blocks_times(even, _pairs(odd))
        x = (self.last @ d.T.reshape(-1)).reshape(-1, 4).T
        for (inv_odd, even, pq), odd in zip(reversed(self.levels), reversed(sums)):
            me, mo = even.shape[2], inv_odd.shape[2]
            # one zero column past the last even block when the level is even
            level = np.zeros((4, 2 * mo + 1))
            level[:, 0:2 * me:2] = x
            level[:, 1::2] = odd[:, 1:mo + 1] - _blocks_times(pq, _pairs(level[:, 0::2]))
            x = level[:, :me + mo]
        return x.T.reshape(-1)[:self.n]

    def solve(self, y, out):
        """Overwrite the rows (v, u, w) of y, the stage's explicit sum, with
        the stage's z, and write the (u, w) rows of L z into ``out``; the v
        row of L z is the right-hand side's."""
        y_v, y_u, y_w = y
        u = _band_apply(self.K, y_w)
        u *= self.g
        u += y_u
        u = self._solve(u)
        # the pinned nodes keep their values; the solve gives them to rounding
        u[[0, -1]] = y_u[[0, -1]]
        np.subtract(u, y_u, out=out[0])
        out[0] /= self.g
        out[1] = _band_apply(self.M, u)
        y_u[:] = u
        y_w += self.g * out[1]
        y_v[1:-1] += (u[2:] - u[:-2]) * (0.5 * self.g / self.dx)


# -- time stepping -------------------------------------------------------------


def _boundary_flux(u):
    """d/dt [dx * sum(v[1:-1])], to which the interior v_t telescopes."""
    return 0.5 * (u[-1] + u[-2] - u[0] - u[1])


def _step_core(state: SimState, grid: Grid, composite: CompositeWave,
               model: GasModel, scheme: SchemeConfig, dt: float,
               xdot0: float | None = None) -> SimState:
    """Advance (v, u, w, X) and the boundary-flux integral by one
    ARK4(3)6L[2]SA step; returns the new state, whose fields are rows of
    one new array.

    Stage i is U + dt sum_j (aE_ij F_j + (aI_ij - aE_ij) G_j) + g G_i, with
    F_j the right-hand side at stage j and G_j its implicit (u, w) part; v_t
    is all implicit, so v's row takes aI_ij F_j.  The new state is
    U + dt sum_j b_j F_j.  With the shift on, one order-0 call evaluates
    the fan's u at the stage times t + c_i dt; ``xdot0``, the shift rate at
    the state when the caller has it, stands for the first stage's.
    """
    bound = scheme.cfl * 2.0 * grid.dx / _max_wave_speed(state.v, model)
    if dt > bound * (1.0 + 1e-9):
        raise CflError(f"dt = {dt:.3e} violates the acoustic bound {bound:.3e}")

    implicit = _ImplicitStage(state.v, grid.dx, model, ARK_GAMMA * dt)
    shift_on = scheme.shift and composite.pattern.has_shock
    t, X = state.t, state.X
    scratch = _scratch(grid.n)
    F, G, stage = scratch.F, scratch.G, scratch.stage
    U = np.stack((state.v, state.u, state.w))
    times = t + ARK_C * dt
    first = 0 if xdot0 is None else 1
    if shift_on:
        fan_u = composite.rarefaction.eval(times[first:, None],
                                           np.broadcast_to(grid.x, (6 - first, grid.n)),
                                           order=0)["u"]

    xdot, flux = np.zeros(6), np.zeros(6)
    for i in range(6):
        rows = U if i == 0 else stage
        if i:
            np.matmul(dt * ARK_EXPLICIT[i, :i], F[:i].reshape(i, -1), out=stage.reshape(-1))
            np.matmul(dt * ARK_IMPLICIT[i, :i], F[:i, 0], out=stage[0])
            stage[1:] += ((dt * (ARK_IMPLICIT[i, :i] - ARK_EXPLICIT[i, :i]))
                          @ G[:i].reshape(i, -1)).reshape(2, grid.n)
            stage += U
            implicit.solve(stage, out=G[i])
        _rhs_arrays(*rows, grid.dx, model, out=F[i])
        if i == 0:
            implicit.at_start(F[0], out=G[0])
        if shift_on:
            xdot[i] = (xdot0 if i < first else
                       _shift_rate(times[i], X + dt * (ARK_EXPLICIT[i, :i] @ xdot[:i]),
                                   rows[1], grid, composite, fan_u[i - first]))
        flux[i] = _boundary_flux(rows[1])

    new = U.reshape(-1) + (dt * ARK_B) @ F.reshape(6, -1)
    if not np.isfinite(new).all():
        raise SolverError(f"non-finite field at t = {t + dt:.6g}; aborting")
    v, u, w = new.reshape(3, grid.n)
    return SimState(v=v, u=u, w=w, t=t + dt, X=float(X + dt * (ARK_B @ xdot)),
                    flux=float(state.flux + dt * (ARK_B @ flux)))


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
        nonlocal a_min, a_max, ceiling_hit, xdot
        bar = composite.eval_bar(state.t, grid.x, state.X)
        # the rate the stages integrate, from this record's own fan, whose u
        # is the order-0 fan's to the bit: the next step's first stage reuses it
        xdot = (_shift_rate(state.t, state.X, state.u, grid, composite, bar["fan"]["u"])
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
    xdot = None  # the shift rate at the current state, once a record has it
    snapshot(record())
    try:
        while state.t < scheme.t_end - 1e-12:
            dt = min(parabolic_dt(state, grid, model, scheme.cfl),
                     scheme.t_end - state.t)
            state = _step_core(state, grid, composite, model, scheme, dt, xdot)
            xdot = None
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


def _hermite(t, X, Xdot, s):
    """X at time s, from the cubic Hermite interpolant of the records' X and
    its rate Xdot on the records' interval around s.  Records are steps
    apart, so the nearest record may lie far from s."""
    k = int(np.clip(np.searchsorted(t, s) - 1, 0, t.size - 2))
    h = t[k + 1] - t[k]
    r = (s - t[k]) / h
    return ((1.0 + 2.0 * r) * (1.0 - r) ** 2 * X[k] + r * (1.0 - r) ** 2 * h * Xdot[k]
            + r * r * (3.0 - 2.0 * r) * X[k + 1] - r * r * (1.0 - r) * h * Xdot[k + 1])


def _decay_ratios(t, X, Xdot, sup, eta, t_end) -> dict:
    """Clauses of the stability check from the record series t, X, Xdot and
    the (initial, final) pairs of the sup-norm and the weighted entropy."""
    t, X, Xdot = (np.asarray(a, dtype=float) for a in (t, X, Xdot))
    t_quarter = t_end / 4.0
    early = np.abs(Xdot[t <= t_quarter])
    late = np.abs(Xdot[t >= 3.0 * t_quarter])
    x_rate_quarter = float(abs(_hermite(t, X, Xdot, t_quarter)) / t_quarter)
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
        w1inf, linf = sup_norms((p.v - p.vbar) - (q.v - q.vbar),
                                (p.u - p.ubar) - (q.u - q.ubar), dx)
        return w1inf + linf, weighted_relative_entropy(p.a, p.v, q.v, p.u - q.u, p.w - q.w,
                                                       dx, model)

    (sup0, eta0), (supT, etaT) = (sup_and_eta(perturbed.snapshots[i], twin.snapshots[i])
                                  for i in (0, -1))
    return _decay_ratios(
        t, [p.X - q.X for p, q in zip(perturbed.records, twin.records)],
        [p.Xdot - q.Xdot for p, q in zip(perturbed.records, twin.records)],
        (sup0, supT), (eta0, etaT), t[-1])
