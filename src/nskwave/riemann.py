"""Wave-curve algebra for the slow-rarefaction / fast-shock pattern.

The far-field states are joined through a unique intermediate state: the
left state sits on the integral curve of the slow characteristic field
through the intermediate state, and the intermediate state sits on the
Hugoniot curve of the right state.  ``solve_intermediate_state`` inverts
that construction; ``pattern_from_intermediate`` builds it forward.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import thermo
from .errors import DomainError, PatternError
from .thermo import GasModel

#: strengths below this are treated as an absent wave
DEGENERATE_STRENGTH = 1e-10

#: default admissibility cap on either wave strength
DEFAULT_STRENGTH_CAP = 0.25


@dataclass(frozen=True)
class EndState:
    v: float
    u: float

    def __post_init__(self):
        if not (np.isfinite(self.v) and np.isfinite(self.u)):
            raise DomainError("end state must be finite")
        if self.v <= thermo.VOLUME_FLOOR:
            raise DomainError(f"end-state volume must be positive, got {self.v}")


@dataclass(frozen=True)
class WavePattern:
    """Resolved composite pattern with shift-gain constants."""

    left: EndState
    mid: EndState
    right: EndState
    sigma: float
    delta_R: float
    delta_S: float
    sigma_m: float
    #: p(v_m), for the gain constants and the shock profile's right-hand side
    p_m: float
    alpha_m: float
    M: float
    C1: float

    @property
    def has_shock(self) -> bool:
        return self.delta_S >= DEGENERATE_STRENGTH

    @property
    def has_rarefaction(self) -> bool:
        return self.delta_R >= DEGENERATE_STRENGTH


def rarefaction_curve_u(v, anchor: EndState, model: GasModel):
    """Velocity on the slow-family integral curve through ``anchor``.

    Defined for v <= anchor.v (the expansion side); keeps the slow
    Riemann invariant exactly constant.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v > anchor.v * (1.0 + 1e-14)):
        raise DomainError("rarefaction curve is only defined for v <= anchor volume")
    return (anchor.u + thermo.lambda1_antiderivative(anchor.v, model)
            - thermo.lambda1_antiderivative(v, model))


def rarefaction_volume_for_strength(anchor: EndState, delta_R: float, model: GasModel) -> float:
    """Volume v < anchor.v whose curve point lies ``delta_R`` below anchor velocity.

    Closed-form inverse of the antiderivative, handy for building test
    patterns with a prescribed rarefaction strength.
    """
    if delta_R < 0.0:
        raise DomainError("strength must be nonnegative")
    g = model.gamma
    lam_target = thermo.lambda1_antiderivative(anchor.v, model) + delta_R
    return float((lam_target * (g - 1.0) / (2.0 * np.sqrt(g))) ** (-2.0 / (g - 1.0)))


def _hugoniot(v: float, right: EndState, model: GasModel):
    """(u, sigma) on the Hugoniot curve of ``right``; v == right.v uses the acoustic limit."""
    vp, up = right.v, right.u
    if v == vp:
        sigma = float(np.sqrt(-thermo.dpressure(vp, model)))
        return up, sigma
    sigma2 = -(thermo.pressure(v, model) - thermo.pressure(vp, model)) / (v - vp)
    sigma = float(np.sqrt(sigma2))
    return up + sigma * (vp - v), sigma


def shock_curve(v: float, right: EndState, model: GasModel):
    """(velocity, shock speed) on the Hugoniot curve of ``right`` for 0 < v < right.v."""
    v = float(v)
    if v <= thermo.VOLUME_FLOOR:
        raise DomainError("volume must be positive")
    if v >= right.v:
        raise DomainError("shock curve is only defined for v below the right-state volume")
    return _hugoniot(v, right, model)


def _build_pattern(left: EndState, mid: EndState, right: EndState,
                   model: GasModel, strength_cap: float) -> WavePattern:
    g = model.gamma
    v_m = mid.v
    if v_m > right.v + 1e-12:
        raise PatternError("intermediate volume exceeds right-state volume")

    if right.v - v_m < DEGENERATE_STRENGTH:
        sigma = float(np.sqrt(-thermo.dpressure(right.v, model)))
    else:
        _, sigma = _hugoniot(v_m, right, model)

    delta_R = abs(mid.u - left.u)
    delta_S = abs(right.v - v_m)
    if delta_R > strength_cap or delta_S > strength_cap:
        raise PatternError(
            f"wave strength exceeds cap {strength_cap}: delta_R={delta_R:.4g}, delta_S={delta_S:.4g}")

    sigma_m = float(np.sqrt(-thermo.dpressure(v_m, model)))
    p_m = float(thermo.pressure(v_m, model))
    alpha_m = (g + 1.0) / (2.0 * g * sigma_m * p_m)
    M = 1.25 * sigma_m ** 3 * alpha_m
    C1 = 0.5 * (1.0 / sigma_m - np.sqrt(delta_S) * (g + 1.0) / (g * p_m))
    if C1 <= 0.0:
        raise PatternError(
            f"weighted-entropy constant is not positive (C1={C1:.4g}); shock too strong")

    return WavePattern(
        left=left, mid=mid, right=right, sigma=sigma,
        delta_R=delta_R, delta_S=delta_S,
        sigma_m=sigma_m, p_m=p_m, alpha_m=alpha_m, M=M, C1=float(C1))


def pattern_from_intermediate(v_m: float, right: EndState, model: GasModel,
                              v_minus: float | None = None,
                              strength_cap: float = DEFAULT_STRENGTH_CAP) -> WavePattern:
    """Build the pattern forward from a prescribed intermediate volume.

    The intermediate state is placed on the Hugoniot curve of ``right``;
    the left state on the slow-family curve at volume ``v_minus``
    (defaults to ``v_m``, i.e. no rarefaction).
    """
    if v_m <= thermo.VOLUME_FLOOR or v_m > right.v + 1e-14:
        raise PatternError("intermediate volume must satisfy 0 < v_m <= v_plus")
    u_m, _ = _hugoniot(min(v_m, right.v), right, model)
    mid = EndState(v=float(min(v_m, right.v)), u=float(u_m))
    if v_minus is None:
        left = mid
    else:
        if v_minus > mid.v + 1e-12:
            raise PatternError("left state not on rarefaction side (v_minus > v_m)")
        u_minus = float(rarefaction_curve_u(min(v_minus, mid.v), mid, model))
        left = EndState(v=float(min(v_minus, mid.v)), u=u_minus)
    return _build_pattern(left, mid, right, model, strength_cap)


def solve_intermediate_state(left: EndState, right: EndState, model: GasModel,
                             strength_cap: float = DEFAULT_STRENGTH_CAP) -> WavePattern:
    """Find the unique intermediate state joining ``left`` and ``right``.

    Root of g(v) := z1(v, hugoniot_u(v)) - z1(left) in (0, v_plus]: the
    bracket's left end is halved until g > 0, and bisection solves on the
    bracket.
    """
    z1_left = float(thermo.riemann_invariant_z1(left.v, left.u, model))
    vp = right.v

    def g(v: float) -> float:
        u, _ = _hugoniot(v, right, model)
        return float(thermo.riemann_invariant_z1(v, u, model)) - z1_left

    scale = 1.0 + abs(z1_left)
    g_hi = g(vp)
    if abs(g_hi) <= 1e-13 * scale:
        # degenerate: left already shares the invariant of the right state
        v_root = vp
    elif g_hi > 0.0:
        raise PatternError("pattern not R1-S2: left state lies below the wave curve of the right state")
    else:
        lo = 0.999 * vp
        g_lo = g(lo)
        while g_lo <= 0.0:
            lo *= 0.5
            if lo < 1e-6 * vp:
                raise PatternError("pattern not R1-S2: no bracketing root above vacuum")
            g_lo = g(lo)
        # bisection to the tolerance of scipy's brentq at xtol = 1e-15 v_plus
        hi = vp
        while hi - lo > 1e-15 * vp + 4.0 * np.finfo(float).eps * hi:
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        v_root = 0.5 * (lo + hi)
        if abs(g(v_root)) > 1e-11 * scale:
            raise PatternError("intermediate-state solve did not converge")

    if left.v > v_root + 1e-8 * max(1.0, v_root):
        raise PatternError("left state not on rarefaction side (v_minus >= v_m)")

    u_m, _ = _hugoniot(v_root, right, model)
    mid = EndState(v=float(v_root), u=float(u_m))
    return _build_pattern(left, mid, right, model, strength_cap)
