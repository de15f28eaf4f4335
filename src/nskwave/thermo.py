"""Gamma-law gas with power-law viscosity and capillarity.

Pure constitutive functions used by every other module: pressure and its
derivatives, internal energy, transport coefficients, characteristic
speeds, the closed-form antiderivative of the slow characteristic speed,
and relative (Bregman-type) quantities built from convex state functions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check

VOLUME_FLOOR = 1e-12


@dataclass(frozen=True)
class GasModel:
    """Gas with p(v) = v^-gamma, mu(v) = v^-alpha, kappa(v) = v^-beta."""

    gamma: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        check(DomainError, [(self.gamma > 1.0, f"gamma must exceed 1, got {self.gamma}")]
              + [(np.isfinite(getattr(self, name)), f"{name} must be finite")
                 for name in ("gamma", "alpha", "beta")])


def _volume(v):
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= VOLUME_FLOOR):
        raise DomainError("specific volume must be finite and exceed 1e-12")
    return arr


def pressure(v, model: GasModel):
    return _volume(v) ** (-model.gamma)


def dpressure(v, model: GasModel):
    """p'(v) = -gamma v^(-gamma-1), strictly negative."""
    return -model.gamma * _volume(v) ** (-model.gamma - 1.0)


def d2pressure(v, model: GasModel):
    g = model.gamma
    return g * (g + 1.0) * _volume(v) ** (-g - 2.0)


def internal_energy(v, model: GasModel):
    """Q(v) = v^(1-gamma)/(gamma-1); convex with Q'(v) = -p(v)."""
    g = model.gamma
    return _volume(v) ** (1.0 - g) / (g - 1.0)


def viscosity(v, model: GasModel):
    return _volume(v) ** (-model.alpha)


def capillarity(v, model: GasModel):
    return _volume(v) ** (-model.beta)


def characteristic_speeds(v, model: GasModel):
    """Acoustic speeds (lambda_1, lambda_2) = (-sqrt(-p'(v)), +sqrt(-p'(v)))."""
    g = model.gamma
    lam2 = np.sqrt(g) * _volume(v) ** (-0.5 * (g + 1.0))
    return -lam2, lam2


def lambda1_antiderivative(v, model: GasModel):
    """Closed-form antiderivative of lambda_1, normalized to vanish as v -> inf.

    d/dv [2 sqrt(gamma)/(gamma-1) v^((1-gamma)/2)] = -sqrt(gamma) v^(-(gamma+1)/2).
    """
    g = model.gamma
    return 2.0 * np.sqrt(g) / (g - 1.0) * _volume(v) ** (0.5 * (1.0 - g))


def riemann_invariant_z1(v, u, model: GasModel):
    """Invariant of the slow family: constant along rarefaction curves."""
    return np.asarray(u, dtype=float) + lambda1_antiderivative(v, model)


def relative_pressure(v, vbar, model: GasModel):
    """p(v) - p(vbar) - p'(vbar)(v - vbar); nonnegative since p is convex."""
    v, vbar, g = _volume(v), _volume(vbar), model.gamma
    return v ** (-g) - vbar ** (-g) + g * vbar ** (-g - 1.0) * (v - vbar)


def relative_internal_energy(v, vbar, model: GasModel):
    """Q(v) - Q(vbar) - Q'(vbar)(v - vbar) with Q' = -p."""
    v, vbar, g = _volume(v), _volume(vbar), model.gamma
    return v ** (1.0 - g) / (g - 1.0) - vbar ** (1.0 - g) / (g - 1.0) + vbar ** (-g) * (v - vbar)

