"""Second-order finite-difference stencils on a uniform grid.

Shared by the solver and the diagnostics so every discrete derivative in
the ledger matches what the scheme itself sees.
"""
from __future__ import annotations

import numpy as np


def first_derivative(f, dx):
    """Central differences inside, one-sided second-order at the ends."""
    f = np.asarray(f, dtype=float)
    return _first_derivative_into(f, dx, np.empty_like(f))


def _first_derivative_into(f, dx, out):
    """``first_derivative`` of the float array ``f``, written into ``out``."""
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dx
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return out


def second_derivative(f, dx):
    """Three-point second difference, copied stencil at the ends."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (dx * dx)
    out[0] = (f[0] - 2.0 * f[1] + f[2]) / (dx * dx)
    out[-1] = (f[-1] - 2.0 * f[-2] + f[-3]) / (dx * dx)
    return out
