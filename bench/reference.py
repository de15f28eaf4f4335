"""Reference computations the benchmark checks nskwave's outputs against.

Everything here is written from the definitions, not taken from the
package: the gamma-law pressure and relative internal energy, the
second-order difference the scheme uses for v_x (central inside,
one-sided at the two ends), the trapezoid rule on the solver grid and a
uniform composite Simpson rule.
"""
from __future__ import annotations

import numpy as np


def pressure_derivative(v, gamma):
    """p'(v) for p(v) = v^-gamma."""
    return -gamma * v ** (-gamma - 1.0)


def relative_internal_energy(v, vbar, gamma):
    """e(v) - e(vbar) - e'(vbar)(v - vbar) with e(v) = v^(1-gamma)/(gamma-1), e' = -p."""
    def e(s):
        return s ** (1.0 - gamma) / (gamma - 1.0)
    return e(v) - e(vbar) + vbar ** (-gamma) * (v - vbar)


def relative_entropy(v, u, w, vbar, ubar, wbar, gamma):
    """Kinetic plus internal plus capillary relative energy density."""
    return (0.5 * (u - ubar) ** 2 + relative_internal_energy(v, vbar, gamma)
            + 0.5 * (w - wbar) ** 2)


def gradient(f, dx):
    """Central difference inside, one-sided three-point at both ends."""
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def trapezoid(f, dx):
    return float(dx * (np.sum(f) - 0.5 * (f[0] + f[-1])))


def simpson_weights(n_points, h):
    """Composite Simpson weights for an odd number of equally spaced points."""
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of at least three points")
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)
