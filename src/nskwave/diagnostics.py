"""Energy functionals, perturbation norms and inequality utilities.

Everything here is a pure reduction over a simulation snapshot: the
relative entropy and its weighted integral, the sign-definite terms of
the energy ledger, discrete Sobolev norms of the perturbation, the
mismatch of the auxiliary variable with its discrete definition, and the
Poincare-type inequality on the unit interval used by the contraction
argument.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import thermo
from .errors import DomainError
from .fd import first_derivative, second_derivative

@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time sample of the ledger; its fields, in order, are the columns
    of the time-series output."""

    t: float
    X: float
    Xdot: float
    L2_phi: float
    L2_psi: float
    L2_omega: float
    H1_psi: float
    H1_omega: float
    W1inf_phi: float
    Linf_psi: float
    eta_weighted: float
    G1: float
    G3: float
    GSu: float
    GSv: float
    GR: float
    Gw: float
    Du1: float
    Du2: float
    Dw1: float
    Dw2: float
    constraint_defect: float
    mass_defect: float

    def as_row(self):
        return [getattr(self, c) for c in CSV_COLUMNS]

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: fixed column order of the time-series output
CSV_COLUMNS = [f.name for f in fields(DiagnosticsRecord)]


def discrete_gradient_w(v, dx, model):
    """Auxiliary variable from the discrete volume gradient."""
    return -v ** (-0.5 * (model.beta + 5.0)) * first_derivative(v, dx)


def constraint_defect(state, grid, model) -> float:
    """Sup-norm mismatch between evolved w and the discrete gradient definition.

    On interior nodes the scheme evolves the exact time derivative of the
    definition, so the mismatch there is Runge-Kutta time error; at the two
    pinned boundary nodes w stays fixed while the one-sided gradient follows
    v, which adds the boundary truncation once the solution reaches them.
    """
    return float(np.max(np.abs(state.w - discrete_gradient_w(state.v, grid.dx, model))))


def mass_defect(state, start, grid) -> float:
    """Relative mismatch of the interior volume dx * sum(v[1:-1]) of ``state``
    with that of ``start`` plus the boundary flux integrated in between.

    v_t on the interior nodes telescopes to the boundary flux, which the
    Runge-Kutta weights integrate like any other component, so the defect is
    roundoff.
    """
    mass0 = float(np.sum(start.v[1:-1]) * grid.dx)
    mass = float(np.sum(state.v[1:-1]) * grid.dx)
    return abs(mass - mass0 - (state.flux - start.flux)) / (abs(mass0) + 1.0)


def relative_entropy_density(v, u, w, vbar, ubar, wbar, model):
    """Pointwise distance functional: kinetic + internal + capillary parts."""
    return (0.5 * (np.asarray(u) - ubar) ** 2
            + thermo.relative_internal_energy(v, vbar, model)
            + 0.5 * (np.asarray(w) - wbar) ** 2)


def weighted_relative_entropy(grid, state, bar, model):
    """Trapezoid integral of a * eta over the solver grid, against the
    background ``bar`` (``CompositeWave.eval_bar`` at the state's time)."""
    eta = relative_entropy_density(state.v, state.u, state.w,
                                   bar["v"], bar["u"], bar["w"], model)
    return float(np.trapezoid(bar["a"] * eta, dx=grid.dx))


def good_terms(grid, state, bar, pattern, model) -> dict:
    """Sign-definite ledger of the weighted-entropy balance against the
    background ``bar``.

    Discrete derivatives use the same stencils as the solver so the
    ledger reflects what the scheme sees.
    """
    dx = grid.dx
    a_x = bar["a_x"]

    phi = state.v - bar["v"]
    psi = state.u - bar["u"]
    omega = state.w - bar["w"]
    dp_gap = thermo.pressure(state.v, model) - thermo.pressure(bar["v"], model)

    def tz(f):
        return float(np.trapezoid(f, dx=dx))

    psi_x = first_derivative(psi, dx)
    psi_xx = second_derivative(psi, dx)
    omega_x = first_derivative(omega, dx)
    omega_xx = second_derivative(omega, dx)

    abs_usx = np.abs(bar["shock"]["ux"])
    return {
        "G1": tz(np.abs(a_x) * (dp_gap - psi / (2.0 * pattern.C1)) ** 2),
        "G3": tz(np.abs(a_x) * omega ** 2),
        "GSu": tz(abs_usx * psi ** 2),
        "GSv": tz(abs_usx * phi ** 2),
        "GR": tz(bar["fan"]["ux"] * phi ** 2),
        "Gw": tz(omega ** 2),
        "Du1": tz(psi_x ** 2),
        "Du2": tz(psi_xx ** 2),
        "Dw1": tz(omega_x ** 2),
        "Dw2": tz(omega_xx ** 2),
    }


def perturbation_norms(grid, state, bar) -> dict:
    """Discrete L2/H1/sup norms of the deviation from the background ``bar``."""
    dx = grid.dx
    phi = state.v - bar["v"]
    psi = state.u - bar["u"]
    omega = state.w - bar["w"]

    def l2(f):
        return float(np.sqrt(np.trapezoid(f ** 2, dx=dx)))

    l2_phi, l2_psi, l2_omega = l2(phi), l2(psi), l2(omega)
    psi_x = first_derivative(psi, dx)
    omega_x = first_derivative(omega, dx)
    phi_x = first_derivative(phi, dx)
    return {
        "L2_phi": l2_phi,
        "L2_psi": l2_psi,
        "L2_omega": l2_omega,
        "H1_psi": float(np.sqrt(l2_psi ** 2 + l2(psi_x) ** 2)),
        "H1_omega": float(np.sqrt(l2_omega ** 2 + l2(omega_x) ** 2)),
        "W1inf_phi": float(max(np.max(np.abs(phi)), np.max(np.abs(phi_x)))),
        "Linf_psi": float(np.max(np.abs(psi))),
    }


def hardy_legendre_gap(f):
    """(lhs, rhs) of the sharp Poincare-type inequality on [0, 1], for
    samples ``f`` on a uniform grid y over [0, 1].

    lhs = integral of |f - mean(f)|^2, rhs = 1/2 integral of y(1-y)|f'|^2,
    both by trapezoid with central-difference derivatives; for smooth f
    the contract is lhs <= rhs up to quadrature error, with equality for
    linear f.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise DomainError("need at least three samples on [0, 1]")
    if not np.all(np.isfinite(f)):
        raise DomainError("samples must be finite")
    y = np.linspace(0.0, 1.0, f.size)
    dy = y[1] - y[0]
    mean = np.trapezoid(f, y)
    lhs = float(np.trapezoid((f - mean) ** 2, y))
    fp = first_derivative(f, dy)
    rhs = float(0.5 * np.trapezoid(y * (1.0 - y) * fp ** 2, y))
    return lhs, rhs


def collect_record(grid, state, bar, pattern, model, xdot: float,
                   mass_defect: float = 0.0) -> DiagnosticsRecord:
    """One full time sample of the diagnostic ledger, against the background
    ``bar`` of the state's time, with the shift rate ``xdot`` there."""
    return DiagnosticsRecord(
        t=state.t, X=state.X, Xdot=float(xdot),
        eta_weighted=weighted_relative_entropy(grid, state, bar, model),
        constraint_defect=constraint_defect(state, grid, model),
        mass_defect=float(mass_defect),
        **perturbation_norms(grid, state, bar),
        **good_terms(grid, state, bar, pattern, model))
