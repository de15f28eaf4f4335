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


def relative_entropy_density(v, vbar, psi, omega, model):
    """Pointwise distance functional: kinetic + internal + capillary parts,
    from the volumes and the gaps psi = u - ubar and omega = w - wbar."""
    return 0.5 * psi ** 2 + thermo.relative_internal_energy(v, vbar, model) + 0.5 * omega ** 2


def weighted_relative_entropy(a, v, vbar, psi, omega, dx, model) -> float:
    """Trapezoid integral of a * eta on a grid of spacing ``dx``."""
    return float(np.trapezoid(a * relative_entropy_density(v, vbar, psi, omega, model), dx=dx))


def sup_norms(phi, psi, dx):
    """(W1inf(phi), Linf(psi)), whose sum the stability clauses bound."""
    phi_x = first_derivative(phi, dx)
    return (float(max(np.max(np.abs(phi)), np.max(np.abs(phi_x)))),
            float(np.max(np.abs(psi))))


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
    ``bar`` of the state's time, with the shift rate ``xdot`` there.

    Derivatives use the solver's stencils, so the ledger sees what the scheme
    sees; the deviation, its derivatives and each integral are formed once.
    """
    dx = grid.dx
    phi = state.v - bar["v"]
    psi = state.u - bar["u"]
    omega = state.w - bar["w"]
    phi2, psi2, omega2 = phi ** 2, psi ** 2, omega ** 2
    abs_ax, abs_usx = np.abs(bar["a_x"]), np.abs(bar["shock"]["ux"])
    dp_gap = thermo.pressure(state.v, model) - thermo.pressure(bar["v"], model)

    def tz(f):
        return float(np.trapezoid(f, dx=dx))

    gw = tz(omega2)
    du1 = tz(first_derivative(psi, dx) ** 2)
    dw1 = tz(first_derivative(omega, dx) ** 2)
    l2_psi, l2_omega = float(np.sqrt(tz(psi2))), float(np.sqrt(gw))
    w1inf_phi, linf_psi = sup_norms(phi, psi, dx)
    return DiagnosticsRecord(
        t=state.t, X=state.X, Xdot=float(xdot),
        L2_phi=float(np.sqrt(tz(phi2))), L2_psi=l2_psi, L2_omega=l2_omega,
        H1_psi=float(np.sqrt(l2_psi ** 2 + np.sqrt(du1) ** 2)),
        H1_omega=float(np.sqrt(l2_omega ** 2 + np.sqrt(dw1) ** 2)),
        W1inf_phi=w1inf_phi, Linf_psi=linf_psi,
        eta_weighted=weighted_relative_entropy(bar["a"], state.v, bar["v"], psi, omega,
                                               dx, model),
        G1=tz(abs_ax * (dp_gap - psi / (2.0 * pattern.C1)) ** 2),
        G3=tz(abs_ax * omega2),
        GSu=tz(abs_usx * psi2),
        GSv=tz(abs_usx * phi2),
        GR=tz(bar["fan"]["ux"] * phi2),
        Gw=gw, Du1=du1, Du2=tz(second_derivative(psi, dx) ** 2),
        Dw1=dw1, Dw2=tz(second_derivative(omega, dx) ** 2),
        constraint_defect=constraint_defect(state, grid, model),
        mass_defect=float(mass_defect))
