"""Shifted superposition of the smooth fan and the traveling shock.

Assembles the composite background (its fields, the weight function of
the shift dynamics and the two wave stacks), the forcing terms the
superposition leaves in the momentum and auxiliary equations, and the
wave-interaction norms.  All x-derivatives of the forcing terms are
expanded analytically into the derivative stacks of the two waves: the
forcings are small differences of large terms, which numerical
differentiation would destroy.
"""
from __future__ import annotations

import numpy as np

from . import thermo
from .errors import VacuumError
from .quadrature import adaptive_simpson
from .rarefaction import RarefactionWave
from .riemann import WavePattern
from .shockprofile import ShockProfile, eval_profile, stack_from_volume
from .thermo import GasModel

#: (integrand, p) of each interaction norm ||integrand||_Lp
NORMS = (("vSx_vR", 1), ("vSx_vR", 2), ("vRx_vSx", 1), ("vRx_vSx", 2),
         ("vRx_vS", 2), ("Q1I", 2), ("Q2", 2))
#: relative accuracy of the interaction norms
NORM_REL_TOL = 1e-8
#: interaction norms below this are indistinguishable from exact zero
#: (criterion 4)
NORM_FLOOR = 1e-18


def _pressure_flux_x(st, model):
    """(p(v))_x from a derivative stack."""
    return thermo.dpressure(st["v"], model) * st["vx"]


def _viscous_flux_x(st, model):
    """(mu(v) u_x / v)_x expanded."""
    a = model.alpha
    v = st["v"]
    return (-(a + 1.0) * v ** (-a - 2.0) * st["vx"] * st["ux"]
            + v ** (-a - 1.0) * st["uxx"])


def _capillary_main_x(st, model):
    """(kappa(v)(-v_xx/v^5 + 5 v_x^2 / (2 v^6)))_x expanded."""
    b = model.beta
    v, vx, vxx, vxxx = st["v"], st["vx"], st["vxx"], st["vxxx"]
    return (-vxxx * v ** (-b - 5.0)
            + (b + 10.0) * vxx * vx * v ** (-b - 6.0)
            - 2.5 * (b + 6.0) * vx ** 3 * v ** (-b - 7.0))


def _capillary_grad_x(st, model):
    """(kappa'(v) v_x^2 / (2 v^5))_x expanded."""
    b = model.beta
    v, vx, vxx = st["v"], st["vx"], st["vxx"]
    return (-b * vx * vxx * v ** (-b - 6.0)
            + 0.5 * b * (b + 6.0) * vx ** 3 * v ** (-b - 7.0))


def superpose(pattern: WavePattern, rs, ss, keys=()):
    """Composite stack of the fan stack ``rs`` and the shock stack ``ss``: v
    and u are the shock plus the fan's offset from the intermediate state,
    each derivative in ``keys`` the sum of both."""
    # grouping the fan offset first keeps the superposition exact where
    # either wave sits at the intermediate state
    mid = pattern.mid
    bar = {"v": ss["v"] + (rs["v"] - mid.v), "u": ss["u"] + (rs["u"] - mid.u)}
    if np.any(bar["v"] <= 0.0):
        raise VacuumError("composite vacuum: superposed volume is not positive")
    bar.update((k, rs[k] + ss[k]) for k in keys)
    return bar


def _interaction_forcing(pattern: WavePattern, rs, ss, model):
    """Interaction part of the momentum forcing from the fan stack ``rs``
    (order 3) and the shock stack ``ss``: each flux of the superposition
    minus the fluxes of the two waves."""
    bar = superpose(pattern, rs, ss, ("vx", "ux", "vxx", "uxx", "vxxx"))

    def group(term):
        return term(bar, model) - term(rs, model) - term(ss, model)

    return (group(_pressure_flux_x)
            - group(_viscous_flux_x)
            - group(_capillary_main_x)
            + group(_capillary_grad_x))


def _aux_forcing_per_rate(pattern: WavePattern, rs, ss, model):
    """Auxiliary-equation forcing per unit shift rate from the fan stack
    ``rs`` (order 2) and the shock stack ``ss``."""
    b = model.beta
    bar = superpose(pattern, rs, ss, ("vx",))
    vbar, vbar_x = bar["v"], bar["vx"]
    g_s = ss["v"] ** (-0.5 * (b + 5.0))
    g_b = vbar ** (-0.5 * (b + 5.0))
    gp_s = -0.5 * (b + 5.0) * ss["v"] ** (-0.5 * (b + 7.0))
    gp_b = -0.5 * (b + 5.0) * vbar ** (-0.5 * (b + 7.0))
    bracket_x = (ss["vxx"] * (g_s - g_b)
                 + ss["vx"] * (gp_s * ss["vx"] - gp_b * vbar_x))
    return -bracket_x


def entropy_weight(pattern: WavePattern, uS):
    """Monotone weight 1 + (u_m - uS)/sqrt(delta_S) of the shifted entropy,
    from the shock velocity uS."""
    return 1.0 + (pattern.mid.u - uS) / np.sqrt(pattern.delta_S)


class CompositeWave:
    """Fan plus shifted shock, glued through the intermediate state."""

    def __init__(self, rarefaction: RarefactionWave, profile: ShockProfile | None,
                 pattern: WavePattern, model: GasModel):
        self.rarefaction = rarefaction
        self.profile = profile
        self.pattern = pattern
        self.model = model
        if pattern.has_shock and profile is None:
            raise ValueError("pattern has a shock of finite strength but no profile was given")

    # -- raw stacks --------------------------------------------------------

    def shock_stack(self, t, x, X, order: int):
        """The shifted shock's ``eval_profile`` stack of order ``order``;
        without a shock, the same stack of the constant mid state."""
        x = np.asarray(x, dtype=float)
        if self.pattern.has_shock:
            return eval_profile(self.profile, x - self.pattern.sigma * t - X, order)
        return stack_from_volume(self.pattern, self.model, np.full_like(x, self.pattern.mid.v),
                                 *[np.zeros_like(x)] * order)

    def part_stacks(self, t, x, X, order: int = 3):
        """(fan stack, shock stack) with derivatives up to ``order``."""
        return self.rarefaction.eval(t, x, order=order), self.shock_stack(t, x, X, order)

    # -- composite background ------------------------------------------------

    def eval_bar(self, t, x, X) -> dict:
        """The shifted composite background at one time.

        Fields vbar, ubar, wbar with the slopes vbar_x and ubar_x; the
        weight ``a`` of the shifted entropy with its slope ``a_x``; and the
        order-1 fan and shock stacks they come from, under ``fan`` and
        ``shock``.
        """
        rs, ss = self.part_stacks(t, x, X, order=1)
        bar = superpose(self.pattern, rs, ss, ("vx", "ux"))
        bar["w"] = -bar["vx"] * bar["v"] ** (-0.5 * (self.model.beta + 5.0))
        if self.pattern.has_shock:
            bar["a"] = entropy_weight(self.pattern, ss["u"])
            # sigma vS_x / sqrt(delta_S) > 0
            bar["a_x"] = -ss["ux"] / np.sqrt(self.pattern.delta_S)
        else:
            bar["a"], bar["a_x"] = np.ones_like(bar["v"]), np.zeros_like(bar["v"])
        bar["fan"], bar["shock"] = rs, ss
        return bar

    # -- forcing terms ----------------------------------------------------------

    def momentum_defect(self, t, x, X):
        """Forcing left in the momentum equation by the superposition.

        Returns (interaction part, fan part).  The interaction part
        telescopes to zero when either wave is absent; the fan part is the
        viscous/capillary flux of the fan alone, which solves only the
        ideal equations.
        """
        x = np.asarray(x, dtype=float)
        m = self.model
        zeros = np.zeros_like(x)
        if not self.pattern.has_rarefaction:
            return zeros, zeros.copy()
        rs = self.rarefaction.eval(t, x, order=3)
        fan = (-_viscous_flux_x(rs, m)
               - _capillary_main_x(rs, m)
               + _capillary_grad_x(rs, m))
        if not self.pattern.has_shock:
            return zeros, fan
        ss = self.shock_stack(t, x, X, order=3)
        return _interaction_forcing(self.pattern, rs, ss, m), fan

    def aux_defect(self, t, x, X, Xdot):
        """Forcing left in the auxiliary-variable equation; linear in Xdot."""
        x = np.asarray(x, dtype=float)
        if not (self.pattern.has_shock and self.pattern.has_rarefaction):
            return np.zeros_like(x)
        rs, ss = self.part_stacks(t, x, X, order=2)
        return Xdot * _aux_forcing_per_rate(self.pattern, rs, ss, self.model)

    # -- wave-interaction norms ----------------------------------------------

    def _breakpoints(self, t):
        pts = []
        tau = 1.0 + t
        r = self.rarefaction
        if not r.degenerate:
            lo, hi = r.support(t)
            pts += [lo, r.w_minus * tau, r.center * tau, r.w_m * tau, hi]
        if self.pattern.has_shock:
            c = self.pattern.sigma * t
            pts += [c + self.profile.xi_lo, c + 0.5 * self.profile.xi_lo,
                    c, c + 0.5 * self.profile.xi_hi, c + self.profile.xi_hi]
        if not pts:
            pts = [-1.0, 1.0]
        pts = np.unique(np.asarray(pts, dtype=float))
        # geometric padding across any wide gap so exponential humps at a
        # gap edge are found by the adaptive refinement
        out = [pts[0]]
        for aL, aR in zip(pts[:-1], pts[1:]):
            gap = aR - aL
            if gap > 80.0:
                step = 20.0
                pos = aL + step
                while pos < aR - step:
                    out.append(pos)
                    pos = aL + (pos - aL) * 2.0
                step = 20.0
                pos = aR - step
                down = []
                while pos > aL + step:
                    down.append(pos)
                    pos = aR - (aR - pos) * 2.0
                out.extend(reversed(down))
            out.append(aR)
        return np.unique(np.asarray(out))

    def interaction_norms(self, times) -> list[dict]:
        """Norms of the wave-overlap products and of the forcing terms at
        each of ``times``, with the shock unshifted (X = 0); one dict per
        time.

        The auxiliary forcing is linear in the shift rate; its norm is
        given per unit rate.  All seven at one time come from one adaptive
        quadrature whose integrand evaluates the fan and the shock stack
        once per point, to ``NORM_REL_TOL`` of each integral or, for an
        integral below the square of ``NORM_FLOOR``, of that square.  The
        quadratures of all times refine in lockstep: each level makes one
        integrand call on the points of every time still open.
        """
        keys = [f"{name}_L{p}" for name, p in NORMS]
        times = np.asarray(times, dtype=float)
        if not (self.pattern.has_shock and self.pattern.has_rarefaction):
            return [dict.fromkeys(keys, 0.0) for _ in times]
        pattern, model, v_m = self.pattern, self.model, self.pattern.mid.v

        def integrand(x, domain):
            rs, ss = self.part_stacks(times[domain], x, 0.0, order=3)
            # the forcings first: their temporaries are the largest
            terms = {"Q1I": _interaction_forcing(pattern, rs, ss, model),
                     "Q2": _aux_forcing_per_rate(pattern, rs, ss, model),
                     "vSx_vR": ss["vx"] * (rs["v"] - v_m),
                     "vRx_vSx": rs["vx"] * ss["vx"],
                     "vRx_vS": rs["vx"] * (ss["v"] - v_m)}
            rows = np.empty((len(NORMS), x.size))
            for row, (name, p) in zip(rows, NORMS):
                np.abs(terms[name], out=row)
                row **= p
            return rows

        # the integral of a squared norm at the floor, to the relative tolerance
        vals = adaptive_simpson(integrand, [self._breakpoints(t) for t in times],
                                abs_tol=NORM_REL_TOL * NORM_FLOOR ** 2, rel_tol=NORM_REL_TOL)
        return [{key: max(float(val), 0.0) ** (1.0 / p)
                 for key, val, (_, p) in zip(keys, row, NORMS)} for row in vals]
