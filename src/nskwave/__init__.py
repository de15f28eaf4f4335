"""Composite rarefaction/shock waves for the 1D barotropic
Navier-Stokes-Korteweg system in Lagrangian mass coordinates.

Builds the wave pattern (intermediate state, smooth expansion fan,
viscous-dispersive shock profile), integrates the augmented (v, u, w)
system coupled to the dynamic shock-shift ODE, and evaluates the energy
functionals and inequalities that govern the composite wave's stability.
"""

from .composite import CompositeWave
from .config import Output, RunConfig, States, parse_config
from .diagnostics import (CSV_COLUMNS, DiagnosticsRecord, collect_record,
                          constraint_defect, good_terms, hardy_legendre_gap,
                          mass_defect, perturbation_norms, relative_entropy_density,
                          weighted_relative_entropy)
from .errors import (CflError, ConfigError, DomainError, MonotonicityError,
                     PatternError, ProfileError, SolverError, VacuumError)
from .rarefaction import RarefactionWave
from .riemann import (EndState, WavePattern, pattern_from_intermediate,
                      rarefaction_curve_u, rarefaction_volume_for_strength,
                      shock_curve, solve_intermediate_state)
from .shockprofile import (ShockProfile, eval_profile, profile_residual,
                           solve_profile)
from .solver import (Grid, Perturbation, RunResult, SchemeConfig, SimState,
                     Snapshot, build_composite, initial_data, parabolic_dt,
                     response_summary, run, spatial_rhs, step)
from .thermo import (GasModel, capillarity, characteristic_speeds,
                     internal_energy, lambda1_antiderivative, pressure,
                     relative_internal_energy, relative_pressure,
                     riemann_invariant_z1, viscosity)

__version__ = "0.1.0"
