"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the physical domain (non-positive volume, bad exponent)."""


class PatternError(ValueError):
    """Requested end states do not form an admissible rarefaction/shock pattern."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class ProfileError(RuntimeError):
    """Traveling-wave profile solve failed."""


class MonotonicityError(ProfileError):
    """Profile left the monotone regime (oscillatory dispersive tail)."""


class VacuumError(RuntimeError):
    """Specific volume dropped below the vacuum floor."""


class CflError(ValueError):
    """Requested time step violates the parabolic stability bound."""


class SolverError(RuntimeError):
    """Time integration produced a non-finite state."""


def check(exc_type, rules):
    """Raise one ``exc_type`` naming every failed rule of ``rules``, pairs of
    (holds, message), so the caller sees all violations at once."""
    failed = [message for holds, message in rules if not holds]
    if failed:
        raise exc_type("; ".join(failed))
