"""Exception hierarchy shared across the toolkit.

Two branches matter for the CLI exit-code contract: configuration or
hypothesis violations (exit code 2) and numerical failures (exit code 3).
"""

from contextlib import contextmanager


class FrequalizeError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FrequalizeError):
    """Invalid configuration; message names the offending key path."""


class BlockWeightError(ConfigError):
    """A weight past the float range, charged to the regularity that sets it: a block weight 2^(q s), or the
    time weight and profile sup of the decay inequality's low regime, set by s + rho."""


@contextmanager
def prefixed(prefix: str, kind: type[FrequalizeError] | tuple[type[FrequalizeError], ...] = ConfigError):
    """Re-raise an error of the block, of the given kind (or kinds), as a ConfigError with prefix (a key path
    or an option) first."""
    try:
        yield
    except kind as exc:
        raise ConfigError(f"{prefix}{exc}") from None


class HypothesisError(FrequalizeError):
    """A stated hypothesis of an inequality or parameter set is violated."""


class NumericalError(FrequalizeError):
    """A numerical procedure failed (instability, eigensolver, blowup)."""


class SolverInstabilityError(NumericalError):
    """Time integration diverged (norm growth past the abort threshold)."""


class DensityError(NumericalError):
    """Total density left the positive range during a nonlinear run."""


class IncompatibleDataError(FrequalizeError):
    """Mode data violates the divergence constraints beyond tolerance."""


class SaturationWindowError(ConfigError):
    """A torus decay fit window reaches into the infrared saturation regime."""
