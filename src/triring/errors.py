"""Exception types shared across the package.

Most errors double as ``ValueError``/``RuntimeError`` so that generic
callers can catch them without importing this module.
"""

__all__ = [
    "TriringError",
    "InvalidDimensionError",
    "InvalidEmbeddingError",
    "InvalidSpaceError",
    "SpaceMismatchError",
    "InvalidRateError",
    "DegeneratePhaseError",
    "UnsupportedAsymmetryError",
    "NoConvergenceError",
    "NonUniqueSteadyStateError",
    "NonPhysicalStateError",
    "StepTooLargeError",
    "UndefinedTransmissionError",
    "InsufficientPopulationError",
    "UndefinedRatioError",
    "ResonanceSingularityError",
    "SingularDenominatorError",
    "ConfigError",
    "SweepCapError",
    "PointEvaluationError",
]


class TriringError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(TriringError, ValueError):
    """A Fock truncation is too small or otherwise malformed."""


class InvalidEmbeddingError(TriringError, ValueError):
    """An operator cannot be lifted into the requested composite space."""


class InvalidSpaceError(TriringError, ValueError):
    """A composite space does not have the mode structure an operation needs."""


class SpaceMismatchError(TriringError, ValueError):
    """Two operands live on different composite spaces."""


class InvalidRateError(TriringError, ValueError):
    """A loss rate, coupling, or drive amplitude is out of range."""


class DegeneratePhaseError(TriringError, ValueError):
    """The optimal-condition formulas are undefined at this phase."""


class UnsupportedAsymmetryError(TriringError, ValueError):
    """A closed form that assumes symmetric couplings got unequal ones."""


class NoConvergenceError(TriringError, RuntimeError):
    """The steady-state solve did not reach the requested residual."""

    def __init__(self, message, residual=None, bound=None):
        super().__init__(message)
        self.residual = residual
        self.bound = bound


class NonUniqueSteadyStateError(TriringError, RuntimeError):
    """The Liouvillian kernel is (numerically) more than one-dimensional."""


class NonPhysicalStateError(TriringError, RuntimeError):
    """A density matrix violates hermiticity, trace, or positivity bounds."""


class StepTooLargeError(TriringError, RuntimeError):
    """A single integrator step produced an unacceptable trace drift."""


class UndefinedTransmissionError(TriringError, ValueError):
    """Transmission is normalized by the drive power and needs omega > 0."""


class InsufficientPopulationError(TriringError, ValueError):
    """An occupation is below the population floor: T or g^(n) would read round-off."""


class UndefinedRatioError(TriringError, ValueError):
    """The nonreciprocal ratio is undefined: g2_fwd + g2_bwd is not positive,
    or a g2 is negative or not finite."""


class ResonanceSingularityError(TriringError, RuntimeError):
    """The linear response matrix is singular at this probe frequency."""


class SingularDenominatorError(TriringError, RuntimeError):
    """The closed-form transmission denominator vanished."""


class ConfigError(TriringError, ValueError):
    """A run configuration document is malformed."""


class SweepCapError(ConfigError):
    """A sweep grid exceeds the configured point cap."""


class PointEvaluationError(TriringError, RuntimeError):
    """A single-point evaluation failed; carries the failing direction."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction
