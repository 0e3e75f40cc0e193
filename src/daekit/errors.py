"""Exception types shared across the package."""


class DaekitError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(DaekitError):
    """An argument violates a precondition (non-finite entries, bad shapes, ...)."""


class DomainError(DaekitError):
    """A time-dependent function was evaluated outside its domain."""


class ExtrapolationError(DomainError):
    """A trajectory was evaluated outside its sampled span."""


class EvaluationError(DaekitError):
    """A user-supplied function returned non-finite values."""


class InconsistentChainError(DaekitError):
    """Consistency conditions cannot be evaluated (singular final chain matrix)."""


class ClassificationUnreliableError(DaekitError):
    """Too many pointwise-index evaluations came back undefined to classify."""


class ProblemFileError(DaekitError):
    """A problem definition file is malformed."""
