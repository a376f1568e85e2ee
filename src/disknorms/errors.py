"""Exception types shared across the package."""


class DiskNormsError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(DiskNormsError, ValueError):
    """An argument lies outside an operation's stated domain."""


class DivergenceError(DiskNormsError, ArithmeticError):
    """The requested series or integral diverges (or is non-integrable)."""


class PrecisionError(DiskNormsError, ArithmeticError):
    """The requested tolerance was not reached within the work cap.

    Carries the best value obtained so far in ``best``, a SeriesValue.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class EvaluationError(DiskNormsError, ArithmeticError):
    """A field function returned a non-finite value at a quadrature node."""


class ConfigurationError(DiskNormsError, ValueError):
    """A rule or strategy is inconsistent with the requested operation."""


class UnsupportedQueryError(DiskNormsError, LookupError):
    """The norm catalog has no entry for the requested query."""
