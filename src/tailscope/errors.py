"""Exception taxonomy.

Errors fall into three families that the command line maps to exit codes:
configuration problems (exit 2), data/degeneracy problems (exit 3) and
I/O or parse problems (exit 4).
"""

__all__ = [
    "TailscopeError",
    "ConfigError",
    "DomainError",
    "ParameterError",
    "InfiniteMeanError",
    "InsufficientDataError",
    "DegenerateDataError",
    "EmptyExceedanceError",
    "DegenerateRangeError",
    "SingularDesignError",
    "NormalizationError",
    "EmptyWindowError",
    "IndexRangeError",
    "ParseError",
]


class TailscopeError(Exception):
    """Base class for all library errors."""


class ConfigError(TailscopeError):
    """Invalid configuration: bad model spec, case/model mismatch, bad flags."""


class DomainError(TailscopeError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ParameterError(TailscopeError, ValueError):
    """Invalid distribution or estimator parameter."""


class InfiniteMeanError(TailscopeError):
    """Mean excess requested for a model without a finite mean."""


class InsufficientDataError(TailscopeError):
    """Fewer observations than the operation requires."""


class DegenerateDataError(TailscopeError):
    """Zero denominators, ties, zero variance or similar degeneracies."""


class EmptyExceedanceError(DegenerateDataError):
    """No observation strictly exceeds the requested threshold."""


class DegenerateRangeError(DegenerateDataError):
    """Order statistics needed for a normalization coincide."""


class SingularDesignError(DegenerateDataError):
    """Least squares design with fewer than two distinct abscissae."""


class NormalizationError(TailscopeError):
    """Nonpositive scale where a positive normalizer is required."""


class EmptyWindowError(TailscopeError):
    """A point set restricted to a window is empty."""


class IndexRangeError(TailscopeError, ValueError):
    """Order-statistic index range outside 1..n or inverted."""


class ParseError(TailscopeError):
    """Malformed input file (treated as an I/O problem by the CLI)."""
