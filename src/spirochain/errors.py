"""Exception types raised across the package, and the one count check."""

import operator


class SpiroChainError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedDegree(SpiroChainError):
    """A profile query met a vertex degree other than 2 or 4."""


class InvalidN(SpiroChainError, ValueError):
    """A count (hexagons, replications, bins, ...) outside its admissible range."""


def require_n(n, minimum: int = 2, name: str = "n") -> int:
    """Validate a count (hexagons, replications, bins, ...): an integer, numpy's
    too, not a bool, >= minimum; `name` labels it in the InvalidN message."""
    try:
        if not isinstance(n, bool) and (value := operator.index(n)) >= minimum:
            return value
    except TypeError:  # not an integer
        pass
    raise InvalidN(f"{name} must be an integer >= {minimum}, got {n!r}")


class InvalidProbabilities(SpiroChainError):
    """Link probabilities outside [0, 1] or not summing to 1."""


class NTooLarge(SpiroChainError):
    """n is beyond the enumeration cap, or too large for the arrays it sizes."""


class UndefinedBase(SpiroChainError):
    """An index base function is undefined or non-positive at a needed degree."""


class KindMismatch(SpiroChainError):
    """A vertex-kind index met an edge profile, or vice versa."""


class UnknownIndex(SpiroChainError):
    """Registry lookup for a name that is not registered."""


class MissingExponent(SpiroChainError):
    """A variable-exponent index was requested without an exponent."""


class DegenerateVariance(SpiroChainError):
    """Standardization was requested where the variance is zero."""


class EmptySample(SpiroChainError):
    """A sample statistic was requested on an empty sample."""


class NonFiniteSample(SpiroChainError, ValueError):
    """A sample statistic was requested on a sample holding NaN or infinity,
    or on one whose moments, range or histogram densities overflow float64."""


class SampleTooSmall(SpiroChainError):
    """A diagnostic needs more samples than were provided."""
