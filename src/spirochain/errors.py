"""Exception types raised across the package, the one count check, and the
one mapper of numpy's array-size refusals to NTooLarge; numpy-free."""

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


class allocating:
    """Context manager that reports numpy's refusal to build an array sized
    by n (a size ValueError or a MemoryError) as NTooLarge naming n; the
    package's own errors pass through unchanged, and nested ones name the
    outermost count.  A plain class because a chain and its graph enter it
    four times, and a generator-based one costs ~3x as much."""

    def __init__(self, n: int, name: str = "n") -> None:
        self.n, self.name = n, name

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        exc = getattr(exc, "_refusal", exc)  # an inner allocating's report
        if isinstance(exc, (ValueError, MemoryError)) and not isinstance(exc, SpiroChainError):
            error = NTooLarge(f"{self.name}={self.n} is too large for the arrays it sizes: {exc}")
            error._refusal = exc
            raise error from None


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
