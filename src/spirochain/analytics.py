"""Closed-form laws of index values on random spiro chains: the array parts
(the exact distribution, standardized and centered samples) beside the
scalar ones of `_model` (chain constants, moments, the moment generating
function, the cross-index comparison), which this module re-exports.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._model import (  # noqa: F401  (the scalar laws are re-exported)
    COMPARISON_ORDER, ChainCoefficients, ExpectationOrdering, LinkProbabilities, _mean,
    _variance, coefficients, compare_expectations, expected_value, log_mgf, mgf,
    second_moment, variance,
)
from .errors import DegenerateVariance, NonFiniteSample, allocating, require_n
from .indices import IndexSpec


def _values(c: ChainCoefficients, steps: int, k):
    """Index values of chains with `steps` growth links, k of them ortho;
    ti2 + ... keeps the two-hexagon chain (steps = 0) exactly at ti2."""
    return (c.ti2 + c.alpha_meta * steps) + c.B * k


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finite law of an index value: support, matching pmf, and (when the
    value is a non-degenerate function of it) the ortho count behind each
    support point."""

    support: np.ndarray
    pmf: np.ndarray
    ortho_counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Copies: the caller's arrays stay writable.
        support = _floats(self.support, "build a distribution").copy()
        pmf = _floats(self.pmf, "build a distribution").copy()
        if support.shape != pmf.shape or support.ndim != 1 or support.size == 0:
            raise ValueError("support and pmf must be matching 1-d arrays")
        # Each check is written to fail on NaN.
        if not np.all(pmf >= 0):
            raise ValueError("probabilities must be non-negative")
        if not abs(float(pmf.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {pmf.sum()!r}, expected 1")
        if not np.all(np.diff(support) > 0):
            raise ValueError("support values must be strictly increasing")
        if not np.all(np.isfinite(support)):
            raise ValueError("support values must be finite")
        if (counts := self.ortho_counts) is not None:
            counts = np.array(counts)
            if counts.dtype.kind in "iu":  # a uint64 from 2**63 up wraps negative
                counts = counts.astype(np.int64, copy=False)
            if counts.dtype != np.int64 or counts.shape != support.shape or (counts < 0).any():
                raise ValueError("need one non-negative integer ortho count per support point")
        for name, array in (("support", support), ("pmf", pmf), ("ortho_counts", counts)):
            if array is not None:
                array.setflags(write=False)
                object.__setattr__(self, name, array)

    def mean(self) -> float:
        return float(np.dot(self.pmf, self.support))

    def variance(self) -> float:
        centered = self.support - self.mean()
        return float(np.dot(self.pmf, centered * centered))


def _binomial_pmf(steps: int, p: float) -> np.ndarray:
    """Binomial(steps, p) probabilities of k = 0..steps.

    Multiplies the term ratio P(j) / P(j - 1) = (steps + 1 - j) p / (j q)
    outward from the mode floor((steps + 1) p), so every factor is at most
    1 and nothing overflows, then normalizes.  p = 0 and p = 1 give their
    point masses through zero ratios.
    """
    q = 1.0 - p
    mode = min(math.floor((steps + 1) * p), steps)
    j = np.arange(1.0, steps + 1)
    up, down = j[mode:], j[:mode][::-1]
    pmf = np.ones(steps + 1)
    pmf[mode + 1:] = np.cumprod((steps + 1 - up) * p / (up * q))
    pmf[:mode] = np.cumprod(down * q / ((steps + 1 - down) * p))[::-1]
    return pmf / pmf.sum()


def exact_distribution(
    spec: IndexSpec, n: int, probs: LinkProbabilities
) -> DiscreteDistribution:
    """Exact law of the index value on random chains with n hexagons.

    The value is base + B * k with k the binomially distributed ortho count,
    so the support has n-1 points (one atom when the index is deterministic
    or n = 2).  When |B| is below the float spacing of the values, points
    that round to the same double are merged, their probabilities summed,
    and ortho_counts is None.  The binomial probabilities come from the
    term-ratio recurrence, multiplied outward from the mode; against exact
    rational arithmetic they agree to 7.1e-14 relative for up to 1,998 steps
    and, against 40-digit references, to 1.6e-12 at a million steps.
    """
    n = require_n(n)
    c = coefficients(spec, probs)
    steps = n - 2
    if c.deterministic or steps == 0:
        return DiscreteDistribution(np.array([_mean(c, n)]), np.array([1.0]), None)
    with allocating(n):
        k = np.arange(steps + 1)
        values = _values(c, steps, k)
        pmf = _binomial_pmf(steps, c.p_ortho)
    if c.B < 0:
        values, pmf, k = values[::-1], pmf[::-1], k[::-1]
    if np.any(values[1:] == values[:-1]):
        values, slot = np.unique(values, return_inverse=True)
        return DiscreteDistribution(values, np.bincount(slot, weights=pmf), None)
    return DiscreteDistribution(values, pmf, k)


def _floats(values, what: str) -> np.ndarray:
    """np.asarray(values, dtype=float), except that a Python integer beyond
    the double range, which float64 cannot hold, raises NonFiniteSample."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise NonFiniteSample(f"cannot {what}: a value is beyond the float64 range") from None


@contextlib.contextmanager
def _finite_statistics(x: np.ndarray, what: str):
    """Refuse a sample holding NaN or infinity, which has no statistics, and
    one whose statistics overflow float64 inside the block."""
    if not np.isfinite(x).all():
        raise NonFiniteSample(f"cannot {what} a sample holding NaN or infinity")
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise NonFiniteSample(
            f"cannot {what} this sample: its statistics overflow float64"
        ) from None


def standardize(value, spec: IndexSpec, n: int, probs: LinkProbabilities):
    """Center by the closed-form mean and scale by the closed-form sd.

    Accepts a scalar or an array of values and returns float64: an array,
    or for a scalar a numpy.float64 (a float subclass).  Raises
    DegenerateVariance for deterministic indices, n = 2, or boundary
    probabilities, and NonFiniteSample when a value or its standardized
    value is not finite.
    """
    c = coefficients(spec, probs)
    var = _variance(c, n)
    if var <= 0 or c.deterministic:
        raise DegenerateVariance(
            f"{spec.name} has zero variance at n={n}, p_ortho={c.p_ortho}"
        )
    value = _floats(value, "standardize")
    with _finite_statistics(value, "standardize"):
        return (value - _mean(c, n)) / math.sqrt(var)


def martingale_transform(
    trajectory: Sequence[float], spec: IndexSpec, probs: LinkProbabilities
) -> np.ndarray:
    """Centered trajectory M = value - alpha_bar * (growth steps so far).

    `trajectory` holds index values of one growing chain, starting at the
    two-hexagon seed; entry j corresponds to j growth steps.  The result has
    conditionally mean-zero increments, which is what the residual check in
    the Monte Carlo layer verifies empirically.  Raises ValueError when the
    trajectory is not 1-d, and NonFiniteSample when a value or its centered
    value is not finite.
    """
    values = _floats(trajectory, "center")
    if values.ndim != 1:
        raise ValueError(f"a trajectory must be 1-d, got shape {values.shape}")
    c = coefficients(spec, probs)
    with _finite_statistics(values, "center"):
        return values - c.alpha_bar * np.arange(values.size)
