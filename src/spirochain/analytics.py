"""Closed-form laws of index values on random spiro chains.

Every growth step adds the same local structure, so the value of an index
on a chain is an affine function of two observables: the hexagon count n
and the number of ortho links (equivalently, of adjacent degree-4 pairs).
With per-link increments alpha_i = TI(3-hexagon chain, link i) - TI(seed),
the meta and para increments always coincide, which collapses the law of
the value onto a single binomial count.  That reduction drives everything
here: moments, the exact distribution, the moment generating function, the
centered (martingale) transform, and the cross-index comparison.

The increments are computed by evaluating the index on the closed-form
degree profiles of the 2- and 3-hexagon chains, not from transcribed
per-index formulas; hand-derived constants live in the test suite as
assertions.  Only p_ortho enters any law: the meta and para links add the
same increment, so their split never matters.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import LinkProbabilities, _coerce_probs, allocating, replay
from .errors import DegenerateVariance, NonFiniteSample, UndefinedBase, require_n
from .indices import IndexKind, IndexSpec, evaluate_from_profile, registry_lookup

# Relative gap between the ortho and meta increments below which an index
# is treated as deterministic on chains.
_DETERMINISTIC_RTOL = 1e-12

COMPARISON_ORDER = ("randic", "nirmala", "sombor", "first-zagreb", "second-zagreb")

# The 2-hexagon seed and the 3-hexagon chains grown from it by an ortho and
# by a meta link (para yields the meta profile).
_GROWTH_CHAINS = (replay(""), replay("O"), replay("M"))


@dataclass(frozen=True)
class ChainCoefficients:
    """Analytic constants of one index on random spiro chains.

    On any chain, value = A + B * m44 + C * n, where m44 counts adjacent
    degree-4 pairs (equal to the number of ortho links).  For vertex-kind
    indices B is 0: their value depends on n alone.  p_ortho is the one
    probability the laws read.
    """

    ti2: float
    alpha_ortho: float
    alpha_meta: float
    alpha_para: float
    alpha_bar: float
    beta: float
    A: float
    B: float
    C: float
    deterministic: bool
    p_ortho: float


def coefficients(spec: IndexSpec, probs: LinkProbabilities) -> ChainCoefficients:
    """Per-link increments and derived constants of `spec` on chains.

    Meta and para links add the same increment, so alpha_bar and beta
    depend on the probabilities only through p_ortho; with B = 0 this keeps
    deterministic indices exactly deterministic in floating point.
    Raises UndefinedBase when a constant overflows the double range.
    """
    if spec.kind is IndexKind.EDGE:
        profiles = [chain.edge_profile() for chain in _GROWTH_CHAINS]
    else:
        profiles = [chain.vertex_profile() for chain in _GROWTH_CHAINS]
    ti2, ortho, meta = (evaluate_from_profile(spec, p) for p in profiles)
    alpha_ortho = ortho - ti2
    alpha_meta = meta - ti2
    b = alpha_ortho - alpha_meta
    p = float(_coerce_probs(probs).p_ortho)
    alpha_bar = alpha_meta + b * p
    beta = alpha_meta * alpha_meta + (
        alpha_ortho * alpha_ortho - alpha_meta * alpha_meta
    ) * p
    if not all(map(math.isfinite, (ti2, alpha_ortho, alpha_meta, beta))):
        raise UndefinedBase(
            f"{spec.name}: the chain constants are not finite: the index values "
            "overflow the double range"
        )
    scale = max(1.0, abs(alpha_ortho), abs(alpha_meta))
    return ChainCoefficients(
        ti2=ti2,
        alpha_ortho=alpha_ortho,
        alpha_meta=alpha_meta,
        alpha_para=alpha_meta,
        alpha_bar=alpha_bar,
        beta=beta,
        A=ti2 - 2.0 * alpha_meta,
        B=b,
        C=alpha_meta,
        deterministic=abs(b) <= _DETERMINISTIC_RTOL * scale,
        p_ortho=p,
    )


def _finite(law):
    """Make a closed form in (coefficients, n, *args) check n (require_n) and
    raise UndefinedBase when its value, or n itself, does not fit the double range."""
    def checked(c: ChainCoefficients, n: int, *args) -> float:
        try:
            value = law(c, require_n(n), *args)
        except OverflowError:  # n - 2 does not convert to a double, or exp() overflows
            value = math.inf
        if not math.isfinite(value):
            raise UndefinedBase(f"the {law.__name__[1:].replace('_', ' ')} is not "
                                "finite: n or the index values overflow the double range")
        return value
    return checked


@_finite
def _mean(c: ChainCoefficients, n: int) -> float:
    return c.ti2 + c.alpha_bar * (n - 2)


@_finite
def _variance(c: ChainCoefficients, n: int) -> float:
    # Spread form of beta - alpha_bar**2; non-negative by construction.
    return c.B * c.B * c.p_ortho * (1.0 - c.p_ortho) * (n - 2)


@_finite
def _second_moment(c: ChainCoefficients, n: int) -> float:
    return _variance(c, n) + _mean(c, n) ** 2


def _log_mgf(c: ChainCoefficients, n: int, t: float) -> float:
    # log(w_lo e**lo + w_hi e**hi) = hi + log1p(w_lo * expm1(lo - hi)) as
    # w_lo + w_hi = 1; it is lo when w_hi is 0.  The two-hexagon chain
    # takes no step, so an infinite one must not enter as 0 * inf.  As a
    # Python float, t overflows to inf without numpy's warning, and an
    # integer beyond the double range raises OverflowError, which _finite maps.
    t = float(t)
    (w_lo, lo), (w_hi, hi) = sorted(
        ((c.p_ortho, t * c.alpha_ortho), (1.0 - c.p_ortho, t * c.alpha_meta)),
        key=lambda term: term[1])
    step = lo if w_hi == 0 else hi + math.log1p(w_lo * math.expm1(lo - hi if lo < hi else 0.0))
    return t * c.ti2 + ((n - 2) * step if n > 2 else 0.0)


@_finite
def _mgf(c: ChainCoefficients, n: int, t: float) -> float:
    return math.exp(_log_mgf(c, n, t))


def _values(c: ChainCoefficients, steps: int, k):
    """Index values of chains with `steps` growth links, k of them ortho;
    ti2 + ... keeps the two-hexagon chain (steps = 0) exactly at ti2."""
    return (c.ti2 + c.alpha_meta * steps) + c.B * k


def expected_value(spec: IndexSpec, n: int, probs: LinkProbabilities) -> float:
    """Mean index value over random chains with n hexagons."""
    return _mean(coefficients(spec, probs), n)


def variance(spec: IndexSpec, n: int, probs: LinkProbabilities) -> float:
    """Variance of the index value over random chains with n hexagons."""
    return _variance(coefficients(spec, probs), n)


def second_moment(spec: IndexSpec, n: int, probs: LinkProbabilities) -> float:
    """Mean of the squared index value over random chains with n hexagons."""
    return _second_moment(coefficients(spec, probs), n)


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


def mgf(spec: IndexSpec, n: int, probs: LinkProbabilities, t: float) -> float:
    """Moment generating function of the index value at argument t:
    exp(log_mgf(spec, n, probs, t)), 0.0 where that underflows, and within
    1e-13 relative of a 60-digit reference.  Raises UndefinedBase where it
    overflows the double range (or t is NaN, or t or n is beyond the double
    range).
    """
    return _mgf(coefficients(spec, probs), n, t)


def log_mgf(spec: IndexSpec, n: int, probs: LinkProbabilities, t: float) -> float:
    """Natural log of mgf(spec, n, probs, t), finite where mgf overflows:
    t * ti2 + (n-2) * log(p_ortho * exp(t * alpha_ortho) + (1 - p_ortho) *
    exp(t * alpha_meta)), the step taken through log1p and expm1, within
    1e-15 relative of a 60-digit reference.  Raises UndefinedBase when the
    result is not finite (or t is NaN, or t or n is beyond the double range).
    """
    return _finite(_log_mgf)(coefficients(spec, probs), n, t)


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


@dataclass(frozen=True)
class ExpectationOrdering:
    """Expected values of the five comparison indices, with each adjacent
    inequality recomputed rather than assumed."""

    names: tuple[str, ...]
    expectations: tuple[float, ...]
    holds: tuple[bool, ...]

    @property
    def all_ordered(self) -> bool:
        return all(self.holds)

    def pairs(self) -> tuple[tuple[str, str, bool], ...]:
        return tuple(
            (self.names[i], self.names[i + 1], self.holds[i])
            for i in range(len(self.holds))
        )


def compare_expectations(n: int, probs: LinkProbabilities) -> ExpectationOrdering:
    """Expected Randic, Nirmala, Sombor and Zagreb values, in that order."""
    values = tuple(
        expected_value(registry_lookup(name), n, probs) for name in COMPARISON_ORDER
    )
    holds = tuple(values[i] <= values[i + 1] for i in range(len(values) - 1))
    return ExpectationOrdering(COMPARISON_ORDER, values, holds)
