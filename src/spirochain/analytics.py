"""Closed-form laws of index values on random spiro chains.

Every growth step adds the same local structure, so the value of an index
on a chain is an affine function of two observables: the hexagon count n
and the number of ortho links (equivalently, of adjacent degree-4 pairs).
With per-link increments alpha_i = TI(3-hexagon chain, link i) - TI(seed),
the meta and para increments always coincide, which collapses the law of
the value onto a single binomial count.  That reduction drives everything
here: moments, the exact distribution, the moment generating function, the
centered (martingale) transform, and the cross-index comparison.

The increments are computed by evaluating the index on actual small chains,
not from transcribed per-index formulas; hand-derived constants live in the
test suite as assertions.  Only p_ortho enters any law: the meta and para
links add the same increment, so their split never matters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import LinkProbabilities, LinkType, grow, initial_chain, require_n
from .errors import DegenerateVariance, UndefinedBase
from .graph import MolecularGraph
from .indices import IndexSpec, evaluate, registry_lookup

# Relative gap between the ortho and meta increments below which an index
# is treated as deterministic on chains.
_DETERMINISTIC_RTOL = 1e-12

COMPARISON_ORDER = ("randic", "nirmala", "sombor", "first-zagreb", "second-zagreb")

# Stirling-formula error log(k!) - log(sqrt(2 pi k) (k/e)^k) for k = 0..15
# (the k = 0 entry is never read), and the coefficients of its asymptotic
# series 1/(12k) - 1/(360k^3) + ... used above that.
_STIRLERR = np.array([
    0.0,
    0.0810614667953272582196702,
    0.0413406959554092940938221,
    0.02767792568499833914878929,
    0.02079067210376509311152277,
    0.01664469118982119216319487,
    0.01387612882307074799874573,
    0.01189670994589177009505572,
    0.010411265261972096497478567,
    0.009255462182712732917728637,
    0.008330563433362871256469318,
    0.007573675487951840794972024,
    0.006942840107209529865664152,
    0.006408994188004207068439631,
    0.005951370112758847735624416,
    0.005554733551962801371038690,
])
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
_LN_2PI = math.log(2.0 * math.pi)


@functools.cache
def _growth_graphs() -> tuple[MolecularGraph, MolecularGraph, MolecularGraph]:
    """The 2-hexagon seed and the 3-hexagon chains grown from it by an ortho
    and by a meta link (para attachment yields the same degree profile)."""
    seed = initial_chain(2)
    return (
        seed.graph,
        grow(seed, LinkType.ORTHO).graph,
        grow(seed, LinkType.META).graph,
    )


@dataclass(frozen=True)
class ChainCoefficients:
    """Analytic constants of one index on random spiro chains.

    On any chain, value = A + B * m44 + C * n, where m44 counts adjacent
    degree-4 pairs (equal to the number of ortho links).  For vertex-kind
    indices B is 0: their value depends on n alone.
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

    @property
    def alphas(self) -> tuple[float, float, float]:
        return (self.alpha_ortho, self.alpha_meta, self.alpha_para)


def coefficients(spec: IndexSpec, probs: LinkProbabilities) -> ChainCoefficients:
    """Per-link increments and derived constants of `spec` on chains.

    Meta and para links add the same increment, so alpha_bar and beta
    depend on the probabilities only through p_ortho; with B = 0 this keeps
    deterministic indices exactly deterministic in floating point.
    Raises UndefinedBase when a constant overflows the double range.
    """
    ti2, ortho, meta = (evaluate(spec, g) for g in _growth_graphs())
    alpha_ortho = ortho - ti2
    alpha_meta = meta - ti2
    b = alpha_ortho - alpha_meta
    p = float(probs.p_ortho)
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
    )


def expected_value(spec: IndexSpec, n: int, probs: LinkProbabilities) -> float:
    """Mean index value over random chains with n hexagons."""
    n = require_n(n)
    c = coefficients(spec, probs)
    return c.ti2 + c.alpha_bar * (n - 2)


def variance(spec: IndexSpec, n: int, probs: LinkProbabilities) -> float:
    """Variance of the index value over random chains with n hexagons."""
    n = require_n(n)
    c = coefficients(spec, probs)
    p = float(probs.p_ortho)
    # Spread form of beta - alpha_bar**2; non-negative by construction.
    return c.B * c.B * p * (1.0 - p) * (n - 2)


def second_moment(spec: IndexSpec, n: int, probs: LinkProbabilities) -> float:
    """Mean of the squared index value over random chains with n hexagons."""
    n = require_n(n)
    c = coefficients(spec, probs)
    return (
        c.ti2 * c.ti2
        + (2.0 * c.alpha_bar * c.ti2 + c.beta) * (n - 2)
        + (n - 3) * (n - 2) * c.alpha_bar * c.alpha_bar
    )


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finite law of an index value: support, matching pmf, and (when the
    value is a non-degenerate function of it) the ortho count behind each
    support point."""

    support: np.ndarray
    pmf: np.ndarray
    ortho_counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        pmf = np.asarray(self.pmf, dtype=float)
        if support.shape != pmf.shape or support.ndim != 1 or support.size == 0:
            raise ValueError("support and pmf must be matching 1-d arrays")
        if np.any(pmf < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(pmf.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {pmf.sum()!r}, expected 1")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support values must be strictly increasing")
        support.setflags(write=False)
        pmf.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "pmf", pmf)
        if self.ortho_counts is not None:
            counts = np.asarray(self.ortho_counts, dtype=np.int64)
            counts.setflags(write=False)
            object.__setattr__(self, "ortho_counts", counts)

    def mean(self) -> float:
        return float(np.dot(self.pmf, self.support))

    def variance(self) -> float:
        centered = self.support - self.mean()
        return float(np.dot(self.pmf, centered * centered))


def _stirlerr(k):
    """Stirling-formula error at integer-valued floats k >= 1."""
    big = np.maximum(k, 16.0)
    kk = big * big
    series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / big
    return np.where(k <= 15, _STIRLERR[np.minimum(k, 15).astype(np.intp)], series)


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    """Deviance term x log(x / mean) + mean - x, by its series near the mean."""
    with np.errstate(over="ignore"):  # x / mean when p is subnormal
        out = x * np.log(x / mean) + mean - x
    near = np.abs(x - mean) < 0.1 * (x + mean)
    xs = x[near]
    v = (xs - mean) / (xs + mean)
    s = (xs - mean) * v
    term = 2.0 * xs * v
    v *= v
    for odd in range(3, 2000, 2):
        term *= v
        nxt = s + term / odd
        if np.array_equal(nxt, s):
            break
        s = nxt
    out[near] = s
    return out


def _binomial_pmf(steps: int, p: float) -> np.ndarray:
    """Binomial(steps, p) probabilities of k = 0..steps in Loader's
    saddle-point form."""
    pmf = np.zeros(steps + 1)
    if p == 0.0 or p == 1.0:
        pmf[0 if p == 0.0 else steps] = 1.0
        return pmf
    pmf[0] = math.exp(steps * math.log1p(-p))
    pmf[steps] = math.exp(steps * math.log(p))
    if steps > 1:
        k = np.arange(1.0, steps)
        rest = steps - k
        log_c = (
            _stirlerr(float(steps))
            - _stirlerr(k)
            - _stirlerr(rest)
            - _bd0(k, steps * p)
            - _bd0(rest, steps * (1.0 - p))
        )
        # k * rest is exact below 2**53, unlike 1 - k/steps near k = steps
        log_f = _LN_2PI + np.log(k * rest / steps)
        pmf[1:steps] = np.exp(log_c - 0.5 * log_f)
    return pmf


def exact_distribution(
    spec: IndexSpec, n: int, probs: LinkProbabilities
) -> DiscreteDistribution:
    """Exact law of the index value on random chains with n hexagons.

    The value is base + B * k with k the binomially distributed ortho count,
    so the support has n-1 points (one atom when the index is deterministic
    or n = 2).  When |B| is below the float spacing of the values, points
    that round to the same double are merged, their probabilities summed,
    and ortho_counts is None.  The binomial probabilities use Loader's
    saddle-point method (C. Loader, "Fast and Accurate Computation of
    Binomial Probabilities", 2000).
    """
    n = require_n(n)
    c = coefficients(spec, probs)
    steps = n - 2
    if c.deterministic or steps == 0:
        atom = c.ti2 + c.alpha_bar * steps
        return DiscreteDistribution(np.array([atom]), np.array([1.0]), None)
    k = np.arange(steps + 1)
    values = (c.ti2 + c.alpha_meta * steps) + c.B * k
    pmf = _binomial_pmf(steps, float(probs.p_ortho))
    if c.B < 0:
        values, pmf, k = values[::-1], pmf[::-1], k[::-1]
    if np.any(values[1:] == values[:-1]):
        values, slot = np.unique(values, return_inverse=True)
        return DiscreteDistribution(values, np.bincount(slot, weights=pmf), None)
    return DiscreteDistribution(values, pmf, k)


def mgf(spec: IndexSpec, n: int, probs: LinkProbabilities, t: float) -> float:
    """Moment generating function of the index value at argument t.

    Factorizes as exp(t * ti2) times the per-step factor
    p_ortho * exp(t * alpha_ortho) + (1 - p_ortho) * exp(t * alpha_meta)
    raised to n-2.
    Raises the built-in OverflowError when t and the increments push the
    result past the double range.
    """
    n = require_n(n)
    c = coefficients(spec, probs)
    p = float(probs.p_ortho)
    step = p * math.exp(t * c.alpha_ortho) + (1.0 - p) * math.exp(t * c.alpha_meta)
    return math.exp(t * c.ti2) * step ** (n - 2)


def standardize(value, spec: IndexSpec, n: int, probs: LinkProbabilities):
    """Center by the closed-form mean and scale by the closed-form sd.

    Accepts a scalar or an array of values.  Raises DegenerateVariance for
    deterministic indices, n = 2, or boundary probabilities.
    """
    var = variance(spec, n, probs)
    if var <= 0 or coefficients(spec, probs).deterministic:
        raise DegenerateVariance(
            f"{spec.name} has zero variance at n={n}, p_ortho={probs.p_ortho}"
        )
    return (value - expected_value(spec, n, probs)) / math.sqrt(var)


def martingale_transform(
    trajectory: Sequence[float], spec: IndexSpec, probs: LinkProbabilities
) -> np.ndarray:
    """Centered trajectory M = value - alpha_bar * (growth steps so far).

    `trajectory` holds index values of one growing chain, starting at the
    two-hexagon seed; entry j corresponds to j growth steps.  The result has
    conditionally mean-zero increments, which is what the residual check in
    the Monte Carlo layer verifies empirically.
    """
    values = np.asarray(trajectory, dtype=float)
    c = coefficients(spec, probs)
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
