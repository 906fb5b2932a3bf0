"""Seeded Monte Carlo over random spiro chains.

Each replication derives its own Philox stream from the master seed
(seed XOR splitmix64(index)), so results do not depend on how replications
are scheduled.  The replications of one call share one Philox, rekeyed to
each derived seed in turn: a rekey costs a fraction of building a Philox.
An index value is ti2 + alpha_meta * (n-2) + B * k with k the ortho count,
so a replication only counts its Philox words below the ortho threshold of
generate()'s inverse-CDF draw (chain._word_thresholds): the words whose
uniforms fall below p_ortho, found without making the uniforms.  No link
sequence or graph is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics
from .chain import LinkProbabilities, _held_stream, _word_thresholds, replication_seed
from .errors import EmptySample, NTooLarge, SampleTooSmall, allocating, require_n
from .indices import IndexSpec

_TRAJECTORY_BLOCK = 8192

_erf = np.frompyfunc(math.erf, 1, 1)


def _ortho_threshold(probs: LinkProbabilities) -> np.uint64 | None:
    """The word threshold of an ortho link, or None for p_ortho = 1: every word."""
    thresholds = _word_thresholds(probs)
    return thresholds[0] if thresholds.size else None


@dataclass(frozen=True)
class SampleSummary:
    """Moments and range of one sample.

    Variance is the unbiased estimate; skewness and excess kurtosis use the
    plain central-moment ratios.  A constant sample reports its value as the
    mean and 0 for variance, skewness and excess kurtosis.
    """

    count: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    minimum: float
    maximum: float


def summarize(values) -> SampleSummary:
    x = analytics._floats(values, "summarize")
    if x.size == 0:
        raise EmptySample("cannot summarize an empty sample")
    with analytics._finite_statistics(x, "summarize"):
        lo, hi = float(x.min()), float(x.max())
        if lo == hi:  # a rounded mean would leave a spurious spread
            return SampleSummary(int(x.size), lo, 0.0, 0.0, 0.0, lo, hi)
        mean = float(x.mean())
        # The ratios are scale-free: rescaling by a power of two is exact.
        # Scaling by the largest magnitude before centring keeps a
        # subnormal mean from rounding; scaling the centred sample by its
        # spread (not 0: the sample holds two distinct values) keeps
        # m2**1.5 from underflowing.
        y = np.ldexp(x, -math.frexp(float(np.max(np.abs(x))))[1])
        centered = y - y.mean()
        z = np.ldexp(centered, -math.frexp(float(np.max(np.abs(centered))))[1])
        m2 = float(np.mean(z * z))
        return SampleSummary(
            count=int(x.size),
            mean=mean,
            variance=float(x.var(ddof=1)),
            skewness=float(np.mean(z**3)) / m2**1.5,
            excess_kurtosis=float(np.mean(z**4)) / (m2 * m2) - 3.0,
            minimum=lo,
            maximum=hi,
        )


@dataclass(frozen=True)
class SimulationResult:
    """Raw per-replication values, their ortho counts, and the summary."""

    values: np.ndarray
    ortho_counts: np.ndarray
    summary: SampleSummary


def simulate(
    spec: IndexSpec, n: int, probs: LinkProbabilities, reps: int, seed: int
) -> SimulationResult:
    """Simulate `reps` independent chains and their index values.

    Deterministic for fixed (spec, n, probs, reps, seed): replication r has
    the ortho count, and so the value, of the chain that generate() grows
    from the derived seed replication_seed(seed, r).
    """
    steps = require_n(n) - 2
    reps = require_n(reps, minimum=1, name="reps")
    c = analytics.coefficients(spec, probs)
    below = _ortho_threshold(probs)
    with allocating(reps, "reps"):
        ortho = np.empty(reps, dtype=np.int64)
    with allocating(n), _held_stream() as stream:
        for r in range(reps):
            words = stream.keyed(replication_seed(seed, r)).bit_generator.random_raw(steps)
            ortho[r] = steps if below is None else np.count_nonzero(words < below)
    values = analytics._values(c, steps, ortho)
    values.setflags(write=False)
    ortho.setflags(write=False)
    return SimulationResult(values, ortho, summarize(values))


def standardized_sample(
    spec: IndexSpec, n: int, probs: LinkProbabilities, reps: int, seed: int
) -> np.ndarray:
    """Simulated values centered and scaled by the closed-form moments."""
    # Surface DegenerateVariance before paying for the simulation.
    analytics.standardize(0.0, spec, n, probs)
    sim = simulate(spec, n, probs, reps, seed)
    return analytics.standardize(sim.values, spec, n, probs)


@dataclass(frozen=True)
class HistogramData:
    """Uniform-width histogram; right-open bins, last bin closed."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def densities(self) -> np.ndarray:
        widths = np.diff(self.edges)
        return self.counts / (self.total * widths)


def histogram(samples, bins: int) -> HistogramData:
    """Bin the samples into `bins` uniform bins spanning [min, max], or
    [v - 0.5, v + 0.5] for a constant sample v (numpy's rule); a range too
    narrow for `bins` distinct edges (a constant 1e20, say) raises NTooLarge
    naming it, and one whose densities overflow float64 raises
    NonFiniteSample."""
    x = analytics._floats(samples, "histogram")
    if x.size == 0:
        raise EmptySample("cannot histogram an empty sample")
    with analytics._finite_statistics(x, "histogram"):
        bins = require_n(bins, minimum=1, name="bins")
        with allocating(bins, "bins"):
            try:
                counts, edges = np.histogram(x, bins=bins)
            except ValueError as exc:
                if "data range" not in str(exc):  # numpy found coinciding edges
                    raise
                lo, hi = float(x.min()), float(x.max())
                raise NTooLarge(f"the sample's range [{lo!r}, {hi!r}] is too narrow "
                                f"to split into {bins} bins") from None
            except IndexError:  # numpy's bin count overflows from 2**63 - 2 up
                raise NTooLarge(f"bins={bins} is too large for numpy's histogram") from None
        hist = HistogramData(edges=edges, counts=counts)
        hist.densities()
    return hist


@dataclass(frozen=True)
class NormalityReport:
    ks_statistic: float
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_ok: bool
    mean_ok: bool
    variance_ok: bool
    skewness_ok: bool

    @property
    def passed(self) -> bool:
        return self.ks_ok and self.mean_ok and self.variance_ok and self.skewness_ok


def normality_check(samples) -> NormalityReport:
    """Kolmogorov-Smirnov statistic against N(0, 1), plus moment gates.

    The sample passes when KS < 0.03, |mean| < 0.05, |variance - 1| < 0.05
    and |skewness| < 0.1.  The reference CDF is evaluated through math.erf.
    Requires at least 100 samples, all finite, whose moments fit in
    float64 (summarize checks).
    """
    x = analytics._floats(samples, "check").ravel()
    if x.size < 100:
        raise SampleTooSmall(f"need at least 100 samples, got {x.size}")
    stats = summarize(x)
    ordered = np.sort(x)
    cdf = 0.5 * (1.0 + _erf(ordered / math.sqrt(2.0)).astype(float))
    ranks = np.arange(1, x.size + 1, dtype=float)
    d_plus = float(np.max(ranks / x.size - cdf))
    d_minus = float(np.max(cdf - (ranks - 1) / x.size))
    ks = max(d_plus, d_minus)
    return NormalityReport(
        ks_statistic=ks,
        mean=stats.mean,
        variance=stats.variance,
        skewness=stats.skewness,
        excess_kurtosis=stats.excess_kurtosis,
        ks_ok=ks < 0.03,
        mean_ok=abs(stats.mean) < 0.05,
        variance_ok=abs(stats.variance - 1.0) < 0.05,
        skewness_ok=abs(stats.skewness) < 0.1,
    )


def martingale_residual_check(
    spec: IndexSpec,
    probs: LinkProbabilities,
    n: int,
    trajectories: int,
    seed: int,
) -> float:
    """Largest per-step mean increment of the centered trajectory.

    The centered increment value_j - value_{j-1} - alpha_bar of growth step
    j is B * (1[link j is ortho] - p_ortho), so its average over many
    independent trajectories is B times the gap between step j's ortho
    frequency and p_ortho.  Returns the maximum absolute average over the
    steps; it shrinks like 1/sqrt(trajectories) when the centering is
    right, and is exactly 0 for indices with B = 0.

    Trajectories are drawn in blocks of 8192; block b uses the stream
    seeded by replication_seed(seed, b), one row of n-2 words per
    trajectory, each ortho when below the ortho threshold.
    """
    steps = require_n(n, minimum=3) - 2
    trajectories = require_n(trajectories, minimum=1, name="trajectories")
    if trajectories > np.iinfo(np.int64).max:
        raise NTooLarge(f"trajectories={trajectories} exceeds the int64 range "
                        "of the tally that counts it")
    c = analytics.coefficients(spec, probs)
    below = _ortho_threshold(probs)
    with allocating(n), _held_stream() as stream:
        tally = np.zeros(steps, dtype=np.int64)
        for block, start in enumerate(range(0, trajectories, _TRAJECTORY_BLOCK)):
            size = min(_TRAJECTORY_BLOCK, trajectories - start)
            words = stream.keyed(replication_seed(seed, block)).bit_generator.random_raw(
                size * steps).reshape(size, steps)
            tally += size if below is None else np.count_nonzero(words < below, axis=0)
    return float(np.max(np.abs(c.B * (tally / trajectories - c.p_ortho))))
