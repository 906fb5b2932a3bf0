"""Seeded simulation, sample statistics, and empirical diagnostics."""

import math

import numpy as np
import pytest
import scipy.stats

from conftest import EDGE_TRIPLES
from spirochain import (
    DegenerateVariance,
    DiscreteDistribution,
    EmptySample,
    LinkProbabilities,
    NonFiniteSample,
    NTooLarge,
    SampleSummary,
    SampleTooSmall,
    SpiroChainError,
    coefficients,
    evaluate,
    martingale_transform,
    generate,
    histogram,
    martingale_residual_check,
    normality_check,
    registry_lookup,
    replication_seed,
    rng_from_seed,
    simulate,
    standardize,
    standardized_sample,
    summarize,
)
from spirochain.chain import _held_stream

UNIFORM = LinkProbabilities.uniform()
ZAGREB1 = registry_lookup("first-zagreb")
ZAGREB2 = registry_lookup("second-zagreb")
NIRMALA = registry_lookup("nirmala")


def test_deterministic_index_simulates_to_a_constant():
    result = simulate(ZAGREB1, 100, UNIFORM, 50, seed=3)
    assert np.all(result.values == 3192.0)
    assert result.summary.variance == 0.0
    assert result.summary.skewness == 0.0


def test_seed_chain_simulates_to_ti2():
    result = simulate(NIRMALA, 2, UNIFORM, 10, seed=9)
    assert np.all(result.values == coefficients(NIRMALA, UNIFORM).ti2)


def test_simulation_is_deterministic():
    a = simulate(NIRMALA, 200, UNIFORM, 64, seed=77)
    b = simulate(NIRMALA, 200, UNIFORM, 64, seed=77)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.ortho_counts, b.ortho_counts)
    c = simulate(NIRMALA, 200, UNIFORM, 64, seed=78)
    assert not np.array_equal(a.values, c.values)


def test_incremental_values_agree_with_graph_evaluation():
    """Each replication reproduces the chain grown from its derived seed."""
    rng = np.random.default_rng(424242)
    specs = (NIRMALA, ZAGREB2, registry_lookup("sombor"))
    # The boundary probabilities pin the count-only draw to generate()'s
    # inverse CDF where u < p_ortho is all or nothing.
    probs_cycle = (
        UNIFORM,
        LinkProbabilities(0.3, 0.45, 0.25),
        LinkProbabilities.from_ortho(0.0),
        LinkProbabilities.from_ortho(1.0),
    )
    for case in range(100):
        n = int(rng.integers(2, 501))
        seed = int(rng.integers(0, 2**63))
        probs = probs_cycle[case % 4]
        chain = generate(n, probs, replication_seed(seed, 0))
        result = simulate(specs[case % 3], n, probs, 1, seed)
        direct = evaluate(specs[case % 3], chain.graph)
        assert abs(result.values[0] - direct) <= 1e-9 * abs(direct)
        assert result.ortho_counts[0] == chain.ortho_count


def test_standardized_sample_rejects_deterministic_indices():
    with pytest.raises(DegenerateVariance):
        standardized_sample(ZAGREB1, 100, UNIFORM, 10, seed=0)


def test_summarize_validation():
    with pytest.raises(EmptySample):
        summarize([])
    single = summarize([5.0])
    assert single.count == 1 and single.variance == 0.0


def test_histogram_examples():
    single = histogram([7.5] * 3, bins=4)
    assert single.total == 3
    assert np.count_nonzero(single.counts) == 1
    assert single.edges[0] == 7.0 and single.edges[-1] == 8.0

    quartet = histogram([0.0, 1.0, 2.0, 3.0], bins=2)
    assert list(quartet.counts) == [2, 2]
    assert np.allclose(quartet.edges, [0.0, 1.5, 3.0])

    with pytest.raises(EmptySample):
        histogram([], bins=3)
    with pytest.raises(ValueError):
        histogram([1.0], bins=0)


def test_histogram_conserves_mass_and_normalizes():
    sample = np.random.default_rng(1).normal(size=2500)
    hist = histogram(sample, bins=37)
    assert hist.total == 2500
    widths = np.diff(hist.edges)
    assert abs(float(np.dot(hist.densities(), widths)) - 1.0) < 1e-12


def test_standardized_histogram_tracks_the_normal_density():
    # needs large n: the coarse value lattice at small n aliases the bin grid
    sample = standardized_sample(ZAGREB2, 10000, UNIFORM, 5000, seed=7)
    hist = histogram(sample, bins=40)
    mids = (hist.edges[:-1] + hist.edges[1:]) / 2
    normal = np.exp(-mids * mids / 2) / math.sqrt(2 * math.pi)
    assert float(np.max(np.abs(hist.densities() - normal))) <= 0.05


def test_normality_check_on_true_normal_sample():
    draws = np.random.default_rng(8).standard_normal(5000)
    report = normality_check(draws)
    assert report.ks_statistic < 0.03
    assert report.passed
    reference = scipy.stats.kstest(draws, "norm").statistic
    assert math.isclose(report.ks_statistic, reference, rel_tol=1e-9)
    assert normality_check(draws.reshape(50, 100)) == report


@pytest.mark.parametrize("shift", [0.0, 0.05, -1.5])
def test_ks_statistic_matches_scipy(shift):
    draws = np.random.default_rng(11).standard_normal(3000) + shift
    draws[:50] = draws[50:100]  # ties
    reference = scipy.stats.kstest(draws, "norm").statistic
    assert abs(normality_check(draws).ks_statistic - reference) <= 1e-12


def test_normality_check_rejects_degenerate_samples():
    report = normality_check(np.zeros(500))
    assert report.ks_statistic >= 0.5
    assert not report.passed
    with pytest.raises(SampleTooSmall):
        normality_check(np.zeros(99))


def test_normality_check_flags_shifted_samples():
    draws = np.random.default_rng(12).standard_normal(5000) + 0.4
    report = normality_check(draws)
    assert not report.mean_ok
    assert not report.ks_ok


def test_martingale_residual_of_one_trajectory_is_bounded():
    c = coefficients(ZAGREB2, UNIFORM)
    single = martingale_residual_check(ZAGREB2, UNIFORM, 30, 1, seed=2)
    assert single <= 2 * max(abs(a) for a in (c.alpha_ortho, c.alpha_meta, c.alpha_para))


EDGE_SEEDS = (0, 2**63, 2**64 - 1, -1, 2**64 + 5)


def _same_state(a, b):
    """Bit-generator states equal key by key, arrays element by element."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def test_replication_streams_equal_freshly_keyed_philox():
    """Rekeyed stream r is rng_from_seed(replication_seed(seed, r)) in full
    state and draws, whatever the previous stream left in the buffer and
    whatever a generate call made between two steps drew."""
    seeds = EDGE_SEEDS + tuple(
        int(s) for s in np.random.default_rng(99).integers(0, 2**63, size=5)
    )
    pairs = 0
    for seed in seeds:
        with _held_stream() as stream:
            for r in range(110):
                rng = stream.keyed(replication_seed(seed, r))
                fresh = rng_from_seed(replication_seed(seed, r))
                assert _same_state(rng.bit_generator.state, fresh.bit_generator.state)
                assert np.array_equal(rng.random(37), fresh.random(37))
                # Leave a part-used buffer and a pending 32-bit half behind.
                assert rng.integers(2**32, dtype=np.uint32) == fresh.integers(
                    2**32, dtype=np.uint32
                )
                assert rng.bit_generator.state["has_uint32"] == 1
                generate(20, UNIFORM, seed + r)
                pairs += 1
    assert pairs >= 1000


@pytest.mark.parametrize("n", [2, 3, 60])
@pytest.mark.parametrize(
    "probs",
    [UNIFORM, LinkProbabilities(0, 0.5, 0.5), LinkProbabilities(1, 0, 0)],
    ids=["uniform", "no-ortho", "all-ortho"],
)
def test_every_replication_counts_its_generated_chain(n, probs):
    seed = 2**64 - 3 * n
    result = simulate(NIRMALA, n, probs, 300, seed)
    expected = [
        generate(n, probs, replication_seed(seed, r)).ortho_count for r in range(300)
    ]
    assert result.ortho_counts.tolist() == expected


def _reference_residual(spec, probs, n, trajectories, seed):
    """martingale_residual_check with one freshly keyed Philox per block."""
    c = coefficients(spec, probs)
    tally = np.zeros(n - 2, dtype=np.int64)
    for block, start in enumerate(range(0, trajectories, 8192)):
        size = min(8192, trajectories - start)
        u = rng_from_seed(replication_seed(seed, block)).random((size, n - 2))
        tally += np.count_nonzero(u < c.p_ortho, axis=0)
    return float(np.max(np.abs(c.B * (tally / trajectories - c.p_ortho))))


@pytest.mark.parametrize("trajectories", [1, 8192, 8193, 20000])
def test_martingale_residuals_equal_the_per_block_reference(trajectories):
    for seed in (5, 2**64 - 1):
        expected = _reference_residual(ZAGREB2, UNIFORM, 30, trajectories, seed)
        assert martingale_residual_check(ZAGREB2, UNIFORM, 30, trajectories, seed) == expected


def _reference_counts(probs, n, reps, seed):
    """simulate's ortho counts from random(): the uniforms of replication r
    below p_ortho."""
    p = float(LinkProbabilities(*probs).p_ortho)
    return [int(np.count_nonzero(rng_from_seed(replication_seed(seed, r)).random(n - 2) < p))
            for r in range(reps)]


def _on_a_uniform(seed):
    """Triples whose p_ortho is the first uniform of stream `seed`, or
    either float neighbour of it."""
    u = rng_from_seed(seed).random()
    return [(q, 1 - q, 0.0) for q in (u, math.nextafter(u, 0), math.nextafter(u, 1))]


# Replication 0 and trajectory block 0 of this seed start with a word that
# is a multiple of 2**11: the ortho threshold of its own uniform.
ON_A_WORD = 1405


@pytest.mark.parametrize("probs", EDGE_TRIPLES + _on_a_uniform(replication_seed(ON_A_WORD, 0)),
                         ids=repr)
def test_ortho_counts_equal_the_uniforms_below_p_ortho(probs):
    seed, n = ON_A_WORD, 12
    assert rng_from_seed(replication_seed(seed, 0)).bit_generator.random_raw() % 2**11 == 0
    assert simulate(NIRMALA, n, probs, 40, seed).ortho_counts.tolist() == _reference_counts(
        probs, n, 40, seed)
    for n, trajectories in ((n, 300), (3, 1)):  # (3, 1): the residual of the first word alone
        assert martingale_residual_check(ZAGREB2, probs, n, trajectories, seed) == (
            _reference_residual(ZAGREB2, probs, n, trajectories, seed))


def test_monte_carlo_builds_no_philox_of_its_own(philox_builds):
    rng_from_seed(1)
    assert len(philox_builds) == 1  # the count sees every construction
    generate(30, UNIFORM, 0)  # warm-up: this thread builds its Philox if it has none
    philox_builds.clear()
    for _ in range(2):  # a stream that was not put back shows on the second call
        simulate(NIRMALA, 40, UNIFORM, 50, seed=3)
        martingale_residual_check(ZAGREB2, UNIFORM, 10, 2 * 8192 + 1, seed=3)
    assert philox_builds == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: summarize([1.0, math.inf]),
        lambda: summarize([math.nan]),
        lambda: histogram([1.0, math.nan], 3),
        lambda: histogram([-math.inf, 0.0], 3),
        lambda: normality_check(np.r_[np.zeros(199), math.nan]),
        lambda: normality_check(np.r_[np.ones(150), -math.inf]),
    ],
    ids=["summarize-inf", "summarize-nan", "histogram-nan", "histogram-inf",
         "normality-nan", "normality-inf"],
)
def test_non_finite_samples_are_refused(call):
    with pytest.raises(NonFiniteSample, match="NaN or infinity"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: summarize([-1e308, 1e308]),
        lambda: histogram([-1e308, 1e308], 3),
        # two bins of width 5e-311 hold one sample each: density 1e310
        lambda: histogram([0.0, 1e-310], 2),
        lambda: normality_check([-1e308, 1e308] * 60),
    ],
    ids=["summarize", "histogram", "histogram-densities", "normality"],
)
def test_samples_whose_statistics_overflow_are_refused(call):
    with pytest.raises(NonFiniteSample, match="overflow float64"):
        call()


HUGE = 10**400  # a Python integer that float64 cannot hold


@pytest.mark.parametrize(
    "call",
    [
        lambda: summarize([HUGE]),
        lambda: histogram([0.0, HUGE], 3),
        lambda: normality_check([0.0] * 99 + [HUGE]),
        lambda: standardize(HUGE, registry_lookup("randic"), 10, LinkProbabilities.uniform()),
        lambda: martingale_transform([0.0, -HUGE], registry_lookup("randic"),
                                     LinkProbabilities.uniform()),
        lambda: DiscreteDistribution([1.0, HUGE], [0.5, 0.5]),
    ],
    ids=["summarize", "histogram", "normality", "standardize", "martingale", "distribution"],
)
def test_integers_beyond_the_double_range_are_refused(call):
    with pytest.raises(NonFiniteSample, match="beyond the float64 range"):
        call()


def test_non_finite_sample_is_a_value_error():
    assert issubclass(NonFiniteSample, SpiroChainError)
    assert issubclass(NonFiniteSample, ValueError)


def test_summarize_rescales_a_tiny_spread():
    # m2 ~ 2.5e-311: its 1.5th power underflows unless the sample is rescaled
    summary = summarize([0.0, 1e-155])
    assert (summary.skewness, summary.excess_kurtosis) == (0.0, -2.0)


def test_summarize_centres_a_sample_whose_mean_is_subnormal():
    # the mean 2.5e-324 rounds to 0.0, which would leave [0, 5e-324] uncentred
    summary = summarize([0.0, 5e-324])
    assert summary.mean == np.mean([0.0, 5e-324])
    assert (summary.skewness, summary.excess_kurtosis) == (0.0, -2.0)


@pytest.mark.parametrize("sample", [[0.1] * 3, [0.1] * 10, [1.7e308] * 5],
                         ids=["0.1x3", "0.1x10", "1.7e308x5"])
def test_summarize_reports_no_spread_for_a_constant_sample(sample):
    # the rounded mean of [0.1] * 3 exceeds 0.1; the sum of [1.7e308] * 5 overflows
    value = sample[0]
    assert summarize(sample) == SampleSummary(
        count=len(sample), mean=value, variance=0.0, skewness=0.0,
        excess_kurtosis=0.0, minimum=value, maximum=value,
    )


def test_histogram_of_a_range_too_narrow_names_the_range():
    with pytest.raises(NTooLarge, match=r"range \[0\.0, 5e-324\] is too narrow"):
        histogram([0.0, 5e-324], 3)


@pytest.mark.parametrize("trajectories", [2**63, 10**400], ids=["2**63", "10**400"])
def test_trajectories_beyond_the_int64_tally_raise(trajectories):
    with pytest.raises(NTooLarge, match=r"trajectories=\d+ exceeds the int64 range"):
        martingale_residual_check(NIRMALA, UNIFORM, 5, trajectories, 0)
