"""Closed-form moments, exact distribution, MGF, and the centered transform."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_close
from spirochain import (
    DegenerateVariance,
    DiscreteDistribution,
    InvalidN,
    LinkProbabilities,
    LinkType,
    UndefinedBase,
    coefficients,
    compare_expectations,
    evaluate,
    exact_distribution,
    expected_value,
    grow,
    initial_chain,
    martingale_residual_check,
    martingale_transform,
    mgf,
    registry_lookup,
    second_moment,
    simulate,
    standardize,
    variance,
)

UNIFORM = LinkProbabilities.uniform()
HALF = LinkProbabilities(0.5, 0.25, 0.25)

NIRMALA = registry_lookup("nirmala")
SOMBOR = registry_lookup("sombor")
RANDIC = registry_lookup("randic")
ZAGREB1 = registry_lookup("first-zagreb")
ZAGREB2 = registry_lookup("second-zagreb")

normalized_probs = st.tuples(
    st.floats(0.01, 1), st.floats(0.01, 1), st.floats(0.01, 1)
).map(lambda t: LinkProbabilities(*(p / sum(t) for p in t)))


def test_known_closed_form_constants():
    sqrt2, sqrt5, sqrt6 = math.sqrt(2), math.sqrt(5), math.sqrt(6)
    cases = {
        NIRMALA: (8 - 4 * sqrt6, 2 - 2 * sqrt6 + 2 * sqrt2, 4 + 4 * sqrt6),
        RANDIC: (2 - sqrt2, 0.75 - sqrt2 / 2, 1 + sqrt2),
        SOMBOR: (8 * sqrt2 - 8 * sqrt5, 6 * sqrt2 - 4 * sqrt5, 4 * sqrt2 + 8 * sqrt5),
        ZAGREB2: (-16.0, 4.0, 40.0),
    }
    for spec, (a, b, c) in cases.items():
        got = coefficients(spec, UNIFORM)
        assert abs(got.A - a) < 1e-12
        assert abs(got.B - b) < 1e-12
        assert abs(got.C - c) < 1e-12


def test_meta_and_para_increments_coincide_exactly():
    for spec in (NIRMALA, SOMBOR, RANDIC, ZAGREB1, ZAGREB2):
        c = coefficients(spec, HALF)
        assert c.alpha_meta == c.alpha_para


def test_deterministic_detection():
    assert coefficients(ZAGREB1, UNIFORM).deterministic
    linear = registry_lookup("variable-sum-connectivity", a=1.0)
    c = coefficients(linear, UNIFORM)
    assert c.deterministic and c.B == 0.0
    assert not coefficients(NIRMALA, UNIFORM).deterministic


def test_per_realization_identity_on_one_chain():
    chain = grow(grow(initial_chain(2), LinkType.ORTHO), LinkType.PARA)
    for spec in (NIRMALA, ZAGREB2, SOMBOR):
        c = coefficients(spec, UNIFORM)
        predicted = c.A + c.B * 1 + c.C * chain.n
        assert rel_close(evaluate(spec, chain.graph), predicted, 1e-12)


def test_expected_value_examples():
    assert expected_value(ZAGREB2, 10, HALF) == 400.0
    assert expected_value(ZAGREB1, 7, UNIFORM) == 216.0
    c = coefficients(SOMBOR, HALF)
    assert expected_value(SOMBOR, 2, HALF) == c.ti2
    with pytest.raises(InvalidN):
        expected_value(ZAGREB2, 1, HALF)


def test_variance_examples():
    assert variance(ZAGREB2, 10, HALF) == 32.0
    assert variance(ZAGREB1, 50, HALF) == 0.0
    assert variance(NIRMALA, 2, UNIFORM) == 0.0
    # boundary probabilities are allowed and collapse the variance
    assert variance(ZAGREB2, 10, LinkProbabilities(1.0, 0.0, 0.0)) == 0.0


def test_second_moment_examples(enum_oracle):
    c = coefficients(NIRMALA, UNIFORM)
    assert second_moment(NIRMALA, 2, UNIFORM) == c.ti2 * c.ti2
    assert second_moment(ZAGREB1, 5, UNIFORM) == 152.0**2

    weights = enum_oracle.weights(4, UNIFORM)
    values = enum_oracle.values(4, ZAGREB2)
    oracle = float(np.dot(weights, values * values))
    assert rel_close(second_moment(ZAGREB2, 4, UNIFORM), oracle, 1e-12)


def test_second_moment_is_variance_plus_squared_mean():
    for spec in (NIRMALA, RANDIC, ZAGREB2):
        for n in (2, 3, 17, 400):
            lhs = second_moment(spec, n, HALF)
            rhs = variance(spec, n, HALF) + expected_value(spec, n, HALF) ** 2
            assert rel_close(lhs, rhs, 1e-9)


def test_moments_match_enumeration(enum_oracle):
    probs = LinkProbabilities(0.2, 0.45, 0.35)
    for spec in (NIRMALA, ZAGREB2):
        for n in (3, 5, 6):
            w = enum_oracle.weights(n, probs)
            v = enum_oracle.values(n, spec)
            mean = float(np.dot(w, v))
            centered = v - mean
            var = float(np.dot(w, centered * centered))
            assert rel_close(expected_value(spec, n, probs), mean, 1e-10)
            assert rel_close(variance(spec, n, probs), var, 1e-10)


def test_exact_distribution_small_case():
    dist = exact_distribution(ZAGREB2, 4, UNIFORM)
    assert np.allclose(dist.support, [144.0, 148.0, 152.0], atol=1e-12)
    assert np.allclose(dist.pmf, [4 / 9, 4 / 9, 1 / 9], atol=1e-12)
    assert list(dist.ortho_counts) == [0, 1, 2]


def test_exact_distribution_degenerate_cases():
    atom = exact_distribution(SOMBOR, 2, HALF)
    assert atom.support.size == 1 and atom.pmf[0] == 1.0
    assert atom.support[0] == coefficients(SOMBOR, HALF).ti2

    det = exact_distribution(ZAGREB1, 40, HALF)
    assert det.support.size == 1
    assert det.support[0] == 32 * 40 - 8


def test_exact_distribution_support_spacing():
    dist = exact_distribution(NIRMALA, 4, UNIFORM)
    b = coefficients(NIRMALA, UNIFORM).B
    assert dist.support.size == 3
    assert np.allclose(np.diff(dist.support), abs(b), rtol=1e-12)
    # descending ortho counts when the ortho increment is the smaller one
    assert list(dist.ortho_counts) == [2, 1, 0]


def test_exact_distribution_moments_match_closed_forms():
    for spec in (NIRMALA, SOMBOR, RANDIC, ZAGREB2):
        for n, probs in [(3, HALF), (25, UNIFORM), (120, LinkProbabilities(0.9, 0.05, 0.05))]:
            dist = exact_distribution(spec, n, probs)
            assert rel_close(dist.mean(), expected_value(spec, n, probs), 1e-10)
            assert rel_close(dist.variance(), variance(spec, n, probs), 1e-10)


ORACLE_P_ORTHO = (0.0, 1e-9, 1e-3, 0.3, 1 / 3, 0.5, 0.9, 0.999, 1.0)


def assert_pmf_matches_scipy(steps, p_ortho):
    dist = exact_distribution(ZAGREB2, steps + 2, LinkProbabilities.from_ortho(p_ortho))
    reference = scipy.stats.binom.pmf(dist.ortho_counts, steps, p_ortho)
    assert abs(float(dist.pmf.sum()) - 1.0) <= 1e-12
    kept = reference >= 1e-300
    relative = np.abs(dist.pmf[kept] - reference[kept]) / reference[kept]
    assert float(relative.max()) <= 1e-10
    assert np.all(dist.pmf[~kept] < 1.1e-300)


@pytest.mark.parametrize("steps", [1, 2, 3, 10, 48, 998, 9998])
@pytest.mark.parametrize("p_ortho", ORACLE_P_ORTHO)
def test_exact_distribution_pmf_matches_scipy(steps, p_ortho):
    assert_pmf_matches_scipy(steps, p_ortho)


def test_exact_distribution_pmf_matches_scipy_at_a_million_steps():
    # the largest drift from scipy on the oracle grid occurs here
    assert_pmf_matches_scipy(999998, 0.3)


def test_exact_distribution_merges_coincident_support_points():
    # |B| ~ 1.2e-11 lies below the float spacing of values near 1.2e5
    spec = registry_lookup("variable-sum-connectivity", 1e-10)
    n = 20000
    dist = exact_distribution(spec, n, UNIFORM)
    assert dist.ortho_counts is None
    assert 1 < dist.support.size < n - 1
    assert np.all(np.diff(dist.support) > 0)
    assert abs(float(dist.pmf.sum()) - 1.0) <= 1e-12
    assert rel_close(dist.mean(), expected_value(spec, n, UNIFORM), 1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([1.0, 2.0]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([1.0, 2.0]), np.array([1.5, -0.5]))


def test_mgf_at_zero_is_one():
    assert mgf(ZAGREB2, 10, HALF, 0.0) == 1.0
    assert abs(mgf(NIRMALA, 10, UNIFORM, 0.0) - 1.0) < 1e-12


def test_mgf_matches_distribution_sum():
    for t in (-0.1, -0.01, 0.01, 0.1):
        dist = exact_distribution(ZAGREB2, 4, UNIFORM)
        direct = float(np.dot(dist.pmf, np.exp(t * dist.support)))
        assert rel_close(mgf(ZAGREB2, 4, UNIFORM, t), direct, 1e-9)


def test_mgf_derivative_approximates_mean():
    h = 1e-5
    for spec in (NIRMALA, ZAGREB2):
        derivative = (mgf(spec, 6, HALF, h) - mgf(spec, 6, HALF, -h)) / (2 * h)
        assert rel_close(derivative, expected_value(spec, 6, HALF), 1e-4)


def test_mgf_factorizes_over_growth_steps():
    c = coefficients(SOMBOR, HALF)
    for t in (-0.05, 0.02):
        step = sum(
            math.exp(t * a) * p
            for a, p in zip(c.alphas, HALF.as_tuple())
        )
        assert rel_close(mgf(SOMBOR, 9, HALF, t), mgf(SOMBOR, 8, HALF, t) * step, 1e-10)


OVERFLOWING = registry_lookup("variable-first-zagreb", 511)

# Everything that reads the chain constants, called on an index whose sums
# overflow the double range although 4**511 itself is finite.
CONSTANT_READERS = {
    "coefficients": lambda: coefficients(OVERFLOWING, UNIFORM),
    "expected_value": lambda: expected_value(OVERFLOWING, 10, UNIFORM),
    "variance": lambda: variance(OVERFLOWING, 10, UNIFORM),
    "second_moment": lambda: second_moment(OVERFLOWING, 10, UNIFORM),
    "exact_distribution": lambda: exact_distribution(OVERFLOWING, 10, UNIFORM),
    "mgf": lambda: mgf(OVERFLOWING, 10, UNIFORM, 0.0),
    "standardize": lambda: standardize(1.0, OVERFLOWING, 10, UNIFORM),
    "martingale_transform": lambda: martingale_transform([1.0], OVERFLOWING, UNIFORM),
    "simulate": lambda: simulate(OVERFLOWING, 10, UNIFORM, 3, 0),
    "martingale_residual_check": lambda: martingale_residual_check(
        OVERFLOWING, UNIFORM, 10, 3, 0
    ),
}


@pytest.mark.parametrize("name", list(CONSTANT_READERS))
def test_non_finite_constants_raise_undefined_base(name):
    with pytest.raises(UndefinedBase, match="not finite"):
        CONSTANT_READERS[name]()


def test_mgf_overflow_is_signalled():
    with pytest.raises(OverflowError):
        mgf(ZAGREB2, 1000, HALF, 50.0)


def test_standardize_examples():
    assert standardize(expected_value(ZAGREB2, 10, HALF), ZAGREB2, 10, HALF) == 0.0
    z = standardize(404.0, ZAGREB2, 10, HALF)
    assert rel_close(z, 4 / math.sqrt(32), 1e-12)
    with pytest.raises(DegenerateVariance):
        standardize(100.0, ZAGREB1, 10, HALF)
    with pytest.raises(DegenerateVariance):
        standardize(64.0, ZAGREB2, 2, HALF)
    with pytest.raises(DegenerateVariance):
        standardize(400.0, ZAGREB2, 10, LinkProbabilities(1.0, 0.0, 0.0))


def test_standardized_distribution_has_unit_moments():
    for spec in (NIRMALA, RANDIC, ZAGREB2):
        dist = exact_distribution(spec, 50, HALF)
        z = standardize(dist.support, spec, 50, HALF)
        mean = float(np.dot(dist.pmf, z))
        var = float(np.dot(dist.pmf, (z - mean) ** 2))
        assert abs(mean) < 1e-10
        assert abs(var - 1.0) < 1e-10


def test_martingale_transform_of_deterministic_trajectory():
    c = coefficients(ZAGREB1, UNIFORM)
    trajectory = [c.ti2 + c.alpha_bar * j for j in range(12)]
    transformed = martingale_transform(trajectory, ZAGREB1, UNIFORM)
    assert np.allclose(transformed, c.ti2, atol=0)


def test_martingale_transform_single_step_identity():
    c = coefficients(ZAGREB2, UNIFORM)
    for alpha in c.alphas:
        transformed = martingale_transform([c.ti2, c.ti2 + alpha], ZAGREB2, UNIFORM)
        assert math.isclose(
            transformed[1] - transformed[0], alpha - c.alpha_bar, abs_tol=1e-12
        )


def test_martingale_increments_are_bounded():
    c = coefficients(SOMBOR, HALF)
    bound = 2 * max(abs(a) for a in c.alphas)
    chain = initial_chain(2)
    trajectory = [evaluate(SOMBOR, chain.graph)]
    rng = np.random.default_rng(5)
    for _ in range(30):
        chain = grow(chain, list(LinkType)[rng.integers(3)])
        trajectory.append(evaluate(SOMBOR, chain.graph))
    transformed = martingale_transform(trajectory, SOMBOR, HALF)
    assert np.max(np.abs(np.diff(transformed))) <= bound + 1e-12


@settings(max_examples=80, derandomize=True, deadline=None)
@given(normalized_probs, st.floats(-3, 3))
def test_variance_rate_is_never_negative(probs, exponent):
    spec = registry_lookup("variable-sum-connectivity", a=exponent)
    assert variance(spec, 3, probs) >= 0.0
    c = coefficients(spec, probs)
    assert c.beta - c.alpha_bar**2 >= -1e-12 * max(1.0, c.beta)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(normalized_probs)
def test_increments_are_centered_under_the_link_law(probs):
    for spec in (NIRMALA, ZAGREB2, ZAGREB1):
        c = coefficients(spec, probs)
        residual = sum(
            p * (a - c.alpha_bar) for a, p in zip(c.alphas, probs.as_tuple())
        )
        scale = max(1.0, *(abs(a) for a in c.alphas))
        assert abs(residual) <= 1e-12 * scale


def test_comparison_order_at_seed_chain():
    report = compare_expectations(2, UNIFORM)
    expected = (
        4 + math.sqrt(2),
        16 + 4 * math.sqrt(6),
        16 * math.sqrt(2) + 8 * math.sqrt(5),
        56.0,
        64.0,
    )
    for got, want in zip(report.expectations, expected):
        assert rel_close(got, want, 1e-12)
    assert report.all_ordered
    assert report.names == ("randic", "nirmala", "sombor", "first-zagreb", "second-zagreb")


@pytest.mark.parametrize(
    "n,p_ortho", [(100, 0.5), (3, 0.9), (2, 0.2), (1000, 0.1)]
)
def test_comparison_order_holds_across_parameters(n, p_ortho):
    report = compare_expectations(n, LinkProbabilities.from_ortho(p_ortho))
    assert report.all_ordered
    assert len(report.pairs()) == 4
