"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them); a
failing criterion fails the suite.  Tolerances are pinned here and nowhere
else.
"""

import math
import time

import numpy as np
import scipy.stats

from conftest import binomial_chi_square, rel_close
from spirochain import (
    LinkProbabilities,
    coefficients,
    edge_profile,
    evaluate,
    exact_distribution,
    expected_value,
    generate,
    martingale_residual_check,
    mgf,
    normality_check,
    registry_lookup,
    replication_seed,
    standardized_sample,
    variance,
    vertex_profile,
)

UNIFORM = LinkProbabilities(1 / 3, 1 / 3, 1 / 3)

ORACLE_INDICES = (
    "nirmala", "sombor", "randic", "second-zagreb", "sum-connectivity", "harmonic",
)
ORACLE_NS = range(2, 10)
ORACLE_PROBS = (
    UNIFORM,
    LinkProbabilities(0.5, 0.3, 0.2),
    LinkProbabilities(0.1, 0.1, 0.8),
)

EDGE_KIND_INDICES = (
    "second-zagreb", "randic", "sum-connectivity", "harmonic", "nirmala", "sombor",
)

CLT_INDICES = ("nirmala", "randic", "sombor", "second-zagreb")
CLT_SEED = 501

MOMENT_RTOL = 1e-10
PMF_ATOL = 1e-12
MGF_RTOL = 1e-9
GOLDEN_ATOL = 1e-12
REALIZATION_RTOL = 1e-9


def test_01_closed_form_moments_match_exhaustive_enumeration(enum_oracle):
    """Weighted sweep over all link sequences reproduces mean and variance."""
    started = time.perf_counter()
    for name in ORACLE_INDICES:
        spec = registry_lookup(name)
        for n in ORACLE_NS:
            values = enum_oracle.values(n, spec)
            for probs in ORACLE_PROBS:
                weights = enum_oracle.weights(n, probs)
                mean = float(np.dot(weights, values))
                centered = values - mean
                var = float(np.dot(weights, centered * centered))
                assert rel_close(expected_value(spec, n, probs), mean, MOMENT_RTOL), (
                    name, n, probs.as_tuple(), "mean")
                assert rel_close(variance(spec, n, probs), var, MOMENT_RTOL), (
                    name, n, probs.as_tuple(), "variance")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (moments vs exhaustive oracle, {elapsed:.1f}s): PASS")


def test_02_exact_distribution_and_mgf_match_enumeration(enum_oracle):
    """Binomial value law and the MGF factorization against the same sweep."""
    t_grid = (-0.1, -0.01, 0.01, 0.1)
    for name in ORACLE_INDICES:
        spec = registry_lookup(name)
        for n in ORACLE_NS:
            values = enum_oracle.values(n, spec)
            ortho = enum_oracle.ortho_counts(n)
            for probs in ORACLE_PROBS:
                weights = enum_oracle.weights(n, probs)
                dist = exact_distribution(spec, n, probs)

                enum_pmf = np.bincount(ortho, weights=weights, minlength=n - 1)
                if dist.ortho_counts is None:  # deterministic: single atom
                    assert dist.pmf[0] == 1.0
                else:
                    for k, p in zip(dist.ortho_counts, dist.pmf):
                        assert abs(p - enum_pmf[k]) <= PMF_ATOL, (name, n, int(k))

                coeffs = coefficients(spec, probs)
                for t in t_grid:
                    closed = mgf(spec, n, probs, t)
                    oracle = float(np.dot(weights, np.exp(t * values)))
                    assert rel_close(closed, oracle, MGF_RTOL), (name, n, t)
                    alphas = (coeffs.alpha_ortho, coeffs.alpha_meta, coeffs.alpha_para)
                    factor = sum(
                        math.exp(t * a) * p for a, p in zip(alphas, probs.as_tuple())
                    )
                    identity = math.exp(t * coeffs.ti2) * factor ** (n - 2)
                    assert rel_close(closed, identity, MGF_RTOL), (name, n, t)
    print("\nACCEPTANCE 2 (exact distribution + MGF vs oracle): PASS")


def test_03_golden_constants():
    """Hand-derived affine constants, and the exactly affine vertex index."""
    sqrt2, sqrt5, sqrt6 = math.sqrt(2), math.sqrt(5), math.sqrt(6)
    golden = {
        "nirmala": (8 - 4 * sqrt6, 2 - 2 * sqrt6 + 2 * sqrt2, 4 + 4 * sqrt6),
        "randic": (2 - sqrt2, 3 / 4 - sqrt2 / 2, 1 + sqrt2),
        "sombor": (8 * sqrt2 - 8 * sqrt5, 6 * sqrt2 - 4 * sqrt5, 4 * sqrt2 + 8 * sqrt5),
        "second-zagreb": (-16.0, 4.0, 40.0),
    }
    for name, (a, b, c) in golden.items():
        got = coefficients(registry_lookup(name), UNIFORM)
        assert abs(got.A - a) <= GOLDEN_ATOL, name
        assert abs(got.B - b) <= GOLDEN_ATOL, name
        assert abs(got.C - c) <= GOLDEN_ATOL, name

    first = registry_lookup("first-zagreb")
    rng = np.random.default_rng(1703)
    for n in range(2, 201):
        p = float(rng.uniform(0.05, 0.95))
        chain = generate(n, LinkProbabilities.from_ortho(p), seed=int(rng.integers(2**63)))
        assert evaluate(first, chain.graph) == 32 * n - 8
    print("\nACCEPTANCE 3 (golden constants, exact affine vertex index): PASS")


def test_04_per_realization_identity():
    """value = A + B*m44 + C*n on 1,000 random chains, every edge index."""
    specs = [registry_lookup(name) for name in EDGE_KIND_INDICES]
    consts = {s.name: coefficients(s, UNIFORM) for s in specs}
    rng = np.random.default_rng(2203)
    for case in range(1000):
        n = int(rng.integers(2, 501))
        p = float(rng.uniform(0.0, 1.0))
        chain = generate(n, LinkProbabilities.from_ortho(p), seed=int(rng.integers(2**63)))
        m44 = edge_profile(chain.graph).m44  # read off the graph, not the links
        for spec in specs:
            c = consts[spec.name]
            direct = evaluate(spec, chain.graph)
            affine = c.A + c.B * m44 + c.C * n
            assert rel_close(direct, affine, REALIZATION_RTOL), (spec.name, n, m44)
    print("\nACCEPTANCE 4 (per-realization affine identity): PASS")


def test_05_large_scale_normality():
    """5,000 standardized replications at n = 10,000 look standard normal."""
    for name in CLT_INDICES:
        spec = registry_lookup(name)
        started = time.perf_counter()
        sample = standardized_sample(spec, 10000, UNIFORM, 5000, seed=CLT_SEED)
        report = normality_check(sample)
        elapsed = time.perf_counter() - started
        assert abs(report.mean) < 0.05, (name, report.mean)
        assert abs(report.variance - 1.0) < 0.05, (name, report.variance)
        assert report.ks_statistic < 0.03, (name, report.ks_statistic)
        assert abs(report.skewness) < 0.1, (name, report.skewness)
        assert report.passed, (name, report)
        assert elapsed < 60.0, (name, elapsed)
        print(f"\nACCEPTANCE 5 ({name}: mean {report.mean:+.4f}, "
              f"var {report.variance:.4f}, skew {report.skewness:+.4f}, "
              f"KS {report.ks_statistic:.4f}, {elapsed:.1f}s): PASS")


def test_06_martingale_residuals():
    """Centered per-step increments average to ~0 over 100,000 trajectories."""
    trajectories, n, seed = 100_000, 50, 61
    for name in CLT_INDICES:
        spec = registry_lookup(name)
        c = coefficients(spec, UNIFORM)
        sd = math.sqrt(sum(
            p * (a - c.alpha_bar) ** 2
            for a, p in zip((c.alpha_ortho, c.alpha_meta, c.alpha_para), UNIFORM.as_tuple())
        ))
        residual = martingale_residual_check(spec, UNIFORM, n, trajectories, seed)
        assert residual <= 5 * sd / math.sqrt(trajectories), (name, residual)

    for name, a in (("first-zagreb", None), ("variable-sum-connectivity", 1.0)):
        spec = registry_lookup(name, a)
        assert martingale_residual_check(spec, UNIFORM, n, 10_000, seed) == 0.0, name
    print("\nACCEPTANCE 6 (martingale residuals): PASS")


def test_07_expectation_ordering_grid():
    """Randic <= Nirmala <= Sombor <= first Zagreb <= second Zagreb."""
    from spirochain import compare_expectations

    for n in range(2, 101):
        for tenths in range(1, 10):
            probs = LinkProbabilities.from_ortho(tenths / 10)
            report = compare_expectations(n, probs)
            assert report.all_ordered, (n, tenths / 10, report.expectations)
    print("\nACCEPTANCE 7 (expectation ordering on the full grid): PASS")


def test_08_structural_invariants_at_scale():
    """10,000 random chains: exact counts, and binomial ortho statistics."""
    n, chains, seed = 30, 10_000, 90210
    probs = LinkProbabilities(0.3, 0.45, 0.25)
    ortho_counts = np.empty(chains, dtype=np.int64)
    for i in range(chains):
        chain = generate(n, probs, replication_seed(seed, i))
        g = chain.graph
        assert g.vertex_count == 5 * n + 1
        assert g.edge_count == 6 * n
        ep = edge_profile(g)
        assert vertex_profile(g).c4 == n - 1
        assert ep.m44 == chain.ortho_count
        assert ep.m24 == 4 * (n - 1) - 2 * ep.m44
        ortho_counts[i] = ep.m44
    statistic, dof = binomial_chi_square(ortho_counts, n - 2, probs.p_ortho)
    threshold = scipy.stats.chi2.ppf(0.999, dof)
    assert statistic < threshold, (statistic, threshold)
    print(f"\nACCEPTANCE 8 (structural invariants, chi2 {statistic:.1f} < "
          f"{threshold:.1f}): PASS")
