"""The failure contract over the public API.

Every public function either returns finite values or raises: a
SpiroChainError subclass for a bad value, or, where the README documents
it, a ValueError or TypeError for an argument of the wrong kind (a link
outside O/M/P, a seed or exponent that is not a number, a trajectory that
is not 1-d).  No other exception escapes, no RuntimeWarning is emitted
(pyproject.toml turns them into errors), and no float in a result is NaN
or infinite.  The CLI relies on that last part: it has no finiteness check
of its own, so a non-finite value reaching its output is a bug (exit 4).

Sizes stay small (n <= 10**4 or beyond the int64 range, reps <= 200).
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import spirochain as sc
from spirochain import IndexKind, IndexSpec, LinkProbabilities, LinkType, SpiroChainError

EXAMPLES = settings(max_examples=60, derandomize=True, deadline=None)

# Counts: small ones run in full; from 10**19 they are past the int64
# range, and from 10**309 past the double range.
COUNTS = (
    st.integers(-3, 10**4)
    | st.integers(-3, 10**4).map(np.int64)
    | st.sampled_from([10**19, 10**309, 10**400, 1.5, math.nan, True, None, "3"])
)
REPS = st.integers(-1, 200) | st.sampled_from([np.int64(3), 2.0, None])
BINS = st.integers(-1, 10**4) | st.sampled_from([2**63 - 2, 2**63 + 10, 2.0, None])

REALS = st.floats() | st.sampled_from([0.0, 1.0, 1 / 3, 0.5, 5e-324, -0.0])
VALID_PROBS = (
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    .filter(lambda triple: sum(triple) > 0)
    .map(lambda triple: tuple(p / sum(triple) for p in triple))
)
PROBS = (
    VALID_PROBS
    | VALID_PROBS.map(np.array)
    | VALID_PROBS.map(lambda triple: LinkProbabilities(*triple))
    | st.floats(0, 1).map(LinkProbabilities.from_ortho)
    | st.tuples(REALS, REALS, REALS)
    | st.tuples(REALS, REALS, REALS).map(np.array)
    | st.sampled_from([None, "abc", "0.3", 0.5, (0.5, 0.5), (0.2, 0.3, 0.5, 0.0),
                       np.zeros((3, 2)), (0.5, "0.25", 0.25), (0.5, None, 0.5)])
)
# Arguments of the mgf: reals, integers beyond the double range, non-numbers.
REAL_T = REALS | st.integers(-10**3, 10**3) | st.sampled_from([10**400, -10**400])
OTHER_T = st.sampled_from([None, "x", 1j])
EXPONENTS = REALS | st.sampled_from([10**400, -10**400, 2, -600.0, 600.0])
SEEDS = (
    st.integers(-2**70, 2**70)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.integers(0, 2**64 - 1).map(np.uint64)
    | st.sampled_from([True, 0])
)
LINKS = (
    st.text(alphabet="OMPomp X4", max_size=30)
    | st.lists(st.sampled_from([*LinkType, "O", "Q", None, 1]), max_size=30)
)
SAMPLE_VALUES = st.floats() | st.sampled_from(
    [5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7976931348623157e308, math.nan, math.inf])
SAMPLES = (
    st.lists(SAMPLE_VALUES, max_size=150).map(np.array)
    | st.lists(SAMPLE_VALUES, min_size=100, max_size=150).map(np.array)
    | st.lists(st.floats(-3, 3), min_size=100, max_size=150).map(np.array)
    | st.lists(SAMPLE_VALUES, min_size=2, max_size=20, unique=False)
    .filter(lambda xs: len(xs) % 2 == 0).map(lambda xs: np.array(xs).reshape(2, -1))
    # Python numbers, among them an integer beyond the double range.
    | st.lists(SAMPLE_VALUES | st.just(10**400), min_size=1, max_size=120)
    .map(lambda xs: np.array(xs, dtype=object))
)

SPECS = st.sampled_from([
    sc.registry_lookup(name, 1.7 if name in sc.VARIABLE_EXPONENT_NAMES else None)
    for name in sc.REGISTRY_NAMES
])
UNIFORM = LinkProbabilities.uniform()


def assert_finite(result):
    """Every float in `result` (numbers, arrays, dataclasses, containers) is finite."""
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            assert_finite(getattr(result, field.name))
    elif isinstance(result, np.ndarray):
        assert result.dtype.kind != "f" or np.isfinite(result).all(), result
    elif isinstance(result, float):  # numpy.float64 too
        assert math.isfinite(result), result
    elif isinstance(result, (list, tuple)):
        for item in result:
            assert_finite(item)


def holds(call, *documented):
    """Run `call`: it returns finite values, or raises a SpiroChainError or
    one of the `documented` plain exception types."""
    try:
        result = call()
    except SpiroChainError:
        return
    except documented:
        return
    assert_finite(result)


@EXAMPLES
@given(SPECS, COUNTS, PROBS, REAL_T | OTHER_T)
def test_closed_forms_return_finite_values_or_raise_the_package_errors(spec, n, probs, t):
    for law in (sc.expected_value, sc.variance, sc.second_moment):
        holds(lambda: law(spec, n, probs))
    holds(lambda: sc.coefficients(spec, probs))
    holds(lambda: sc.compare_expectations(n, probs))
    holds(lambda: sc.exact_distribution(spec, n, probs))
    # float(t) refuses what is not a number, with TypeError or ValueError.
    documented = (TypeError, ValueError) if isinstance(t, (str, complex, type(None))) else ()
    holds(lambda: sc.mgf(spec, n, probs, t), *documented)
    holds(lambda: sc.log_mgf(spec, n, probs, t), *documented)


@EXAMPLES
@given(SPECS, COUNTS, PROBS, REPS, SEEDS)
def test_draws_return_finite_values_or_raise_the_package_errors(spec, n, probs, reps, seed):
    holds(lambda: sc.simulate(spec, n, probs, reps, seed))
    holds(lambda: sc.standardized_sample(spec, n, probs, reps, seed))
    holds(lambda: sc.martingale_residual_check(spec, probs, n, reps, seed))
    holds(lambda: sc.generate(n, probs, seed))
    holds(lambda: sc.draw_link_indexes(sc.rng_from_seed(seed), n, probs))
    holds(lambda: list(sc.enumerate_all(n, probs)))


@EXAMPLES
@given(st.integers(-2**70, 2**70) | st.sampled_from([1.5, None, "3", b"3", 1j]))
def test_a_seed_is_any_integer_and_anything_else_raises_type_error(seed):
    # README: "any integer works, numpy's too; a float or a string raises TypeError".
    holds(lambda: sc.generate(10, UNIFORM, seed), TypeError)
    holds(lambda: sc.simulate(sc.registry_lookup("randic"), 10, UNIFORM, 3, seed), TypeError)
    holds(lambda: sc.replication_seed(seed, 3), TypeError)


@EXAMPLES
@given(LINKS, SPECS)
def test_link_sequences_replay_or_raise_value_error(links, spec):
    def evaluated():
        chain = sc.replay(links)
        profile = chain.edge_profile() if spec.kind is IndexKind.EDGE else chain.vertex_profile()
        return sc.evaluate_from_profile(spec, profile), sc.evaluate(spec, chain.graph)
    holds(evaluated, ValueError)
    holds(lambda: sc.parse_links(links), ValueError)


# Bases that fail, return a non-positive, non-finite or non-real value, or
# an integer beyond the double range.
BASES = {
    "sum": lambda *d: sum(d),
    "zero": lambda *d: 0,
    "negative": lambda *d: -1.0,
    "nan": lambda *d: math.nan,
    "inf": lambda *d: math.inf,
    "huge int": lambda *d: 10**400,
    "divides by zero": lambda *d: 1 / 0,
    "a string": lambda *d: "x",
    "None": lambda *d: None,
    "complex": lambda *d: 1j,
}


@EXAMPLES
@given(st.sampled_from(list(BASES)), st.sampled_from(list(IndexKind)),
       EXPONENTS | st.sampled_from([None, "2", 1j]), PROBS)
def test_index_specs_evaluate_to_finite_values_or_raise_the_package_errors(
        base, kind, exponent, probs):
    spec = IndexSpec("custom", kind, BASES[base], exponent)
    # README: an exponent that is not a real number, or a base that returns
    # None or a complex, raises TypeError on evaluation.
    non_real_exponent = not isinstance(exponent, (int, float))
    documented = (TypeError,) if non_real_exponent or base in ("None", "complex") else ()
    chain = sc.replay("OMPOP")
    profile = chain.edge_profile() if kind is IndexKind.EDGE else chain.vertex_profile()
    holds(lambda: sc.evaluate_from_profile(spec, profile), *documented)
    holds(lambda: sc.evaluate(spec, chain.graph), *documented)
    holds(lambda: sc.coefficients(spec, probs), *documented)
    holds(lambda: sc.expected_value(spec, 10, probs), *documented)
    for name in sc.VARIABLE_EXPONENT_NAMES:
        holds(lambda: sc.registry_lookup(name, exponent),
              *((TypeError,) if non_real_exponent else ()))


@EXAMPLES
@given(SAMPLES, BINS, SPECS, st.integers(2, 10**4))
def test_sample_statistics_are_finite_or_raise_the_package_errors(samples, bins, spec, n):
    holds(lambda: sc.summarize(samples))
    holds(lambda: sc.histogram(samples, bins))
    holds(lambda: sc.histogram(samples, bins).densities())
    holds(lambda: sc.normality_check(samples))
    holds(lambda: sc.standardize(samples, spec, n, UNIFORM))
    first = (samples.ravel()[:1].tolist() or [0.0])[0]  # a Python number: 0.0 for no sample
    holds(lambda: sc.standardize(first, spec, n, UNIFORM))
    # README: a trajectory that is not 1-d raises ValueError.
    holds(lambda: sc.martingale_transform(samples, spec, UNIFORM),
          *((ValueError,) if samples.ndim != 1 else ()))
