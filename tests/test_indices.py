"""Index definitions, evaluation, and the named-index registry."""

import math
import operator

import pytest

from spirochain import (
    EdgeProfile,
    IndexKind,
    IndexSpec,
    KindMismatch,
    LinkProbabilities,
    MissingExponent,
    MolecularGraph,
    SpiroChain,
    UndefinedBase,
    UnknownIndex,
    VertexProfile,
    edge_profile,
    evaluate,
    evaluate_from_profile,
    generate,
    parse_links,
    registry_lookup,
    replay,
    vertex_profile,
)
from spirochain.indices import REGISTRY_NAMES, VARIABLE_EXPONENT_NAMES

SEED_GRAPH = SpiroChain(2, b"").graph
UNIFORM = LinkProbabilities.uniform()


def test_registry_catalog():
    assert set(REGISTRY_NAMES) == {
        "first-zagreb", "second-zagreb", "forgotten", "inverse-degree",
        "randic", "sum-connectivity", "harmonic", "nirmala", "sombor",
        "variable-first-zagreb", "variable-sum-connectivity",
    }
    nirmala = registry_lookup("nirmala")
    assert nirmala.kind is IndexKind.EDGE
    assert nirmala.base(3, 5) == 8
    assert nirmala.exponent == 0.5
    randic = registry_lookup("randic")
    assert randic.base(3, 5) == 15
    assert randic.exponent == -0.5


def test_registry_errors():
    with pytest.raises(UnknownIndex):
        registry_lookup("wiener")
    with pytest.raises(MissingExponent):
        registry_lookup("variable-sum-connectivity")
    with pytest.raises(ValueError):
        registry_lookup("randic", a=2.0)


@pytest.mark.parametrize(
    "a", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")]
)
def test_registry_refuses_a_non_finite_exponent(a):
    with pytest.raises(UndefinedBase, match=rf"a={a!r} is not finite"):
        registry_lookup("variable-sum-connectivity", a)


def test_known_values_on_small_graphs():
    assert evaluate(registry_lookup("first-zagreb"), SEED_GRAPH) == 56.0
    assert evaluate(registry_lookup("nirmala"), SpiroChain(1, b"").graph) == 12.0
    randic = evaluate(registry_lookup("randic"), SEED_GRAPH)
    assert math.isclose(randic, 4 + math.sqrt(2), rel_tol=1e-14)
    sombor = evaluate(registry_lookup("sombor"), SEED_GRAPH)
    assert math.isclose(sombor, 16 * math.sqrt(2) + 8 * math.sqrt(5), rel_tol=1e-14)


def test_profile_evaluation_examples():
    zagreb2 = registry_lookup("second-zagreb")
    assert evaluate_from_profile(zagreb2, EdgeProfile(8, 4, 0)) == 64.0
    nirmala = registry_lookup("nirmala")
    ortho3 = evaluate_from_profile(nirmala, EdgeProfile(11, 6, 1))
    assert math.isclose(
        ortho3, 22 + 6 * math.sqrt(6) + 2 * math.sqrt(2), rel_tol=1e-14
    )
    zagreb1 = registry_lookup("first-zagreb")
    assert evaluate_from_profile(zagreb1, VertexProfile(10, 1)) == 56.0


def test_profile_evaluation_agrees_with_graph_evaluation():
    probs = LinkProbabilities(0.3, 0.4, 0.3)
    specs = [registry_lookup(name) for name in REGISTRY_NAMES
             if not name.startswith("variable")]
    specs.append(registry_lookup("variable-first-zagreb", a=0.7))
    specs.append(registry_lookup("variable-sum-connectivity", a=-1.3))
    for seed in range(8):
        g = generate(4 + 3 * seed, probs, seed).graph
        ep, vp = edge_profile(g), vertex_profile(g)
        for spec in specs:
            profile = ep if spec.kind is IndexKind.EDGE else vp
            direct = evaluate(spec, g)
            via_profile = evaluate_from_profile(spec, profile)
            assert abs(direct - via_profile) <= 1e-12 * abs(direct)


def test_profile_evaluation_skips_absent_degree_pairs():
    # 8**350 overflows, but an MMM chain has no (4, 4) edge to raise it for.
    spec = registry_lookup("variable-sum-connectivity", a=350)
    direct = evaluate(spec, replay(parse_links("MMM")).graph)
    assert evaluate_from_profile(spec, EdgeProfile(14, 16, 0)) == direct
    with pytest.raises(UndefinedBase, match="overflows at degrees"):
        evaluate_from_profile(spec, EdgeProfile(14, 16, 1))


def test_vertex_indices_depend_only_on_hexagon_count():
    for name, a in [("first-zagreb", None), ("forgotten", None),
                    ("inverse-degree", None), ("variable-first-zagreb", 0.7)]:
        spec = registry_lookup(name, a)
        h2 = float(2) ** spec.exponent
        h4 = float(4) ** spec.exponent
        for n in (2, 5, 40):
            g = generate(n, UNIFORM, seed=n).graph
            expected = (4 * n + 2) * h2 + (n - 1) * h4
            assert math.isclose(evaluate(spec, g), expected, rel_tol=1e-12)


def test_harmonic_is_twice_the_raw_sum():
    harmonic = registry_lookup("harmonic")
    raw = IndexSpec("raw", IndexKind.EDGE, lambda x, y: x + y, -1.0)
    for seed in range(4):
        g = generate(6 + seed, UNIFORM, seed).graph
        assert evaluate(harmonic, g) == 2 * evaluate(raw, g)


def test_edge_base_sees_sorted_degrees():
    # an asymmetric base and its flip agree because degrees arrive sorted
    forward = IndexSpec("fw", IndexKind.EDGE, lambda x, y: x + 2 * y, 1.0)
    flipped = IndexSpec("fl", IndexKind.EDGE, lambda x, y: y + 2 * x, 1.0)
    g = generate(9, UNIFORM, 1).graph
    assert evaluate(forward, g) != evaluate(flipped, g)
    symmetric = IndexSpec("sym", IndexKind.EDGE, lambda x, y: x * y + x + y, 0.5)
    mirror = IndexSpec("sym2", IndexKind.EDGE, lambda x, y: y * x + y + x, 0.5)
    assert evaluate(symmetric, g) == evaluate(mirror, g)


def test_undefined_base_is_rejected():
    negative = IndexSpec("neg", IndexKind.VERTEX, lambda t: t - 3, 1.0)
    with pytest.raises(UndefinedBase):
        evaluate(negative, SEED_GRAPH)
    zero = IndexSpec("zero", IndexKind.EDGE, lambda x, y: 0.0, 2.0)
    with pytest.raises(UndefinedBase):
        evaluate(zero, SEED_GRAPH)
    failing = IndexSpec("sqrt", IndexKind.VERTEX, lambda t: math.sqrt(t - 5), 1.0)
    with pytest.raises(UndefinedBase):
        evaluate(failing, SEED_GRAPH)
    # float() of the base's value fails: a string, an integer past the double range
    for value in ("x", 10**400):
        spec = IndexSpec("float", IndexKind.VERTEX, lambda t, value=value: value, 1.0)
        with pytest.raises(UndefinedBase, match="base function failed"):
            evaluate(spec, SEED_GRAPH)


def test_exponent_overflow_is_undefined_base():
    huge = registry_lookup("variable-first-zagreb", 2000.0)
    with pytest.raises(UndefinedBase, match="overflows"):
        evaluate(huge, SEED_GRAPH)


def test_overflowing_sums_raise_undefined_base():
    # 4**511 is finite, but eight degree-4 vertices sum past the double range.
    spec = registry_lookup("variable-first-zagreb", 511)
    with pytest.raises(UndefinedBase, match="not finite"):
        evaluate(spec, generate(10, UNIFORM, 0).graph)
    with pytest.raises(UndefinedBase, match="not finite"):
        evaluate_from_profile(spec, VertexProfile(40, 8))


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        evaluate_from_profile(registry_lookup("first-zagreb"), EdgeProfile(8, 4, 0))
    with pytest.raises(KindMismatch):
        evaluate_from_profile(registry_lookup("nirmala"), VertexProfile(10, 1))
    with pytest.raises(TypeError, match="expected EdgeProfile or VertexProfile"):
        evaluate_from_profile(registry_lookup("nirmala"), (8, 4, 0))


@pytest.mark.parametrize("kind", ["edge", "vertex", None])
def test_spec_kind_must_be_an_index_kind(kind):
    # "edge" evaluated as an edge index on graphs but picked vertex profiles.
    with pytest.raises(TypeError, match="kind must be an IndexKind"):
        IndexSpec("x", kind, operator.mul, 1.0)


def test_evaluate_refuses_an_empty_graph():
    with pytest.raises(ValueError, match="empty graph"):
        evaluate(registry_lookup("first-zagreb"), MolecularGraph(0, []))


def test_variable_family_reproduces_fixed_members():
    nirmala = registry_lookup("nirmala")
    variable = registry_lookup("variable-sum-connectivity", a=0.5)
    for seed in range(5):
        g = generate(5 + seed * 3, UNIFORM, seed).graph
        assert evaluate(nirmala, g) == evaluate(variable, g)


def test_edge_kind_name_list():
    kinds = {name: registry_lookup(name).kind
             for name in REGISTRY_NAMES if name not in VARIABLE_EXPONENT_NAMES}
    assert {name for name, kind in kinds.items() if kind is IndexKind.EDGE} == {
        "second-zagreb", "randic", "sum-connectivity",
        "harmonic", "nirmala", "sombor",
    }
    assert {name for name, kind in kinds.items() if kind is IndexKind.VERTEX} == {
        "first-zagreb", "forgotten", "inverse-degree",
    }
