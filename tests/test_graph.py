"""Graph representation and degree profiles."""

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spirochain import (
    InvalidN,
    LinkProbabilities,
    MolecularGraph,
    NTooLarge,
    SpiroChain,
    UnsupportedDegree,
    edge_profile,
    generate,
    vertex_profile,
)

HEXAGON = SpiroChain(1, b"").graph


def naive_degree_profiles(graph):
    """Pure-python reference classification, independent of the array path."""
    degree = [0] * graph.vertex_count
    for u, v in graph.edges.tolist():
        degree[u] += 1
        degree[v] += 1
    pairs = Counter()
    for u, v in graph.edges.tolist():
        pairs[tuple(sorted((degree[u], degree[v])))] += 1
    return Counter(degree), pairs


def test_profiles_match_naive_classification_on_random_chains():
    probs = LinkProbabilities(0.4, 0.35, 0.25)
    for seed in range(12):
        g = generate(3 + seed * 4, probs, seed).graph
        degrees, pairs = naive_degree_profiles(g)
        ep = edge_profile(g)
        assert (ep.m22, ep.m24, ep.m44) == (
            pairs[(2, 2)],
            pairs[(2, 4)],
            pairs[(4, 4)],
        )
        vp = vertex_profile(g)
        assert (vp.c2, vp.c4) == (degrees[2], degrees[4])
        assert ep.total == g.edge_count
        assert vp.total == g.vertex_count


def test_profiles_reject_other_degrees():
    # 0-1-2 path plus a pendant on vertex 1: vertex 1 has degree 3
    claw = MolecularGraph(4, np.array([[0, 1], [1, 2], [1, 3]]))
    with pytest.raises(UnsupportedDegree):
        edge_profile(claw)
    with pytest.raises(UnsupportedDegree):
        vertex_profile(claw)
    # isolated vertex has degree 0 even though every edge looks fine
    lonely = MolecularGraph(7, HEXAGON.edges)
    with pytest.raises(UnsupportedDegree):
        vertex_profile(lonely)


def test_degree_counts_list_each_present_degree_in_ascending_order():
    graphs = [
        MolecularGraph(0, np.empty((0, 2))),
        MolecularGraph(3, np.empty((0, 2))),
        MolecularGraph(7, HEXAGON.edges),
        MolecularGraph(4, np.array([[0, 1], [1, 2], [1, 3]])),
        generate(40, LinkProbabilities.uniform(), 2).graph,
    ]
    for g in graphs:
        degrees, _ = naive_degree_profiles(g)
        assert list(g.degree_counts.items()) == sorted(degrees.items())


def test_graph_validation():
    with pytest.raises(ValueError):
        MolecularGraph(3, np.array([[0, 0]]))  # self-loop
    with pytest.raises(ValueError):
        MolecularGraph(3, np.array([[0, 1], [1, 0]]))  # duplicate edge
    with pytest.raises(ValueError):
        MolecularGraph(2, np.array([[0, 5]]))  # endpoint out of range
    long = generate(100_000, LinkProbabilities.uniform(), 0).graph
    reversed_dup = np.vstack([long.edges, long.edges[-1, ::-1]])
    with pytest.raises(ValueError, match="duplicate"):
        MolecularGraph(long.vertex_count, reversed_dup)
    for count in (-1, 3.5, True, "3", None):
        with pytest.raises(InvalidN, match="vertex_count"):
            MolecularGraph(count, np.array([[0, 1]]))
    for edges in ([[0.9, 2.7]], [[True, False]], [[0, 2**70]], [[0, 1.0]]):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            MolecularGraph(3, edges)
    assert MolecularGraph(3, []).edge_count == 0
    assert MolecularGraph(3, np.empty((0, 2))).edge_count == 0
    assert MolecularGraph(np.int64(3), [[0, 1]]) == MolecularGraph(3, [[1, 0]])
    numpy_count = MolecularGraph(np.int64(3), [[0, 1], [1, 2]])
    assert type(numpy_count.vertex_count) is int
    assert json.loads(json.dumps(numpy_count.to_dict())) == numpy_count.to_dict()


def test_vertex_count_bound_keeps_edge_keys_in_int64():
    # 4 * 2**62 wraps to 0 in int64, so edge (4, 5) took the key of edge (0, 5).
    with pytest.raises(NTooLarge, match="vertex_count"):
        MolecularGraph(2**62, [[0, 5], [4, 5]])
    top = 3_037_000_499  # isqrt(2**63 - 1)
    with pytest.raises(NTooLarge, match="vertex_count"):
        MolecularGraph(top + 1, [[0, 1]])
    g = MolecularGraph(top, [[top - 2, top - 1], [0, top - 1]])
    assert g.edge_count == 2
    assert g == MolecularGraph(top, [[top - 1, 0], [top - 1, top - 2]])


def test_edges_of_any_other_shape_than_two_columns_are_rejected():
    # Any even-sized input used to be reshaped to (-1, 2) and read as edges.
    for edges in ([[0, 1, 2, 3]], [0, 1, 2, 3], [0, 1], [[0, 1, 2]],
                  np.array([[[0, 1]], [[2, 3]]])):
        with pytest.raises(ValueError, match=r"edges must have shape \(E, 2\), got \("):
            MolecularGraph(4, edges)


def test_endpoints_are_checked_at_both_ends_of_the_range():
    wrapped = np.array([[0, 2**63]], dtype=np.uint64)  # the int64 cast reads -2**63
    for edges in ([[-1, 1]], [[1, -1]], wrapped, wrapped[:, ::-1], [[0, 3]], [[3, 0]]):
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            MolecularGraph(3, edges)


def test_constructor_copies_rows_already_in_low_high_order():
    rows = np.array([[0, 1], [1, 2], [0, 2]])
    g = MolecularGraph(3, rows)
    rows[:] = [[1, 2], [0, 1], [0, 1]]
    assert rows.flags.writeable
    assert g.edges.tolist() == [[0, 1], [1, 2], [0, 2]]
    assert g == MolecularGraph(3, [[0, 1], [1, 2], [0, 2]])


def test_constructor_memory_is_linear_in_the_edge_count():
    # Checks sized by vertex_count (a bincount of the endpoints, say) would
    # allocate ~24 GB here.
    top = 3_037_000_499
    tracemalloc.start()
    try:
        g = MolecularGraph(top, [[0, 1], [5, top - 1]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count == 2
    assert peak < 64 * 1024


def test_edgeless_graphs_have_no_degree_pairs():
    for g in (MolecularGraph(4, []), MolecularGraph(0, [])):
        assert g.degree_pair_counts == {}


def _assert_pair_counts_match_naive(g):
    _, pairs = naive_degree_profiles(g)
    assert list(g.degree_pair_counts.items()) == sorted(pairs.items())


@st.composite
def simple_graphs(draw):
    """Simple graphs on up to 40 vertices, each edge in either row order."""
    count = draw(st.integers(0, 40))
    pairs = [(u, v) for u in range(count) for v in range(u + 1, count)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=150)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
    return MolecularGraph(count, np.array(edges, dtype=np.int64).reshape(-1, 2))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(simple_graphs())
def test_degree_pair_counts_match_a_naive_count(g):
    _assert_pair_counts_match_naive(g)


def test_degree_pair_counts_on_edge_cases():
    leaves = 10**5
    star = MolecularGraph(leaves + 1, [[0, leaf] for leaf in range(1, leaves + 1)])
    assert star.degree_pair_counts == {(1, leaves): leaves}
    isolated = MolecularGraph(9, np.vstack([HEXAGON.edges, [[6, 7]]]))  # vertex 8 is isolated
    for g in (star, isolated, MolecularGraph(4, []), MolecularGraph(0, []), HEXAGON,
              generate(60, LinkProbabilities.uniform(), 1).graph):
        _assert_pair_counts_match_naive(g)


def test_degree_pair_table_is_linear_in_the_edge_count():
    # Two adjacent hubs of degree k + 1: a table indexed by the degree pair
    # itself would hold ~k**2 bins (72 MB here), the rank table four.
    k = 3000
    edges = [[0, 1]] + [[0, 2 + i] for i in range(k)] + [[1, 2 + k + i] for i in range(k)]
    g = MolecularGraph(2 * k + 2, edges)
    g.degrees  # cached before tracing, like the edges
    tracemalloc.start()
    try:
        pairs = g.degree_pair_counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs == {(1, k + 1): 2 * k, (k + 1, k + 1): 1}
    assert peak < 200 * g.edge_count


def test_graph_is_immutable():
    g = HEXAGON
    with pytest.raises(ValueError):
        g.edges[0, 0] = 99
    with pytest.raises(ValueError):
        g.degrees[0] = 99


def test_graph_equality_is_by_edge_set():
    a = MolecularGraph(4, np.array([[0, 1], [2, 3]]))
    b = MolecularGraph(4, np.array([[3, 2], [1, 0]]))
    c = MolecularGraph(4, np.array([[0, 1], [1, 2]]))
    assert a == b
    assert a != c
    assert a.__eq__(a.to_dict()) is NotImplemented
    assert a != a.to_dict()


def test_to_dict_round_trips():
    g = SpiroChain(2, b"").graph
    payload = g.to_dict()
    assert payload["vertices"] == 11
    rebuilt = MolecularGraph(payload["vertices"], np.array(payload["edges"]))
    assert rebuilt == g


def test_profiles_are_pure():
    g = generate(9, LinkProbabilities.uniform(), 3).graph
    assert edge_profile(g) == edge_profile(g)
    assert vertex_profile(g) == vertex_profile(g)


def test_reversed_rows_are_stored_low_high():
    g = generate(50, LinkProbabilities.uniform(), 3).graph
    flipped = MolecularGraph(g.vertex_count, g.edges[:, ::-1])
    assert np.array_equal(flipped.edges, g.edges)
    mixed = MolecularGraph(4, np.array([[1, 0], [2, 3], [3, 1]]))
    assert mixed.edges.tolist() == [[0, 1], [2, 3], [1, 3]]


def test_reversed_duplicates_and_self_loops_are_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        MolecularGraph(4, np.array([[3, 1], [2, 0], [1, 3]]))
    with pytest.raises(ValueError, match="self-loop"):
        MolecularGraph(4, np.array([[1, 0], [2, 2]]))
