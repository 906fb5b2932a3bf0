"""Graph representation and degree profiles."""

from collections import Counter

import numpy as np
import pytest

from spirochain import (
    EdgeProfile,
    LinkProbabilities,
    MolecularGraph,
    UnsupportedDegree,
    VertexProfile,
    edge_profile,
    generate,
    hexagon,
    initial_chain,
    vertex_profile,
)


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


def test_hexagon_is_a_six_cycle():
    g = hexagon()
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert all(g.degree(v) == 2 for v in range(6))
    assert edge_profile(g) == EdgeProfile(m22=6, m24=0, m44=0)
    assert vertex_profile(g) == VertexProfile(c2=6, c4=0)


def test_seed_chain_profiles():
    g = initial_chain(2).graph
    assert edge_profile(g) == EdgeProfile(8, 4, 0)
    assert vertex_profile(g) == VertexProfile(10, 1)


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


def test_structural_counts_track_hexagon_count():
    probs = LinkProbabilities.uniform()
    for n in (2, 3, 7, 25):
        chain = generate(n, probs, seed=n)
        g = chain.graph
        assert g.vertex_count == 5 * n + 1
        assert g.edge_count == 6 * n
        vp = vertex_profile(g)
        assert vp.c4 == n - 1
        assert vp.c2 == 4 * n + 2
        ep = edge_profile(g)
        assert ep.m24 == 4 * (n - 1) - 2 * ep.m44
        assert ep.m22 == 2 * n + 4 + ep.m44


def test_profiles_reject_other_degrees():
    # 0-1-2 path plus a pendant on vertex 1: vertex 1 has degree 3
    claw = MolecularGraph(4, np.array([[0, 1], [1, 2], [1, 3]]))
    with pytest.raises(UnsupportedDegree):
        edge_profile(claw)
    with pytest.raises(UnsupportedDegree):
        vertex_profile(claw)
    # isolated vertex has degree 0 even though every edge looks fine
    lonely = MolecularGraph(7, hexagon().edges)
    with pytest.raises(UnsupportedDegree):
        vertex_profile(lonely)


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


def test_graph_is_immutable():
    g = hexagon()
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


def test_to_dict_round_trips():
    g = initial_chain(2).graph
    payload = g.to_dict()
    assert payload["vertices"] == 11
    rebuilt = MolecularGraph(payload["vertices"], np.array(payload["edges"]))
    assert rebuilt == g


def test_profiles_are_pure():
    g = generate(9, LinkProbabilities.uniform(), 3).graph
    assert edge_profile(g) == edge_profile(g)
    assert vertex_profile(g) == vertex_profile(g)
