"""Chain growth, seeded generation, replay, and exhaustive enumeration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spirochain as sc
from conftest import assert_matches_reference
from spirochain import (
    ChainTooShort,
    EdgeProfile,
    InvalidN,
    InvalidProbabilities,
    LinkProbabilities,
    LinkType,
    NTooLarge,
    edge_profile,
    enumerate_all,
    generate,
    grow,
    initial_chain,
    links_to_string,
    parse_links,
    replay,
    replication_seed,
    splitmix64,
    vertex_profile,
)

UNIFORM = LinkProbabilities.uniform()

link_lists = st.lists(st.sampled_from(list(LinkType)), max_size=40)


def test_initial_chains():
    one = initial_chain(1)
    assert one.n == 1
    assert one.graph.vertex_count == 6 and one.graph.edge_count == 6
    assert one.terminal_cut_vertex is None

    two = initial_chain(2)
    assert two.n == 2
    assert two.graph.vertex_count == 11 and two.graph.edge_count == 12
    assert vertex_profile(two.graph).c4 == 1
    assert edge_profile(two.graph) == EdgeProfile(8, 4, 0)
    assert two.links == ()

    with pytest.raises(InvalidN):
        initial_chain(3)


def test_grow_needs_two_hexagons():
    with pytest.raises(ChainTooShort):
        grow(initial_chain(1), LinkType.ORTHO)


@pytest.mark.parametrize(
    "link,profile",
    [
        (LinkType.ORTHO, EdgeProfile(11, 6, 1)),
        (LinkType.META, EdgeProfile(10, 8, 0)),
        (LinkType.PARA, EdgeProfile(10, 8, 0)),
    ],
)
def test_grow_edge_profiles(link, profile):
    chain = grow(initial_chain(2), link)
    assert chain.n == 3
    assert edge_profile(chain.graph) == profile
    # the shared vertex is the only new degree-4 vertex
    assert vertex_profile(chain.graph) == type(vertex_profile(chain.graph))(14, 2)


def test_grow_appends_link_and_raises_shared_degree():
    seed = initial_chain(2)
    grown = grow(seed, LinkType.META)
    assert grown.links == (LinkType.META,)
    assert seed.graph.degree(grown.terminal_cut_vertex) == 2
    assert grown.graph.degree(grown.terminal_cut_vertex) == 4


@settings(max_examples=60, derandomize=True, deadline=None)
@given(link_lists)
def test_replay_matches_folding_grow(links):
    folded = initial_chain(2)
    for link in links:
        folded = grow(folded, link)
    replayed = replay(links)
    assert replayed.n == len(links) + 2
    assert replayed.links == tuple(links)
    assert_matches_reference(replayed)
    assert_matches_reference(folded)
    assert folded.links == replayed.links


@pytest.mark.parametrize("n", [2, 3, 50, 2000])
def test_generated_chains_match_reference(n):
    chain = generate(n, LinkProbabilities(0.2, 0.5, 0.3), n)
    assert_matches_reference(chain)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(link_lists)
def test_chain_invariants_hold_for_any_link_sequence(links):
    chain = replay(links)
    n = chain.n
    assert chain.graph.vertex_count == 5 * n + 1
    assert chain.graph.edge_count == 6 * n
    ep = edge_profile(chain.graph)
    assert ep.m44 == chain.ortho_count
    assert ep.m24 == 4 * (n - 1) - 2 * ep.m44


def test_replay_examples():
    assert replay([]).graph == initial_chain(2).graph
    assert edge_profile(replay([LinkType.ORTHO]).graph) == EdgeProfile(11, 6, 1)
    five = replay([LinkType.META, LinkType.ORTHO, LinkType.ORTHO])
    assert five.n == 5
    assert edge_profile(five.graph).m44 == 2


def test_generate_validation():
    with pytest.raises(InvalidN):
        generate(1, UNIFORM, 0)
    with pytest.raises(InvalidProbabilities):
        generate(5, (0.5, 0.5, 0.5), 0)


ZAGREB2 = sc.registry_lookup("second-zagreb")

# Every public function that takes a hexagon count, with its minimum n.
N_TAKERS = {
    "generate": (lambda n: generate(n, UNIFORM, 0), 2),
    "enumerate_all": (lambda n: list(enumerate_all(n, UNIFORM)), 2),
    "expected_value": (lambda n: sc.expected_value(ZAGREB2, n, UNIFORM), 2),
    "variance": (lambda n: sc.variance(ZAGREB2, n, UNIFORM), 2),
    "second_moment": (lambda n: sc.second_moment(ZAGREB2, n, UNIFORM), 2),
    "exact_distribution": (lambda n: sc.exact_distribution(ZAGREB2, n, UNIFORM), 2),
    "mgf": (lambda n: sc.mgf(ZAGREB2, n, UNIFORM, 0.01), 2),
    "standardize": (lambda n: sc.standardize(100.0, ZAGREB2, n, UNIFORM), 2),
    "compare_expectations": (lambda n: sc.compare_expectations(n, UNIFORM), 2),
    "simulate": (lambda n: sc.simulate(ZAGREB2, n, UNIFORM, 3, 0), 2),
    "martingale_residual_check": (
        lambda n: sc.martingale_residual_check(ZAGREB2, UNIFORM, n, 3, 0), 3
    ),
}


@pytest.mark.parametrize("name", list(N_TAKERS))
def test_every_n_taker_validates_n_alike(name):
    call, minimum = N_TAKERS[name]
    for bad in (1, 2.5, True, "3", np.int64(minimum - 1)):
        with pytest.raises(InvalidN):
            call(bad)
    call(np.int64(5))


def test_generate_trivial_cases():
    assert generate(2, UNIFORM, 123).links == ()
    degenerate = generate(10, LinkProbabilities(1.0, 0.0, 0.0), 5)
    assert degenerate.links == (LinkType.ORTHO,) * 8
    assert edge_profile(degenerate.graph).m44 == 8
    all_para = generate(10, LinkProbabilities(0.0, 0.0, 1.0), 5)
    assert all_para.links == (LinkType.PARA,) * 8


def test_generate_is_reproducible():
    a = generate(10, UNIFORM, 42)
    b = generate(10, UNIFORM, 42)
    assert a.links == b.links
    assert np.array_equal(a.graph.edges, b.graph.edges)
    assert generate(10, UNIFORM, 43).links != a.links


def test_generate_round_trips_through_replay():
    chain = generate(30, LinkProbabilities(0.2, 0.5, 0.3), 7)
    assert replay(chain.links).graph == chain.graph


def test_probability_validation():
    with pytest.raises(InvalidProbabilities):
        LinkProbabilities(-0.1, 0.6, 0.5)
    with pytest.raises(InvalidProbabilities):
        LinkProbabilities(0.5, 0.4, 0.2)
    with pytest.raises(InvalidProbabilities):
        LinkProbabilities(float("nan"), 0.5, 0.5)
    assert LinkProbabilities.from_ortho(1.0) == LinkProbabilities(1.0, 0.0, 0.0)
    rest = LinkProbabilities.from_ortho(0.5)
    assert rest.p_meta == rest.p_para == 0.25


def test_enumeration_counts_and_weights():
    assert list(enumerate_all(2, UNIFORM)) == [((), 1)]
    pairs = list(enumerate_all(4, UNIFORM))
    assert len(pairs) == 9
    weights = [w for _, w in pairs]
    assert all(abs(w - 1 / 9) < 1e-15 for w in weights)
    assert abs(sum(weights) - 1.0) < 1e-12


@pytest.mark.parametrize("p_ortho", [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)])
def test_enumeration_ortho_counts_are_exactly_binomial(p_ortho):
    rest = (1 - p_ortho) / 2
    probs = LinkProbabilities(p_ortho, rest, rest)
    n = 7
    by_k = {}
    for combo, weight in enumerate_all(n, probs):
        k = sum(1 for link in combo if link is LinkType.ORTHO)
        by_k[k] = by_k.get(k, 0) + weight
    assert sum(by_k.values()) == 1
    m = n - 2
    for k in range(m + 1):
        expected = math.comb(m, k) * p_ortho**k * (1 - p_ortho) ** (m - k)
        assert by_k[k] == expected


def test_enumeration_cap():
    with pytest.raises(NTooLarge):
        list(enumerate_all(13, UNIFORM))
    # explicit cap wins over the default
    assert len(list(enumerate_all(4, UNIFORM, max_n=4))) == 9
    with pytest.raises(NTooLarge):
        list(enumerate_all(5, UNIFORM, max_n=4))


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("SPIRO_MAX_ENUM_N", "3")
    with pytest.raises(NTooLarge):
        list(enumerate_all(4, UNIFORM))
    assert len(list(enumerate_all(3, UNIFORM))) == 3


@pytest.mark.parametrize("raw", ["4.5", "abc"])
def test_enumeration_cap_env_must_be_an_integer(monkeypatch, raw):
    monkeypatch.setenv("SPIRO_MAX_ENUM_N", raw)
    with pytest.raises(InvalidN, match="SPIRO_MAX_ENUM_N"):
        list(enumerate_all(4, UNIFORM))


def test_link_string_round_trip():
    links = (LinkType.ORTHO, LinkType.META, LinkType.PARA, LinkType.ORTHO)
    assert links_to_string(links) == "OMPO"
    assert parse_links("OMPO") == links
    assert parse_links("") == ()
    with pytest.raises(ValueError):
        parse_links("OMX")


def test_splitmix64_reference_vector():
    # first output of the reference splitmix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(2**64 - 1) != splitmix64(0)


def test_replication_seeds_are_distinct_64_bit():
    seeds = {replication_seed(12345, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
