"""Chain growth, seeded generation, replay, and exhaustive enumeration."""

import dataclasses
import json
import math
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spirochain as sc
from conftest import EDGE_TRIPLES, assert_matches_reference, reference_replay
from spirochain import (
    EdgeProfile,
    InvalidN,
    InvalidProbabilities,
    LinkProbabilities,
    LinkType,
    NonFiniteSample,
    NTooLarge,
    SpiroChainError,
    UndefinedBase,
    draw_link_indexes,
    edge_profile,
    enumerate_all,
    generate,
    links_to_string,
    parse_links,
    replay,
    replication_seed,
    rng_from_seed,
    splitmix64,
    vertex_profile,
)
from spirochain.chain import (
    _BLOCK_RINGS, _DRAW_BLOCK, _digit_table, _edges_json_blocks, _held_stream, allocating,
)

UNIFORM = LinkProbabilities.uniform()

link_lists = st.lists(st.sampled_from(list(LinkType)), max_size=40)


def test_initial_chains():
    one = sc.SpiroChain(1, b"")
    assert one.n == 1
    assert one.graph.vertex_count == 6 and one.graph.edge_count == 6

    two = sc.SpiroChain(2, b"")
    assert two.n == 2
    assert two.graph.vertex_count == 11 and two.graph.edge_count == 12
    assert vertex_profile(two.graph).c4 == 1
    assert edge_profile(two.graph) == EdgeProfile(8, 4, 0)
    assert two.links == ()
    assert two == replay("")


@pytest.mark.parametrize(
    "link,profile",
    [
        (LinkType.ORTHO, EdgeProfile(11, 6, 1)),
        (LinkType.META, EdgeProfile(10, 8, 0)),
        (LinkType.PARA, EdgeProfile(10, 8, 0)),
    ],
)
def test_grow_edge_profiles(link, profile):
    chain = replay([link])
    assert_matches_reference(chain)
    assert chain.n == 3
    assert edge_profile(chain.graph) == profile
    # the shared vertex is the only new degree-4 vertex
    assert vertex_profile(chain.graph) == type(vertex_profile(chain.graph))(14, 2)


def test_grow_appends_link_and_raises_shared_degree():
    seed, grown = replay(""), replay("M")
    assert_matches_reference(grown)
    assert grown.links == (LinkType.META,)
    _, cut = reference_replay(grown.links)
    assert seed.graph.degrees[cut] == 2
    assert grown.graph.degrees[cut] == 4


@settings(max_examples=60, derandomize=True, deadline=None)
@given(link_lists)
def test_replay_matches_folding_grow(links):
    # reference_replay is the fold: it attaches one hexagon per link.
    replayed = replay(links)
    assert replayed.n == len(links) + 2
    assert replayed.links == tuple(links)
    assert_matches_reference(replayed)


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
    assert replay([]).graph == sc.SpiroChain(2, b"").graph
    assert edge_profile(replay([LinkType.ORTHO]).graph) == EdgeProfile(11, 6, 1)
    five = replay([LinkType.META, LinkType.ORTHO, LinkType.ORTHO])
    assert five.n == 5
    assert edge_profile(five.graph).m44 == 2


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


# Every public count argument other than n: replications, trajectories and bins.
COUNT_TAKERS = {
    "simulate reps": lambda k: sc.simulate(ZAGREB2, 10, UNIFORM, k, 0),
    "martingale_residual_check trajectories": (
        lambda k: sc.martingale_residual_check(ZAGREB2, UNIFORM, 10, k, 0)
    ),
    "histogram bins": lambda k: sc.histogram([1.0, 2.0, 4.0], k),
}


@pytest.mark.parametrize("name", list(COUNT_TAKERS))
def test_every_count_taker_validates_counts_alike(name):
    call = COUNT_TAKERS[name]
    for bad in (0, 2.5, True, "3"):
        with pytest.raises(InvalidN):
            call(bad)
    call(np.int64(5))


def test_draw_link_indexes_validates_its_count():
    rng = sc.rng_from_seed(0)
    for bad in (-1, 1.5, True, "3", None):
        with pytest.raises(InvalidN, match="count must be an integer >= 0"):
            sc.draw_link_indexes(rng, bad, UNIFORM)
    assert sc.draw_link_indexes(rng, 0, UNIFORM).tolist() == []
    assert sc.draw_link_indexes(rng, np.int64(4), UNIFORM).shape == (4,)
    assert generate(2, UNIFORM, 0).codes == b""


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1, 12345678901234567])
def test_uniforms_are_the_top_53_bits_of_the_raw_words(seed):
    """The identity the word-threshold draw rests on: numpy makes a uniform
    as (w >> 11) * 2**-53 from each Philox word w, also on a stream that
    _held_stream rekeyed after use."""
    raw = rng_from_seed(seed).bit_generator.random_raw(1001)
    uniforms = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(rng_from_seed(seed).random(1001), uniforms)
    with _held_stream() as stream:
        stream.keyed(seed ^ 1).random(7)  # leave a part-used buffer behind
        assert np.array_equal(stream.keyed(seed).random(1001), uniforms)


def _emitting(words):
    """A Philox generator whose next four draws use `words`: its four-word
    output buffer, full."""
    rng = rng_from_seed(0)
    state = rng.bit_generator.state
    state["buffer"][:], state["buffer_pos"] = words, 0
    rng.bit_generator.state = state
    return rng


def _reference_indexes(rng, count, probs):
    """The contract's inverse CDF over rng.random(): a search of the
    uniforms over the float64 CDF, its last boundary 1.0."""
    p = LinkProbabilities(*probs)
    cdf = np.array([p.p_ortho, p.p_ortho + p.p_meta, 1.0], dtype=float)
    return cdf.searchsorted(rng.random(count), side="right").tolist()


@pytest.mark.parametrize("probs", EDGE_TRIPLES, ids=repr)
def test_link_indexes_equal_the_buckets_of_the_uniforms(probs):
    """The words whose uniforms lie just below, at and just above each CDF
    cut, the extreme words, and seeded streams."""
    words = {0, 2**64 - 1}
    for cut in np.array([probs[0], probs[0] + probs[1]], dtype=float).tolist():
        step = math.floor(cut * 2**53)
        words.update(m << 11 | low for m in range(step - 1, step + 2) if 0 <= m < 2**53
                     for low in (0, 2047))
    words = sorted(words) + [0] * (-len(words) % 4)
    for i in range(0, len(words), 4):
        got = draw_link_indexes(_emitting(words[i: i + 4]), 4, probs).tolist()
        assert got == _reference_indexes(_emitting(words[i: i + 4]), 4, probs), words[i: i + 4]
    for seed in (0, 2**64 - 1):
        got = draw_link_indexes(rng_from_seed(seed), 500, probs).tolist()
        assert got == _reference_indexes(rng_from_seed(seed), 500, probs)


def test_link_thresholds_are_remembered_for_the_same_triple_only(monkeypatch):
    checks = []
    real = sc.chain._coerce_probs
    monkeypatch.setattr(sc.chain, "_coerce_probs", lambda p: checks.append(p) or real(p))
    probs = tuple([0.3, 0.45, 0.25])
    codes = [generate(30, probs, seed).codes for seed in range(3)]
    assert checks == [probs]  # validated once
    assert codes == [generate(30, list(probs), seed).codes for seed in range(3)]
    for _ in range(2):  # a triple that fails its check is never remembered
        with pytest.raises(InvalidProbabilities):
            generate(30, (0.5, 0.5, 0.5), 0)
    # Equal triples, but p_ortho + p_meta rounds to 0.5 in floats and above
    # it in Decimal: each draws the word of the uniform 0.5 by its own sum.
    floats = (0.5, 2**-54, 0.5 - 2**-54)
    for probs in (floats, tuple(map(Decimal, floats))):
        assert draw_link_indexes(_emitting([2**63] * 4), 1, probs).tolist() == _reference_indexes(
            _emitting([2**63] * 4), 1, probs) == [2 if probs is floats else 1]
    listed = [1.0, 0.0, 0.0]
    assert draw_link_indexes(rng_from_seed(0), 3, listed).tolist() == [0, 0, 0]
    listed[:] = [0.0, 0.0, 1.0]  # a list can change between calls, so it is not remembered
    assert draw_link_indexes(rng_from_seed(0), 3, listed).tolist() == [2, 2, 2]


# Every public function that takes link probabilities, reduced to a value
# that compares with ==.
PROB_TAKERS = {
    "draw_link_indexes": (
        lambda p: sc.draw_link_indexes(sc.rng_from_seed(0), 5, p).tolist()
    ),
    "generate": lambda p: generate(30, p, 4).links,
    "enumerate_all": lambda p: list(enumerate_all(5, p)),
    "coefficients": lambda p: sc.coefficients(ZAGREB2, p),
    "expected_value": lambda p: sc.expected_value(ZAGREB2, 10, p),
    "variance": lambda p: sc.variance(ZAGREB2, 10, p),
    "second_moment": lambda p: sc.second_moment(ZAGREB2, 10, p),
    "exact_distribution": lambda p: (
        sc.exact_distribution(ZAGREB2, 10, p).support.tolist(),
        sc.exact_distribution(ZAGREB2, 10, p).pmf.tolist(),
    ),
    "mgf": lambda p: sc.mgf(ZAGREB2, 10, p, 0.01),
    "log_mgf": lambda p: sc.log_mgf(ZAGREB2, 10, p, 0.01),
    "standardize": lambda p: sc.standardize(100.0, ZAGREB2, 10, p),
    "martingale_transform": lambda p: (
        sc.martingale_transform([64.0, 84.0, 110.0], ZAGREB2, p).tolist()
    ),
    "compare_expectations": lambda p: sc.compare_expectations(10, p),
    "simulate": lambda p: sc.simulate(ZAGREB2, 10, p, 5, 0).values.tolist(),
    "martingale_residual_check": (
        lambda p: sc.martingale_residual_check(ZAGREB2, p, 10, 50, 0)
    ),
}


@pytest.mark.parametrize("name", list(PROB_TAKERS))
def test_every_probability_taker_accepts_tuples(name):
    call = PROB_TAKERS[name]
    assert call((0.3, 0.45, 0.25)) == call(LinkProbabilities(0.3, 0.45, 0.25))
    with pytest.raises(InvalidProbabilities):
        call((0.5, 0.5, 0.5))


NOT_ONE_REAL_NUMBER = {
    "": (np.array([0.25, 0.25]), "p_meta=array"),
    "-str": ("0.5", "p_meta='0.5' is not a real number"),
    "-None": (None, "p_meta=None is not a real number"),
    "-complex": (0.5j, "p_meta=0.5j is not a real number"),
}


@pytest.mark.parametrize(
    "name, entry, message",
    [pytest.param(name, entry, message, id=name + kind)
     for kind, (entry, message) in NOT_ONE_REAL_NUMBER.items() for name in PROB_TAKERS],
)
def test_every_probability_taker_refuses_array_entries(name, entry, message):
    with pytest.raises(InvalidProbabilities, match=re.escape(message)):
        PROB_TAKERS[name]((0.5, entry, 0.25))


NOT_A_TRIPLE = {"pair": (0.5, 0.5), "quadruple": (0.25,) * 4, "None": None, "float": 0.5}


@pytest.mark.parametrize(
    "name, probs",
    [pytest.param(name, probs, id=f"{name}-{kind}")
     for kind, probs in NOT_A_TRIPLE.items() for name in PROB_TAKERS],
)
def test_every_probability_taker_refuses_what_is_not_a_triple(name, probs):
    with pytest.raises(InvalidProbabilities, match=re.escape(f"{probs!r} is not a")):
        PROB_TAKERS[name](probs)


def test_generate_trivial_cases():
    assert generate(2, UNIFORM, 123).links == ()
    degenerate = generate(10, LinkProbabilities(1.0, 0.0, 0.0), 5)
    assert degenerate.links == (LinkType.ORTHO,) * 8
    assert edge_profile(degenerate.graph).m44 == 8
    all_para = generate(10, LinkProbabilities(0.0, 0.0, 1.0), 5)
    assert all_para.links == (LinkType.PARA,) * 8


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
    for p in ("0.2", None):
        with pytest.raises(InvalidProbabilities, match=re.escape(f"p_ortho={p!r} is not a")):
            LinkProbabilities.from_ortho(p)


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


def test_link_string_round_trip():
    links = (LinkType.ORTHO, LinkType.META, LinkType.PARA, LinkType.ORTHO)
    assert links_to_string(links) == "OMPO"
    assert parse_links("OMPO") == links
    assert parse_links("") == ()
    with pytest.raises(ValueError):
        parse_links("OMX")


def test_link_types_hash_by_identity():
    assert pickle.loads(pickle.dumps(LinkType.ORTHO)) is LinkType.ORTHO
    lookup = {link: i for i, link in enumerate(LinkType)}
    assert [lookup[LinkType(ch)] for ch in "OMP"] == [0, 1, 2]


def test_splitmix64_reference_vector():
    # first output of the reference splitmix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(2**64 - 1) != splitmix64(0)


def test_replication_seeds_are_distinct_64_bit():
    seeds = {replication_seed(12345, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_numpy_integer_seeds_key_the_streams_of_the_python_ints():
    assert generate(20, UNIFORM, np.int64(-1)).codes == generate(20, UNIFORM, -1).codes
    assert replication_seed(np.int64(-1), 3) == replication_seed(-1, 3)
    assert replication_seed(np.uint64(2**64 - 1), 3) == replication_seed(-1, 3)
    for seed in (1.0, np.float64(1.0), "1"):
        with pytest.raises(TypeError):
            generate(5, UNIFORM, seed)
        with pytest.raises(TypeError):
            replication_seed(seed, 0)


def _serial_codes(n, probs, seed):
    """The link codes of generate(n, probs, seed) from a freshly keyed Philox."""
    indexes = draw_link_indexes(rng_from_seed(seed), n - 2, probs)
    return bytes(b"OMP"[i] for i in indexes.tolist())


@pytest.mark.parametrize(
    "steps", [_DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 1])
def test_generate_draws_in_blocks_the_links_of_one_call(steps):
    probs = LinkProbabilities(0.3, 0.45, 0.25)
    assert generate(steps + 2, probs, steps).codes == _serial_codes(steps + 2, probs, steps)


def test_generate_builds_one_philox_per_thread(philox_builds):
    generate(30, UNIFORM, 0)  # warm-up: this thread builds its Philox if it has none
    philox_builds.clear()
    for seed in range(50):
        generate(30, UNIFORM, seed)
    assert philox_builds == []
    worker = threading.Thread(target=lambda: [generate(30, UNIFORM, s) for s in range(5)])
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(philox_builds) == 1  # the new thread's own


def test_generated_streams_are_bit_stable_under_threads():
    # Each thread its own triple, so that the threads also take turns at
    # the remembered thresholds of the last triple.
    probs_of = [LinkProbabilities(0.3, 0.45, 0.25), (0.1, 0.2, 0.7), (0.6, 0.4, 0.0), UNIFORM]
    probs = probs_of[0]
    n = 60
    # 2**64 + 5 reduces to 5 mod 2**64; a numpy integer keys like its value.
    edge_seeds = [0, 2**64 - 1, 2**64 + 5, np.uint64(2**64 - 2), np.uint64(7)]
    seeds = [edge_seeds + list(range(1000 * t, 1000 * t + 200)) for t in range(4)]
    start = threading.Barrier(4, timeout=60)

    def work(own, probs):
        start.wait()
        return [generate(n, probs, seed).codes for seed in own]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between almost every bytecode
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, *args) for args in zip(seeds, probs_of)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for own, probs_t, codes in zip(seeds, probs_of, results):
        assert codes == [_serial_codes(n, probs_t, seed) for seed in own]
    assert _serial_codes(n, probs, 2**64 + 5) == _serial_codes(n, probs, 5)
    with pytest.raises(TypeError):
        generate(n, probs, 5.0)
    assert generate(n, probs, 5).codes == _serial_codes(n, probs, 5)


def test_a_nested_generate_call_leaves_the_outer_stream_intact():
    class NestedFraction(Fraction):
        """A p_ortho whose float conversion, made while the outer call
        draws, runs a generate call of its own."""

        def __float__(self):
            inner.append(generate(40, UNIFORM, 99).codes)
            return super().__float__()

    inner = []
    probs = (NestedFraction(3, 10), Fraction(9, 20), Fraction(1, 4))
    outer = generate(40, probs, 5).codes
    assert inner and all(codes == generate(40, UNIFORM, 99).codes for codes in inner)
    assert outer == generate(40, tuple(map(Fraction, probs)), 5).codes


def test_allocating_maps_only_numpy_size_errors():
    for refusal in (ValueError("array is too big."), MemoryError("Unable to allocate")):
        with pytest.raises(NTooLarge, match=r"^bins=7 is too large .*: ") as info:
            with allocating(7, "bins"):
                raise refusal
        assert info.value.__cause__ is None
    passed = (TypeError("no"), InvalidN("n"), NonFiniteSample("x"), UndefinedBase("b"),
              NTooLarge("big"), SpiroChainError("e"))
    for error in passed:
        with pytest.raises(type(error)) as info:
            with allocating(7):
                raise error
        assert info.value is error
    with allocating(7):
        pass


def _assert_closed_form_profiles(chain):
    assert chain.edge_profile() == edge_profile(chain.graph)
    assert chain.vertex_profile() == vertex_profile(chain.graph)


def test_closed_form_profiles_match_the_graph_on_every_short_chain():
    _assert_closed_form_profiles(sc.SpiroChain(1, b""))
    for n in range(2, 9):
        for links, _ in enumerate_all(n, UNIFORM):
            _assert_closed_form_profiles(replay(links))


@pytest.mark.parametrize("n", [2, 3, 1000, 100_000])
def test_closed_form_profiles_match_the_graph_on_generated_chains(n):
    _assert_closed_form_profiles(generate(n, LinkProbabilities(0.3, 0.45, 0.25), n))


def test_replay_accepts_a_link_string():
    from_string, from_links = replay("OMPO"), replay(parse_links("OMPO"))
    assert from_string.links == from_links.links
    assert np.array_equal(from_string.graph.edges, from_links.graph.edges)
    assert from_string == from_links


@pytest.mark.parametrize("links", ["OMXP", [LinkType.ORTHO, "X"]], ids=["string", "sequence"])
def test_replay_names_a_bad_link(links):
    with pytest.raises(ValueError, match="may only contain O, M, P; got 'X'"):
        replay(links)


def test_chain_is_its_link_codes():
    assert [f.name for f in dataclasses.fields(sc.SpiroChain)] == ["n", "codes"]
    chain = generate(12, UNIFORM, 3)
    assert chain.codes == links_to_string(chain.links).encode()
    assert sc.SpiroChain(12, chain.codes) == chain
    assert sc.SpiroChain(1, b"").graph.edges.tolist() == [
        [0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5],
    ]
    with pytest.raises(ValueError, match="n=5 requires 3 links, got 1"):
        sc.SpiroChain(5, b"O")


def test_numpy_integer_counts_are_stored_as_python_ints():
    chain = sc.SpiroChain(np.int64(3), b"O")
    assert type(chain.n) is int
    assert type(chain.graph.vertex_count) is int
    assert type(sc.SpiroChain(np.int64(1), b"").n) is int
    for profile in (chain.edge_profile(), chain.vertex_profile()):
        assert all(type(count) is int for count in dataclasses.astuple(profile))
    assert json.loads(json.dumps(chain.graph.to_dict()))["vertices"] == 16
    assert json.loads(json.dumps(dataclasses.asdict(chain.edge_profile()))) == {
        "m22": 11, "m24": 6, "m44": 1,
    }


@pytest.mark.parametrize("make", [lambda n: sc.SpiroChain(n, b"")], ids=["SpiroChain"])
@pytest.mark.parametrize("n", [True, 2.0, 0], ids=["bool", "float", "zero"])
def test_chains_refuse_an_n_that_is_not_a_count(make, n):
    with pytest.raises(InvalidN):
        make(n)


@pytest.mark.parametrize("codes", [bytearray(b"O"), "O"], ids=["bytearray", "str"])
def test_chain_codes_must_be_bytes(codes):
    with pytest.raises(TypeError, match="codes must be bytes"):
        sc.SpiroChain(3, codes)


def test_generate_checks_probabilities_before_sizing_arrays():
    # a ValueError raised while sizing the arrays would read as NTooLarge
    for n in (5, 10**400):  # drawn in one call, and in blocks into codes sized first
        with pytest.raises(InvalidProbabilities, match="p_ortho=array") as info:
            generate(n, (np.array([0.5, 0.5]), 0.25, 0.25), 0)
        assert not isinstance(info.value, NTooLarge)


def test_answers_from_the_links_build_no_graph():
    chain = generate(50, UNIFORM, 1)
    assert chain.edge_profile().m44 == chain.ortho_count == chain.links.count(LinkType.ORTHO)
    assert chain.vertex_profile().c4 == 49
    assert "graph" not in vars(chain)


def assert_chain_writes_its_graph(chain):
    written = b"".join(_edges_json_blocks(chain)).decode()
    assert written == json.dumps(chain.graph.edges.tolist())


def test_chain_writer_matches_the_graph_on_every_short_chain():
    assert_chain_writes_its_graph(sc.SpiroChain(1, b""))
    assert_chain_writes_its_graph(sc.SpiroChain(2, b""))
    for n in range(3, 10):
        for links, _ in enumerate_all(n, UNIFORM):
            assert_chain_writes_its_graph(replay(links))


@given(link_lists)
def test_chain_writer_matches_the_graph_on_replayed_chains(links):
    assert_chain_writes_its_graph(replay(links))


@pytest.mark.parametrize(
    "n, probs",
    [(1000, (0.3, 0.45, 0.25)), (100_000, (0.3, 0.45, 0.25)), (100_000, (1.0, 0.0, 0.0))],
    ids=["mixed-1000", "mixed", "ortho"],
)
def test_chain_writer_matches_the_graph_on_a_long_chain(n, probs):
    assert_chain_writes_its_graph(generate(n, probs, 11))


RING_BLOCK = _BLOCK_RINGS


@pytest.mark.parametrize("n", [RING_BLOCK - 1, RING_BLOCK, RING_BLOCK + 1, 2 * RING_BLOCK + 1])
def test_chain_writer_matches_the_graph_at_ring_block_boundaries(n):
    chain = generate(n, UNIFORM, n)
    assert_chain_writes_its_graph(chain)
    blocks = list(_edges_json_blocks(chain))
    assert len(blocks) == 2 + -(-n // RING_BLOCK)  # "[", the blocks, "]"


def test_chain_writer_matches_the_graph_where_ids_cross_a_million():
    # 5n = 1,000,005, so ids have up to seven digits, and every block strips
    # zero bytes (its first shared vertex is below 10**6).  Block 3 (ids
    # 81,916..109,225) straddles 10**5, block 18 (491,486..518,795) 5 * 10**5,
    # and block 36, the last, 10**6.
    chain = generate(200_001, UNIFORM, 3)
    blocks = list(_edges_json_blocks(chain))[1:-1]
    assert len(blocks) == 37
    for k in (0, 3, 18, 36):
        rows = chain.graph.edges[6 * k * RING_BLOCK : 6 * (k + 1) * RING_BLOCK]
        assert blocks[k] == (json.dumps(rows.tolist())[1:-1] + ", " * (k < 36)).encode()


# The edge writer's table for d-digit ids holds the ids below 10**d, and from
# d = 6 on the ids below 2 * 10**5, each row widened to d bytes.
@pytest.mark.parametrize("d", range(1, 9))
def test_digit_table_holds_every_id_right_aligned_behind_zero_bytes(d):
    top = min(10**d, 200_000) - 1
    table = _digit_table(d)
    assert table.dtype == np.uint8 and table.shape == (top + 1, d)
    assert table.tobytes() == "".join(str(i).rjust(d, "\0") for i in range(top + 1)).encode()
    owner = table
    while owner.base is not None:
        owner = owner.base
    assert owner.nbytes == (top + 1) * d  # no row beyond top is allocated


@pytest.mark.parametrize("probs", [UNIFORM, (1.0, 0.0, 0.0)], ids=["uniform", "ortho"])
@pytest.mark.parametrize(
    "n", [19, 20, 199, 200, 1_999, 2_000, 19_999, 20_000, 20_001, 21_844, 21_845])
def test_chain_writer_matches_the_graph_at_digit_width_boundaries(n, probs):
    # The largest id 5n gains a digit at n = 20, 200, 2,000 and 20,000.  A
    # block whose first shared vertex has d digits skips the zero-byte strip:
    # from n = 21,845 on, the fifth block (first ring 21,845) is one.
    assert_chain_writes_its_graph(generate(n, probs, n))
