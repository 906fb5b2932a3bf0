"""Spiro chain construction: seeded random growth, enumeration, and the
arrays of a chain.  The chain itself, its links and its closed-form degree
profiles are the scalar model (`_model`); this module re-exports them.

Every ring is listed from its shared vertex, so each shared vertex has a
closed form in the link offsets, and one builder computes all rings at
once.  The chain writes its edge list's JSON text itself, each ring's six
rows in (low, high) order: it reads every id's text from one digit table
and gathers only the shared vertices.  The validated graph, built from the
ring array only when `graph` is first read, shares no code with the writer
and is its oracle.

Reproducibility contract: random growth uses a Philox (4x64, 10 rounds)
counter-based generator keyed directly by the 64-bit seed, and link types
are selected by inverse CDF over (p_ortho, p_meta, p_para) in that fixed
order, taken in integer units of the 64-bit Philox words: numpy's uniform
from word w is (w >> 11) * 2**-53, so comparing w with integer thresholds
gives exactly the buckets of those uniforms (_word_thresholds).  Derived
seeds for replicated runs mix the replication index through splitmix64 and
XOR it into the master seed.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from typing import Iterator

import numpy as np

from ._model import (  # noqa: F401  (the scalar names are re-exported)
    _CODE_TO_INDEX, _CODES, _MASK64, GENERATOR_ALGORITHM, LINK_ORDER, SEED_MIX_ALGORITHM,
    LinkProbabilities, LinkType, SpiroChain, _coerce_probs, links_to_string, parse_links,
    replay, replication_seed, splitmix64,
)
from .errors import NTooLarge, allocating, require_n
from .graph import MolecularGraph, _EDGE_DTYPE

DEFAULT_MAX_ENUM_N = 12

# Column pairs of a ring's six edges: (0, 1), (1, 2), ..., (4, 5), (0, 5).
# Every pair is (low, high) because a ring's shared vertex s_j is below
# its first new id f_j.
_RING_EDGES = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 5])

# Row j - 1 of the ring array is 5(j - 1) + these, (f_j - 1, f_j, ...,
# f_j + 4), before its column 0 is set to s_j.
_RING_IDS = np.arange(6, dtype=_EDGE_DTYPE)

# The link code of each LINK_ORDER index.
_CODE_TABLE = np.frombuffer(_CODES, np.uint8)

# Rings per block of the JSON edge writer: a block's ring table (5,461 x
# 108 B, ~590 KB at six-digit ids) stays in L2 while its fields are filled.
_BLOCK_RINGS = 5461

# _word_thresholds' last triple and its result; the sentinel is no triple.
_LAST_THRESHOLDS = (object(), None)

# Per thread, the Philox and its fresh state that _held_stream hands out
# while no call of that thread holds them.
_IDLE_STREAM = threading.local()


def _ring_array(chain: SpiroChain) -> np.ndarray:
    """The (n, 6) ring array: row j - 1 is hexagon j, the ring (s_j, f_j,
    ..., f_j + 4) with first new id f_j = 5j - 4.  Hexagons 1 and 2 start
    at s = 0 (for n = 1 the ring is 0..5); hexagon j >= 3 at s_j = f_{j-1}
    + the LINK_ORDER index of link j - 2.  Ids equal those of attaching one
    hexagon at a time."""
    with allocating(chain.n):
        rings = np.arange(0, 5 * chain.n, 5, dtype=_EDGE_DTYPE)[:, None] + _RING_IDS
        rings[1:2, 0] = 0  # s_2; row 0 already holds s_1 = 0
        indexes = np.frombuffer(chain.codes.translate(_CODE_TO_INDEX), np.uint8)
        rings[2:, 0] = rings[1:-1, 1] + indexes
    return rings


def _graph(chain: SpiroChain) -> MolecularGraph:
    """SpiroChain.graph, the validated graph: six (low, high) edge rows per
    ring, in ring order with the closing edge last."""
    with allocating(chain.n):
        rows = _ring_array(chain).take(_RING_EDGES, axis=1).reshape(-1, 2)
        return MolecularGraph(5 * chain.n + 1, rows)


def _digit_table(top: int) -> np.ndarray:
    """Every id 0, 1, ..., top as a d-byte void, d the digits of top: its
    ASCII digits right-aligned behind zero bytes.  Digit k of 0, 1, 2, ...
    is the run "0".."9", each digit repeated 10**k times, tiled; so each
    digit column is one strided broadcast, with no division."""
    d, digits = len(str(top)), np.frombuffer(b"0123456789", np.uint8)
    # Whole runs of the leading digit: ids 0 up to (top's first digit + 1) * 10**(d - 1) - 1.
    table = np.empty(((int(str(top)[0]) + 1) * 10 ** (d - 1), d), np.uint8)
    for k in range(d):
        run = 10**k
        tiles = min(10, len(table) // run)
        column = table.reshape(-1, tiles, run, d)[..., d - 1 - k]
        column[:] = digits[:tiles, None]
        if k:
            column[0, 0] = 0  # ids below 10**k have no digit k
    return table[: top + 1].reshape(-1).view(f"V{d}")


def _edges_json_blocks(chain: SpiroChain) -> Iterator[bytes]:
    """The JSON text of chain.graph.edges as ASCII byte chunks, in order,
    written _BLOCK_RINGS rings at a time; builds no graph.

    Built in numpy, with no Python object per edge and no division per id:
    every id is a d-byte row of _digit_table(5n).  Ring j's new ids f_j,
    ..., f_j + 4 (f_j = 5j - 4) are its rows 1..5n, read in place; only the
    shared vertices s_j are gathered (see _ring_array).  A block fills one
    reused table of "[u, v], " records, six per ring: its JSON text once
    the zero bytes of ids shorter than d digits are deleted, which only a
    block whose first shared vertex is shorter than d digits holds.
    """
    n, top = chain.n, 5 * chain.n
    d = len(str(top))
    with allocating(n):
        digits = _digit_table(top)
        new = digits[1:].reshape(n, 5)
        shared = np.arange(-4, top - 4, 5)  # 5j - 9 for ring j
        shared[:2] = 0
        shared[2:] += np.frombuffer(chain.codes.translate(_CODE_TO_INDEX), np.uint8)
        shared_digits = digits[shared]
        layout = np.frombuffer((b"[" + bytes(d) + b", " + bytes(d) + b"], ") * 6, np.uint8)
        buffer = np.tile(layout, (min(n, _BLOCK_RINGS), 1))  # blocks rewrite only the ids
        table = buffer.view(np.dtype({"names": ["u", "v"], "formats": [f"V{d}"] * 2,
                                      "offsets": [1, d + 3], "itemsize": 2 * d + 6}))
    yield b"["
    for i in range(0, n, _BLOCK_RINGS):
        end = min(i + _BLOCK_RINGS, n)
        rows = table[: end - i]
        u, v = rows["u"], rows["v"]  # (rings, 6): the path s, f, ..., f + 4, then (s, f + 4)
        u[:, 0] = u[:, 5] = shared_digits[i:end]
        u[:, 1:5] = new[i:end, :4]
        v[:, :5] = new[i:end]
        v[:, 5] = new[i:end, 4]
        text = rows.tobytes()
        if shared[i] < 10 ** (d - 1):
            text = text.replace(b"\0", b"")
        yield text if end < n else text[:-2]  # no ", " after the last row
    yield b"]"


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox stream keyed directly by the seed (reduced to 64 bits).  Any
    integer works, numpy's too; a float or a string raises TypeError."""
    return np.random.Generator(np.random.Philox(key=operator.index(seed) & _MASK64))


class _held_stream:
    """Context manager that holds its thread's idle Philox and the Philox's
    fresh state (built on the thread's first use) and puts them back on
    exit.  While one call holds them, a nested call (a probability's
    __float__, a signal handler, a generate between two replication steps)
    finds none idle and builds its own, so no call disturbs another's
    stream.  A plain class for the same reason as allocating."""

    def __enter__(self) -> "_held_stream":
        held = vars(_IDLE_STREAM).pop("stream", None)
        if held is None:
            rng = rng_from_seed(0)
            held = rng, rng.bit_generator.state
        self.rng, self.fresh = held
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        _IDLE_STREAM.stream = self.rng, self.fresh

    def keyed(self, seed: int) -> np.random.Generator:
        """The held Philox reset to the state rng_from_seed(seed) starts
        from: key [seed mod 2**64, 0], counter 0, empty buffer.  That skips
        the OS entropy each Philox constructor gathers only for the key to
        override it.  A float or a string seed raises TypeError, as in
        rng_from_seed."""
        self.fresh["state"]["key"][0] = operator.index(seed) & _MASK64
        self.rng.bit_generator.state = self.fresh
        return self.rng


def _word_thresholds(probs) -> np.ndarray:
    """The inverse CDF of a probability triple in units of 64-bit words: a
    read-only uint64 array, a word's link index being the number of its
    entries at or below the word.  A uniform (w >> 11) * 2**-53 is below p
    exactly when w < ceil(p * 2**53) * 2**11, for p in the float64 CDF
    (p_ortho, p_ortho + p_meta).  A threshold of 2**64 or more, which no
    word reaches, is left out (p_ortho = 1, or p_ortho + p_meta rounding to
    1 or above).  Compare words with these np.uint64 values, never with a
    Python int: numpy 1.x compares that with uint64 as float64.

    Remembers the last hashable triple it validated.  Only the same object
    hits: an equal triple of another type (float32, Decimal) can round the
    sum, or its check, differently.
    """
    global _LAST_THRESHOLDS
    last, thresholds = _LAST_THRESHOLDS
    if probs is last:
        return thresholds
    p = _coerce_probs(probs)
    limits = (math.ceil(math.ldexp(float(x), 53)) << 11 for x in (p.p_ortho, p.p_ortho + p.p_meta))
    thresholds = np.array([t for t in limits if t <= _MASK64], dtype=np.uint64)
    thresholds.setflags(write=False)
    try:
        hash(probs)  # an unhashable triple (a list, say) can change before the next call
        _LAST_THRESHOLDS = probs, thresholds
    except TypeError:
        pass
    return thresholds


def draw_link_indexes(
    rng: np.random.Generator, count: int, probs: LinkProbabilities
) -> np.ndarray:
    """Inverse-CDF link selection over (ortho, meta, para), in that order.

    Returns indexes into LINK_ORDER: the buckets of count uniforms of rng,
    found from the raw words of its bit generator (_word_thresholds), which
    must make a uniform as (word >> 11) * 2**-53 as numpy's Philox does.
    `count` is checked like every count (require_n, minimum 0), and one too
    large for the arrays it sizes raises NTooLarge.
    """
    count = require_n(count, minimum=0, name="count")
    thresholds = _word_thresholds(probs)
    with allocating(count, "count"):
        words = rng.bit_generator.random_raw(count)
        return thresholds.searchsorted(words, side="right").astype(np.int64, copy=False)


def generate(n: int, probs: LinkProbabilities, seed: int) -> SpiroChain:
    """Grow a random chain with n hexagons; pure function of its arguments.

    Identical (n, probs, seed) always yield the identical link sequence and
    graph, bit for bit: the draws are those of rng_from_seed(seed), taken
    from a Philox that each thread builds once and rekeys per call.
    """
    steps = require_n(n) - 2
    with _held_stream() as stream, allocating(n):
        indexes = draw_link_indexes(stream.keyed(seed), steps, probs)
        return SpiroChain(steps + 2, _CODE_TABLE[indexes].tobytes())


def enumerate_all(
    n: int, probs: LinkProbabilities
) -> Iterator[tuple[tuple[LinkType, ...], float]]:
    """Yield every link sequence of an n-hexagon chain with its probability.

    Weights are the product of the per-link probabilities, computed in the
    numeric type of the inputs (pass Fractions for exact arithmetic); they
    sum to 1 over the full 3**(n-2) sweep.  The cap DEFAULT_MAX_ENUM_N
    guards against runaway sweeps.
    """
    n = require_n(n)
    if n > DEFAULT_MAX_ENUM_N:
        raise NTooLarge(
            f"n={n} exceeds the enumeration cap {DEFAULT_MAX_ENUM_N} (3**{n - 2} sequences)"
        )
    # The two products run in step: each combo with its per-link weights.
    weights = itertools.product(_coerce_probs(probs).as_tuple(), repeat=n - 2)
    for combo, factors in zip(itertools.product(LINK_ORDER, repeat=n - 2), weights):
        yield combo, math.prod(factors)
