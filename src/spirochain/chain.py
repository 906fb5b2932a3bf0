"""Spiro chain construction: seeded random growth, enumeration, and the
arrays of a chain.  The chain itself, its links and its closed-form degree
profiles are the scalar model (`_model`); this module re-exports them.

Every ring is listed from its shared vertex, so each shared vertex has a
closed form in the link offsets, and one builder computes all rings at
once.  The chain writes its edge list's JSON text itself, each ring's six
rows in (low, high) order, block by block: it copies a block's id text
from one fixed table of low digits and gathers only the shared vertices.
Like `generate`, which draws the links block by block too, it holds
nothing that grows with n but the link codes.  The validated graph, built
from the ring array only when `graph` is first read, shares no code with
the writer and is its oracle.

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

# Links per draw_link_indexes call of generate: a block's words and link
# indexes (16 B a link) stay in cache, and only the codes are held whole.
_DRAW_BLOCK = 1 << 16

# The edge writer's ids: their low five digits behind id // _LOW's digits.
_LOW = 10**5

# _word_thresholds' last triple and its result; the sentinel is no triple.
_LAST_THRESHOLDS = (object(), None)

# Per thread, the Philox and its fresh state that _held_stream hands out
# while no call of that thread holds them.
_IDLE_STREAM = threading.local()


def _graph(chain: SpiroChain) -> MolecularGraph:
    """SpiroChain.graph, the validated graph: six (low, high) edge rows per
    ring, in ring order with the closing edge last.  Row j - 1 of the (n, 6)
    ring array is hexagon j, the ring (s_j, f_j, ..., f_j + 4) with first
    new id f_j = 5j - 4.  Hexagons 1 and 2 start at s = 0 (for n = 1 the
    ring is 0..5); hexagon j >= 3 at s_j = f_{j-1} + the LINK_ORDER index
    of link j - 2.  Ids equal those of attaching one hexagon at a time."""
    with allocating(chain.n):
        rings = np.arange(0, 5 * chain.n, 5, dtype=_EDGE_DTYPE)[:, None] + _RING_IDS
        rings[1:2, 0] = 0  # s_2; row 0 already holds s_1 = 0
        indexes = np.frombuffer(chain.codes.translate(_CODE_TO_INDEX), np.uint8)
        rings[2:, 0] = rings[1:-1, 1] + indexes
        return MolecularGraph(5 * chain.n + 1, rings.take(_RING_EDGES, axis=1).reshape(-1, 2))


def _digit_table(d: int) -> np.ndarray:
    """The edge writer's fixed table: the ids 0, 1, ..., top = min(10**d,
    2 * _LOW) - 1 as top + 1 rows of d bytes, ASCII digits right-aligned
    behind zero bytes.  Digit k of 0, 1, 2, ... is the run "0".."9", each
    digit repeated 10**k times, tiled; so each digit column of the ids
    below 10**(e - 1) (top has e digits) is one strided broadcast, with no
    division, and every further leading digit is a copy of those rows."""
    top, digits = min(10**d, 2 * _LOW) - 1, np.frombuffer(b"0123456789", np.uint8)
    e = len(str(top))
    low = 10 ** (e - 1)
    table = np.zeros((top + 1, d), np.uint8)
    for k in range(e):  # ids below `low`, written with e digits
        run = 10**k
        tiles = min(10, low // run)
        table[:low].reshape(-1, tiles, run, d)[..., d - 1 - k] = digits[:tiles, None]
    for lead in range(1, top // low + 1):
        rows = table[lead * low : (lead + 1) * low]
        rows[:] = table[: len(rows)]
        rows[:, d - e] = digits[lead]
    for k in range(1, e):
        table[: 10**k, d - 1 - k] = 0  # ids below 10**k have no digit k
    return table


def _edges_json_blocks(chain: SpiroChain) -> Iterator[bytes]:
    """The JSON text of chain.graph.edges as ASCII byte chunks, in order,
    written _BLOCK_RINGS rings at a time; builds no graph, and holds
    nothing beyond one block but chain.codes.

    Built in numpy, with no Python object per edge and no division per id:
    rings i..end - 1 use the ids lo = 5i - 4 (or 0) to 5 * end, fewer than
    _LOW, so at most two values of id // _LOW.  Their d-byte rows are copied
    from one fixed table, the ids below 2 * _LOW (or 10**d); an id of
    leading value 2 or more reads the row of leading value 1, and its own
    leading digits are written over.  Ring j's new ids f_j, ..., f_j + 4
    (f_j = 5j - 4) are read in place; only the shared vertices s_j are
    gathered (see _graph).  A block fills one reused table of "[u, v], "
    records, six per ring: its JSON text once the zero bytes of ids shorter
    than d digits are deleted, which only a block whose first shared
    vertex is shorter than d digits holds.
    """
    n, d = chain.n, len(str(5 * chain.n))
    fixed = _digit_table(d)
    digits = np.empty((5 * min(n, _BLOCK_RINGS) + 5, d), np.uint8)  # one block's ids
    ids = digits.view(f"V{d}")[:, 0]
    layout = np.frombuffer((b"[" + bytes(d) + b", " + bytes(d) + b"], ") * 6, np.uint8)
    buffer = np.tile(layout, (min(n, _BLOCK_RINGS), 1))  # blocks rewrite only the ids
    table = buffer.view(np.dtype({"names": ["u", "v"], "formats": [f"V{d}"] * 2,
                                  "offsets": [1, d + 3], "itemsize": 2 * d + 6}))
    yield b"["
    for i in range(0, n, _BLOCK_RINGS):
        end = min(i + _BLOCK_RINGS, n)
        shared = np.arange(5 * i - 4, 5 * end - 4, 5)  # 5j - 9 for ring j
        first = max(2 - i, 0)  # rings 1 and 2 have s = 0
        shared[:first] = 0
        links = chain.codes[i + first - 2 : end - 2].translate(_CODE_TO_INDEX)
        shared[first:] += np.frombuffer(links, np.uint8)
        lo = max(5 * i - 4, 0)
        for lead in range(lo // _LOW, 5 * end // _LOW + 1):
            start, stop = max(lo, lead * _LOW), min(5 * end + 1, (lead + 1) * _LOW)
            part = digits[start - lo : stop - lo]
            shift = max(lead - 1, 0) * _LOW  # read lead >= 1 as 1, then write its digits
            part[:] = fixed[start - shift : stop - shift]
            if lead > 1:
                head = str(lead).encode()
                for column, digit in enumerate(head, d - 5 - len(head)):
                    part[:, column] = digit
        new = ids[5 * i + 1 - lo : 5 * end + 1 - lo].reshape(-1, 5)
        rows = table[: end - i]
        u, v = rows["u"], rows["v"]  # (rings, 6): the path s, f, ..., f + 4, then (s, f + 4)
        u[:, 0] = u[:, 5] = ids[shared - lo]
        u[:, 1:5] = new[:, :4]
        v[:, :5] = new
        v[:, 5] = new[:, 4]
        text = rows.tobytes()
        if shared[0] < 10 ** (d - 1):
            text = text.translate(None, b"\0")
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
    from a Philox that each thread builds once and rekeys per call, in
    blocks of _DRAW_BLOCK links: one draw_link_indexes call over all n - 2
    gives the same.  Only the codes grow with n.
    """
    steps = require_n(n) - 2
    with _held_stream() as stream, allocating(n):
        rng = stream.keyed(seed)
        if steps <= _DRAW_BLOCK:  # the loop's one call, without its buffer's ~1 us
            indexes = draw_link_indexes(rng, steps, probs)
            return SpiroChain(steps + 2, _CODE_TABLE[indexes].tobytes())
        _word_thresholds(probs)  # bad probabilities are reported before the codes are sized
        codes = np.empty(steps, np.uint8)  # before any draw: a too-large n fails at once
        for i in range(0, steps, _DRAW_BLOCK):
            indexes = draw_link_indexes(rng, min(steps - i, _DRAW_BLOCK), probs)
            codes[i : i + _DRAW_BLOCK] = _CODE_TABLE[indexes]
        return SpiroChain(steps + 2, codes.tobytes())


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
