"""Spiro chain construction: seeded random growth, replay, and enumeration.

A chain with n hexagons is encoded by its link sequence: the n-2 attachment
choices made after the two-hexagon seed.  Each new hexagon shares exactly
one vertex with the current terminal hexagon, and that shared vertex sits at
ring distance 1 (ortho), 2 (meta) or 3 (para) from the terminal hexagon's
previous shared vertex.  Ortho is the only choice that makes two degree-4
vertices adjacent, which is what turns the chain's randomness into a single
binomial count.

A SpiroChain holds only n and its link codes, one byte per link over
b"OMP"; everything else derives from them.  Every ring is listed from its
shared vertex, so each shared vertex has a closed form in the link offsets,
and one cached builder computes all rings at once.  The chain writes its
edge list's JSON text itself, straight from the rings, each ring's six rows
already in (low, high) order; the validated graph is built from the same
rows only when `graph` is first read, and is the writer's oracle.  The
degree profile is closed-form too, in n and the ortho count, so a chain
answers profile queries without a graph.

Reproducibility contract: random growth uses a Philox (4x64, 10 rounds)
counter-based generator keyed directly by the 64-bit seed, and link types
are selected by inverse CDF over (p_ortho, p_meta, p_para) in that fixed
order.  Derived seeds for replicated runs mix the replication index through
splitmix64 and XOR it into the master seed.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidProbabilities, NTooLarge, SpiroChainError, require_n
from .graph import EdgeProfile, MolecularGraph, VertexProfile, _EDGE_DTYPE

GENERATOR_ALGORITHM = "philox4x64-10"
SEED_MIX_ALGORITHM = "splitmix64"

DEFAULT_MAX_ENUM_N = 12

_MASK64 = (1 << 64) - 1


class LinkType(enum.Enum):
    """Attachment position of a new hexagon on the terminal hexagon."""

    ORTHO = "O"
    META = "M"
    PARA = "P"


LINK_ORDER = (LinkType.ORTHO, LinkType.META, LinkType.PARA)

# Link codes in LINK_ORDER.  A new shared vertex sits at ring distance
# index + 1 from the terminal cut vertex; of the isomorphic ortho (1, 5) and
# meta (2, 4) positions, the clockwise one is used.
_CODES = b"OMP"
_CODE_TO_INDEX = bytes.maketrans(_CODES, b"\0\1\2")
_INDEX_TO_CODE = bytes.maketrans(b"\0\1\2", _CODES)

# Column pairs of a ring's six edges: (0, 1), (1, 2), ..., (4, 5), (0, 5).
# Every pair is (low, high) because a ring's shared vertex s_j is below
# its first new id f_j.
_RING_EDGES = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 5])

# Rings per block of the JSON edge writer: a block's 32,766 rows (~1 MB of
# arrays at six-digit ids) stay in L2 through its digit passes.
_BLOCK_RINGS = 5461

# Per thread, the Philox and its fresh state that _held_stream hands out
# while no call of that thread holds them.
_IDLE_STREAM = threading.local()


@dataclass(frozen=True)
class LinkProbabilities:
    """Selection probabilities for (ortho, meta, para); must sum to 1.

    Boundary values 0 and 1 are accepted; they make useful degenerate test
    cases and every closed form stays valid (the variance becomes 0).
    """

    p_ortho: float
    p_meta: float
    p_para: float

    _SUM_TOL = 1e-12

    def __post_init__(self) -> None:
        for name, p in zip(("p_ortho", "p_meta", "p_para"), self.as_tuple()):
            if getattr(p, "ndim", 0):  # an array has no single truth value
                raise InvalidProbabilities(f"{name}={p!r} is not a single number")
            try:
                if not (0 <= p <= 1):
                    raise InvalidProbabilities(f"{name}={p!r} is outside [0, 1]")
            except TypeError:
                raise InvalidProbabilities(f"{name}={p!r} is not a real number") from None
        total = self.p_ortho + self.p_meta + self.p_para
        if abs(float(total - 1)) > self._SUM_TOL:
            raise InvalidProbabilities(f"probabilities sum to {total!r}, expected 1")

    @classmethod
    def uniform(cls) -> "LinkProbabilities":
        return cls(1 / 3, 1 / 3, 1 / 3)

    @classmethod
    def from_ortho(cls, p_ortho: float) -> "LinkProbabilities":
        """Split the remainder equally between meta and para."""
        try:
            rest = (1 - p_ortho) / 2
        except TypeError:
            raise InvalidProbabilities(f"p_ortho={p_ortho!r} is not a real number") from None
        return cls(p_ortho, rest, rest)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_ortho, self.p_meta, self.p_para)


@dataclass(frozen=True)
class SpiroChain:
    """An n-hexagon chain held as its link codes, one byte per link over
    b"OMP"; its rings and its graph are built on first use.  n must be an
    integer >= 1 (InvalidN otherwise) and codes must be bytes (TypeError
    otherwise).
    """

    n: int
    codes: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", require_n(self.n, minimum=1))
        if not isinstance(self.codes, bytes):
            raise TypeError(f"codes must be bytes, got {type(self.codes).__name__}")
        if len(self.codes) != max(self.n - 2, 0):
            raise ValueError(
                f"n={self.n} requires {max(self.n - 2, 0)} links, got {len(self.codes)}"
            )
        if self.codes.translate(None, _CODES):
            raise _invalid_links(self.codes.decode(errors="replace"), "OMP")

    @property
    def ortho_count(self) -> int:
        return self.codes.count(b"O")

    @cached_property
    def links(self) -> tuple[LinkType, ...]:
        return tuple(map(LINK_ORDER.__getitem__, self.codes.translate(_CODE_TO_INDEX)))

    @cached_property
    def _rings(self) -> np.ndarray:
        """Row j - 1 is hexagon j, the ring (s_j, f_j, ..., f_j + 4) with
        first new id f_j = 5j - 4.  Hexagons 1 and 2 start at s = 0 (for
        n = 1 the ring is 0..5); hexagon j >= 3 at s_j = f_{j-1} + the
        LINK_ORDER index of link j - 2.  Ids equal those of attaching one
        hexagon at a time."""
        with allocating(self.n):
            first = 5 * np.arange(1, self.n + 1, dtype=_EDGE_DTYPE) - 4
            rings = first[:, None] + np.arange(-1, 5, dtype=_EDGE_DTYPE)
            rings[:2, 0] = 0
            indexes = np.frombuffer(self.codes.translate(_CODE_TO_INDEX), np.uint8)
            rings[2:, 0] = first[1:-1] + indexes
        return rings

    @cached_property
    def graph(self) -> MolecularGraph:
        """The validated graph: six (low, high) edge rows per ring, in ring
        order with the closing edge last."""
        with allocating(self.n):
            rows = self._rings.take(_RING_EDGES, axis=1).reshape(-1, 2)
            return MolecularGraph(5 * self.n + 1, rows)

    def _edges_json_blocks(self) -> Iterator[bytes]:
        """The JSON text of graph.edges as ASCII byte chunks, in order,
        written from the rings _BLOCK_RINGS at a time; builds no graph.

        Built in numpy, with no Python object per edge, one block at a time,
        so that every pass over a block stays in cache.  Every row is laid
        out as "[u, v], " in one fixed-width byte table reused by all
        blocks, each id right-aligned in d columns (d digits of the largest
        id, 5n) behind zero bytes; deleting the zero bytes leaves the JSON
        text of the block.
        """
        n, rings, top = self.n, self._rings, 5 * self.n
        d = len(str(top))
        layout = np.frombuffer(b"[" + bytes(d) + b", " + bytes(d) + b"], ", np.uint8)
        table = np.empty((6 * min(n, _BLOCK_RINGS), layout.size), dtype=np.uint8)
        table[:] = layout  # every block rewrites all digit columns
        dtype = np.min_scalar_type(top)
        yield b"["
        for i in range(0, n, _BLOCK_RINGS):
            block = rings[i:i + _BLOCK_RINGS].take(_RING_EDGES, axis=1)
            value = block.astype(dtype).reshape(-1, 2)
            rows = table[: len(value)]
            rest = np.empty_like(value)
            digit = np.empty(value.shape, dtype=np.uint8)
            for k in range(d):  # k-th digit from the right of u and of v
                np.floor_divide(value, 10, out=rest)
                np.subtract(value, rest * 10, out=digit, casting="unsafe")
                digit += ord("0")
                if k:
                    digit *= value != 0  # a leading zero stays a zero byte
                rows[:, d - k] = digit[:, 0]
                rows[:, 2 * d + 2 - k] = digit[:, 1]
                value, rest = rest, value
            if i + _BLOCK_RINGS >= n:
                rows[-1, -2:] = 0  # no ", " after the last row
            yield rows.tobytes().replace(b"\0", b"")
        yield b"]"

    def edge_profile(self) -> EdgeProfile:
        """Edge counts by endpoint degrees, in closed form from n and the
        ortho count k; equal to graph.edge_profile(self.graph).  An ortho
        link makes one (2,2) and one (4,4) edge where a meta or para link
        makes two (2,4) edges; n = 1 gives the bare hexagon (6, 0, 0)."""
        n, k = self.n, self.ortho_count
        return EdgeProfile(m22=2 * n + 4 + k, m24=4 * (n - 1) - 2 * k, m44=k)

    def vertex_profile(self) -> VertexProfile:
        """Vertex counts by degree, in closed form from n; equal to
        graph.vertex_profile(self.graph): the n - 1 shared vertices have
        degree 4, the other 4n + 2 degree 2."""
        return VertexProfile(c2=4 * self.n + 2, c4=self.n - 1)


def replay(links: str | Iterable[LinkType]) -> SpiroChain:
    """The chain with the given links: a string over {O, M, P} such as
    "OMPO", or LinkType members.  Any other entry raises ValueError."""
    codes = (links if isinstance(links, str) else links_to_string(links)).encode()
    return SpiroChain(len(codes) + 2, codes)


class allocating:
    """Context manager that reports numpy's refusal to build an array sized
    by n (a size ValueError or a MemoryError) as NTooLarge naming n; the
    package's own errors pass through unchanged, and nested ones name the
    outermost count.  A plain class because a chain enters it three times,
    and a generator-based one costs ~3x as much."""

    def __init__(self, n: int, name: str = "n") -> None:
        self.n, self.name = n, name

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        exc = getattr(exc, "_refusal", exc)  # an inner allocating's report
        if isinstance(exc, (ValueError, MemoryError)) and not isinstance(exc, SpiroChainError):
            error = NTooLarge(f"{self.name}={self.n} is too large for the arrays it sizes: {exc}")
            error._refusal = exc
            raise error from None


def _coerce_probs(probs) -> LinkProbabilities:
    """Accept a LinkProbabilities or any (p_ortho, p_meta, p_para) triple;
    anything else raises InvalidProbabilities."""
    if isinstance(probs, LinkProbabilities):
        return probs
    try:
        p_ortho, p_meta, p_para = probs
    except (TypeError, ValueError):
        raise InvalidProbabilities(f"{probs!r} is not a probability triple") from None
    return LinkProbabilities(p_ortho, p_meta, p_para)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox stream keyed directly by the seed (reduced to 64 bits).  Any
    integer works, numpy's too; a float or a string raises TypeError."""
    return np.random.Generator(np.random.Philox(key=operator.index(seed) & _MASK64))


def splitmix64(value: int) -> int:
    """One splitmix64 scrambling round (full 64-bit avalanche)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def replication_seed(seed: int, index: int) -> int:
    """Derived seed for replication `index`: seed XOR splitmix64(index).  Any
    integer seed works, numpy's too; a float or a string raises TypeError."""
    return (operator.index(seed) & _MASK64) ^ splitmix64(index & _MASK64)


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


def _replication_streams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Yield the stream rng_from_seed(replication_seed(seed, r)) for each
    r in range(count), from the held Philox that generate uses.  The same
    Generator is yielded every time, so a stream is valid only until the
    next step; the Philox goes back when the iteration ends (or the
    generator is closed)."""
    with _held_stream() as stream:
        for r in range(count):
            yield stream.keyed(replication_seed(seed, r))


def draw_link_indexes(
    rng: np.random.Generator, count: int, probs: LinkProbabilities
) -> np.ndarray:
    """Inverse-CDF link selection over (ortho, meta, para), in that order.

    Returns indexes into LINK_ORDER.  The final CDF boundary is pinned to
    1.0 so that uniforms never fall past the last bucket.  `count` is
    checked like every count (require_n, minimum 0), and one too large for
    the arrays it sizes raises NTooLarge.
    """
    count = require_n(count, minimum=0, name="count")
    probs = _coerce_probs(probs)
    cdf = np.array([probs.p_ortho, probs.p_ortho + probs.p_meta, 1.0], dtype=float)
    with allocating(count, "count"):
        u = rng.random(count)
        return np.searchsorted(cdf, u, side="right").astype(np.int64)


def generate(n: int, probs: LinkProbabilities, seed: int) -> SpiroChain:
    """Grow a random chain with n hexagons; pure function of its arguments.

    Identical (n, probs, seed) always yield the identical link sequence and
    graph, bit for bit: the draws are those of rng_from_seed(seed), taken
    from a Philox that each thread builds once and rekeys per call.
    """
    steps = require_n(n) - 2
    with _held_stream() as stream, allocating(n):
        indexes = draw_link_indexes(stream.keyed(seed), steps, probs)
        return SpiroChain(steps + 2, np.frombuffer(_CODES, np.uint8)[indexes].tobytes())


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


def links_to_string(links: Iterable[LinkType]) -> str:
    """Serialize a link sequence over the alphabet {O, M, P}."""
    links = tuple(links)
    try:
        return bytes(map(LINK_ORDER.index, links)).translate(_INDEX_TO_CODE).decode()
    except ValueError:
        raise _invalid_links(links, LINK_ORDER) from None


def parse_links(text: str) -> tuple[LinkType, ...]:
    """Parse a link string such as "OMPO"; inverse of links_to_string."""
    return replay(text).links


def _invalid_links(links, alphabet) -> ValueError:
    """The error naming the first entry of `links` outside `alphabet`."""
    bad = next(link for link in links if link not in alphabet)
    return ValueError(f"link string may only contain O, M, P; got {bad!r} in {links!r}")
