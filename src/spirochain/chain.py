"""Spiro chain construction: seeded random growth, replay, and enumeration.

A chain with n hexagons is encoded by its link sequence: the n-2 attachment
choices made after the two-hexagon seed.  Each new hexagon shares exactly
one vertex with the current terminal hexagon, and that shared vertex sits at
ring distance 1 (ortho), 2 (meta) or 3 (para) from the terminal hexagon's
previous shared vertex.  Ortho is the only choice that makes two degree-4
vertices adjacent, which is what turns the chain's randomness into a single
binomial count.

Every ring is listed from its shared vertex, so each shared vertex has a
closed form in the link offsets.  replay() builds all rings from it at once
and is the only constructor of chains with two or more hexagons.

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
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ChainTooShort, InvalidN, InvalidProbabilities, NTooLarge
from .graph import MolecularGraph, _EDGE_DTYPE

GENERATOR_ALGORITHM = "philox4x64-10"
SEED_MIX_ALGORITHM = "splitmix64"

DEFAULT_MAX_ENUM_N = 12
MAX_ENUM_ENV_VAR = "SPIRO_MAX_ENUM_N"

_MASK64 = (1 << 64) - 1


class LinkType(enum.Enum):
    """Attachment position of a new hexagon on the terminal hexagon."""

    ORTHO = "O"
    META = "M"
    PARA = "P"


LINK_ORDER = (LinkType.ORTHO, LinkType.META, LinkType.PARA)

# Ring distance from the terminal hexagon's cut vertex to the new shared
# vertex.  Ortho has two symmetric positions (distance 1 and 5); the graphs
# are isomorphic, so the clockwise one is used.  Likewise meta (2 and 4).
_RING_OFFSET = {LinkType.ORTHO: 1, LinkType.META: 2, LinkType.PARA: 3}


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
            if not (0 <= p <= 1):
                raise InvalidProbabilities(f"{name}={p!r} is outside [0, 1]")
        total = self.p_ortho + self.p_meta + self.p_para
        if abs(float(total - 1)) > self._SUM_TOL:
            raise InvalidProbabilities(f"probabilities sum to {total!r}, expected 1")

    @classmethod
    def uniform(cls) -> "LinkProbabilities":
        return cls(1 / 3, 1 / 3, 1 / 3)

    @classmethod
    def from_ortho(cls, p_ortho: float) -> "LinkProbabilities":
        """Split the remainder equally between meta and para."""
        rest = (1 - p_ortho) / 2
        return cls(p_ortho, rest, rest)

    def for_link(self, link: LinkType):
        return dict(zip(LINK_ORDER, self.as_tuple()))[link]

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_ortho, self.p_meta, self.p_para)


@dataclass(frozen=True, eq=False)
class SpiroChain:
    """A molecular graph plus the chain bookkeeping needed to keep growing.

    terminal_hexagon lists the newest hexagon's vertex ids in ring order;
    terminal_cut_vertex is the vertex it shares with its predecessor (None
    only for the single-hexagon chain).
    """

    graph: MolecularGraph
    n: int
    links: tuple[LinkType, ...]
    terminal_cut_vertex: int | None
    terminal_hexagon: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidN(f"a chain needs at least one hexagon, got n={self.n}")
        if len(self.links) != max(self.n - 2, 0):
            raise ValueError(
                f"n={self.n} requires {max(self.n - 2, 0)} links, got {len(self.links)}"
            )

    @property
    def ortho_count(self) -> int:
        return sum(1 for link in self.links if link is LinkType.ORTHO)


def _ring_rows(rings: np.ndarray) -> np.ndarray:
    """Edge rows of an (m, 6) array of rings, six per ring in ring order.

    Each row joins a vertex to its successor as (low, high); the closing
    edge from the last vertex back to the first comes last.
    """
    succ = np.roll(rings, -1, axis=1)
    rows = np.stack([np.minimum(rings, succ), np.maximum(rings, succ)], axis=-1)
    return rows.reshape(-1, 2)


def initial_chain(n: int) -> SpiroChain:
    """The one- or two-hexagon chain every longer chain starts from."""
    if n not in (1, 2):
        raise InvalidN(f"initial chains have 1 or 2 hexagons, got n={n!r}")
    if n == 2:
        return replay(())
    ring = np.arange(6, dtype=_EDGE_DTYPE)
    return SpiroChain(
        graph=MolecularGraph(6, _ring_rows(ring[None])),
        n=1,
        links=(),
        terminal_cut_vertex=None,
        terminal_hexagon=tuple(ring.tolist()),
    )


def grow(chain: SpiroChain, link: LinkType) -> SpiroChain:
    """Attach one hexagon at the given link position; returns a new chain.

    The shared vertex keeps its id and its degree rises from 2 to 4; the
    five new vertices take the next five ids.  Only chain.links is read:
    the result is replay(chain.links + (link,)).
    """
    if chain.n < 2:
        raise ChainTooShort(
            f"growth needs a chain with at least 2 hexagons, got n={chain.n}"
        )
    return replay(chain.links + (link,))


def replay(links: Iterable[LinkType]) -> SpiroChain:
    """The chain with the given link sequence, all rings built at once.

    Hexagon j (1-based) is the ring (s_j, f_j, ..., f_j + 4) with first new
    id f_j = 5j - 4.  Hexagons 1 and 2 start at s = 0; hexagon j >= 3 starts
    at s_j = f_{j-1} + offset - 1, offset 1, 2, 3 for O, M, P.  Ids and edge
    order equal those of attaching one hexagon at a time.
    """
    links = tuple(links)
    n = len(links) + 2
    offsets = np.fromiter(map(_RING_OFFSET.__getitem__, links), _EDGE_DTYPE, len(links))
    first = 5 * np.arange(1, n + 1, dtype=_EDGE_DTYPE) - 4
    rings = first[:, None] + np.arange(-1, 5, dtype=_EDGE_DTYPE)
    rings[:2, 0] = 0
    rings[2:, 0] = first[1:-1] + offsets - 1
    return SpiroChain(
        graph=MolecularGraph(5 * n + 1, _ring_rows(rings)),
        n=n,
        links=links,
        terminal_cut_vertex=int(rings[-1, 0]),
        terminal_hexagon=tuple(rings[-1].tolist()),
    )


def require_n(n, minimum: int = 2) -> int:
    """Validate a hexagon count: an integer (not a bool) >= minimum."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < minimum:
        raise InvalidN(f"n must be an integer >= {minimum}, got {n!r}")
    return int(n)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox stream keyed directly by the seed (reduced to 64 bits)."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def splitmix64(value: int) -> int:
    """One splitmix64 scrambling round (full 64-bit avalanche)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def replication_seed(seed: int, index: int) -> int:
    """Derived seed for replication `index`: seed XOR splitmix64(index)."""
    return (seed & _MASK64) ^ splitmix64(index & _MASK64)


def draw_link_indexes(
    rng: np.random.Generator, count: int, probs: LinkProbabilities
) -> np.ndarray:
    """Inverse-CDF link selection over (ortho, meta, para), in that order.

    Returns indexes into LINK_ORDER.  The final CDF boundary is pinned to
    1.0 so that uniforms never fall past the last bucket.
    """
    cdf = np.array([probs.p_ortho, probs.p_ortho + probs.p_meta, 1.0], dtype=float)
    u = rng.random(count)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def generate(n: int, probs: LinkProbabilities, seed: int) -> SpiroChain:
    """Grow a random chain with n hexagons; pure function of its arguments.

    Identical (n, probs, seed) always yield the identical link sequence and
    graph, bit for bit.
    """
    steps = require_n(n) - 2
    if not isinstance(probs, LinkProbabilities):
        probs = LinkProbabilities(*probs)
    indexes = draw_link_indexes(rng_from_seed(seed), steps, probs)
    return replay(LINK_ORDER[i] for i in indexes)


def _enum_cap(max_n: int | None) -> int:
    if max_n is not None:
        return int(max_n)
    raw = os.environ.get(MAX_ENUM_ENV_VAR, DEFAULT_MAX_ENUM_N)
    try:
        return int(raw)
    except ValueError:
        raise InvalidN(f"{MAX_ENUM_ENV_VAR} must be an integer, got {raw!r}") from None


def enumerate_all(
    n: int, probs: LinkProbabilities, max_n: int | None = None
) -> Iterator[tuple[tuple[LinkType, ...], float]]:
    """Yield every link sequence of an n-hexagon chain with its probability.

    Weights are the product of the per-link probabilities, computed in the
    numeric type of the inputs (pass Fractions for exact arithmetic); they
    sum to 1 over the full 3**(n-2) sweep.  The cap guards against runaway
    sweeps and can be overridden per call or via the SPIRO_MAX_ENUM_N
    environment variable.
    """
    n = require_n(n)
    cap = _enum_cap(max_n)
    if n > cap:
        raise NTooLarge(
            f"n={n} exceeds the enumeration cap {cap} (3**{n - 2} sequences)"
        )
    weights = {link: probs.for_link(link) for link in LINK_ORDER}
    for combo in itertools.product(LINK_ORDER, repeat=n - 2):
        yield combo, math.prod(weights[link] for link in combo)


def links_to_string(links: Iterable[LinkType]) -> str:
    """Serialize a link sequence over the alphabet {O, M, P}."""
    return "".join(link.value for link in links)


def parse_links(text: str) -> tuple[LinkType, ...]:
    """Parse a link string such as "OMPO"; inverse of links_to_string."""
    try:
        return tuple(LinkType(ch) for ch in text)
    except ValueError:
        bad = next(ch for ch in text if ch not in "OMP")
        raise ValueError(
            f"link string may only contain O, M, P; got {bad!r} in {text!r}"
        ) from None
