"""Immutable molecular graphs and their degree profiles.

Spiro chains only ever contain vertices of degree 2 and 4, so every
degree-based quantity of interest reduces to a handful of counts: how many
vertices carry each degree, and how many edges join each degree pair.  The
profile helpers extract those counts once; index evaluation and the
closed-form layer both work from them.

MolecularGraph validates every graph it builds (integer ids in range, no
self-loops, no duplicate edges) and serves as the oracle for the
closed-form chain profiles and for the chain's JSON edge writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NTooLarge, UnsupportedDegree, require_n
from .indices import EdgeProfile, VertexProfile

_EDGE_DTYPE = np.int64

_MAX_VERTICES = 3_037_000_499  # isqrt(2**63 - 1): edge keys and pair codes fit in int64


@dataclass(frozen=True, eq=False)
class MolecularGraph:
    """Simple undirected graph on vertices 0..vertex_count-1.

    Edges are stored as an (E, 2) integer array with each row in (low, high)
    order; the array is made read-only after validation, so instances are
    safe to share across threads.
    """

    vertex_count: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        count = require_n(self.vertex_count, minimum=0, name="vertex_count")
        if count > _MAX_VERTICES:
            raise NTooLarge(
                f"vertex_count={count} exceeds {_MAX_VERTICES}, above which "
                "the int64 edge keys overflow"
            )
        edges = np.asarray(self.edges)
        if not edges.size:
            edges = np.empty((0, 2), _EDGE_DTYPE)
        elif edges.dtype.kind not in "iu":
            raise ValueError("edge endpoints must be integers")
        elif edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (E, 2), got {edges.shape}")
        # The (low, high) rows go into a new array, never the caller's; two
        # column-wise ufuncs beat an axis-1 sort.
        u, v = edges[:, 0], edges[:, 1]
        edges = np.empty((len(u), 2), _EDGE_DTYPE)
        low = np.minimum(u, v, out=edges[:, 0])
        high = np.maximum(u, v, out=edges[:, 1])
        # Read as unsigned, a negative id (or a uint64 the cast wrapped) is
        # >= 2**63, so one comparison checks both ends of the range.
        if np.count_nonzero(edges.view(np.uint64) >= count):
            raise ValueError("edge endpoint out of range")
        if np.count_nonzero(low == high):
            raise ValueError("self-loops are not allowed")
        # The sorted keys u * V + v are both the duplicate check and __eq__'s.
        keys = low * count
        keys += high
        keys.sort()
        if np.count_nonzero(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges are not allowed")
        edges.setflags(write=False)
        object.__setattr__(self, "vertex_count", count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_keys", keys)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edges.ravel(), minlength=self.vertex_count)
        deg.setflags(write=False)
        return deg

    @cached_property
    def degree_counts(self) -> dict[int, int]:
        """Map degree -> number of vertices with that degree."""
        counts = np.bincount(self.degrees).tolist()
        return {d: c for d, c in enumerate(counts) if c}

    @cached_property
    def degree_pair_counts(self) -> dict[tuple[int, int], int]:
        """Map sorted endpoint-degree pair -> number of such edges, in
        ascending pair order.

        Edges are binned by the ranks of their endpoint degrees among the m
        distinct degrees.  Those degrees sum to at most 2E, so m(m - 1)/2 <=
        2E and the m*m table is O(E), where one indexed by the degrees
        themselves would not be: an edge between two vertices of degree
        10**5 would need 10**10 bins.
        """
        degree = list(self.degree_counts)  # the m distinct degrees, ascending
        m = len(degree)
        rank = np.zeros(max(degree, default=0) + 1, np.int64)  # a table by degree
        for r, d in enumerate(degree):  # m <= 2 * sqrt(E) + 1 steps
            rank[d] = r
        ends = rank[self.degrees[self.edges]]
        ru, rv = ends[:, 0], ends[:, 1]
        table = np.bincount(np.minimum(ru, rv) * m + np.maximum(ru, rv))
        return {
            (degree[code // m], degree[code % m]): count
            for code, count in enumerate(table.tolist()) if count
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MolecularGraph):
            return NotImplemented
        same_count = self.vertex_count == other.vertex_count
        return same_count and bool(np.array_equal(self._keys, other._keys))

    def to_dict(self) -> dict:
        """JSON-ready form: {"vertices": V, "edges": [[u, v], ...]}."""
        return {
            "vertices": self.vertex_count,
            "edges": self.edges.tolist(),
        }


def _require_degrees_24(g: MolecularGraph) -> None:
    bad = sorted(set(g.degree_counts) - {2, 4})
    if bad:
        raise UnsupportedDegree(
            f"graph has vertices of degree {bad}; only degrees 2 and 4 are supported"
        )


def edge_profile(g: MolecularGraph) -> EdgeProfile:
    """Exact counts of (2,2), (2,4) and (4,4) edges.

    Raises UnsupportedDegree if any vertex degree is not 2 or 4.
    """
    _require_degrees_24(g)
    pairs = g.degree_pair_counts
    return EdgeProfile(
        m22=pairs.get((2, 2), 0),
        m24=pairs.get((2, 4), 0),
        m44=pairs.get((4, 4), 0),
    )


def vertex_profile(g: MolecularGraph) -> VertexProfile:
    """Counts of degree-2 and degree-4 vertices.

    Raises UnsupportedDegree if any vertex degree is not 2 or 4.
    """
    _require_degrees_24(g)
    counts = g.degree_counts
    return VertexProfile(c2=counts.get(2, 0), c4=counts.get(4, 0))
