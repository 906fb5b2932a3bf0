"""Immutable molecular graphs and their degree profiles.

Spiro chains only ever contain vertices of degree 2 and 4, so every
degree-based quantity of interest reduces to a handful of counts: how many
vertices carry each degree, and how many edges join each degree pair.  The
profile helpers extract those counts once; index evaluation and the
closed-form layer both work from them.

MolecularGraph validates every graph it builds (ids in range, no
self-loops, no duplicate edges) and serves as the oracle for the
closed-form chain profiles and for the chain's JSON edge writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnsupportedDegree

_EDGE_DTYPE = np.int64


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
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        edges = np.asarray(self.edges, dtype=_EDGE_DTYPE).reshape(-1, 2)
        u, v = edges[:, 0], edges[:, 1]  # column-wise: an axis-1 sort is slower
        edges = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=-1)
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.vertex_count:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
            keys = np.sort(edges[:, 0] * self.vertex_count + edges[:, 1])
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate edges are not allowed")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edges.ravel(), minlength=self.vertex_count)
        deg.setflags(write=False)
        return deg

    def degree(self, vertex: int) -> int:
        return int(self.degrees[vertex])

    @cached_property
    def degree_counts(self) -> dict[int, int]:
        """Map degree -> number of vertices with that degree."""
        counts = np.bincount(self.degrees).tolist()
        return {d: c for d, c in enumerate(counts) if c}

    @cached_property
    def degree_pair_counts(self) -> dict[tuple[int, int], int]:
        """Map sorted endpoint-degree pair -> number of such edges."""
        if not self.edge_count:
            return {}
        du, dv = self.degrees[self.edges[:, 0]], self.degrees[self.edges[:, 1]]
        lo, hi = np.minimum(du, dv), np.maximum(du, dv)
        span = self.vertex_count + 1  # degrees are < vertex_count
        encoded, counts = np.unique(lo * span + hi, return_counts=True)
        return {
            (int(code // span), int(code % span)): int(c)
            for code, c in zip(encoded, counts)
        }

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        return np.sort(self.edges[:, 0] * (self.vertex_count + 1) + self.edges[:, 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MolecularGraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.edge_count == other.edge_count
            and bool(np.array_equal(self._edge_keys, other._edge_keys))
        )

    def to_dict(self) -> dict:
        """JSON-ready form: {"vertices": V, "edges": [[u, v], ...]}."""
        return {
            "vertices": self.vertex_count,
            "edges": self.edges.tolist(),
        }


@dataclass(frozen=True)
class EdgeProfile:
    """Edge counts by endpoint degrees: (2,2), (2,4) and (4,4)."""

    m22: int
    m24: int
    m44: int

    @property
    def total(self) -> int:
        return self.m22 + self.m24 + self.m44


@dataclass(frozen=True)
class VertexProfile:
    """Vertex counts by degree: degree 2 and degree 4."""

    c2: int
    c4: int

    @property
    def total(self) -> int:
        return self.c2 + self.c4


def hexagon() -> MolecularGraph:
    """Six-cycle: 6 vertices, 6 edges, every degree 2."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    return MolecularGraph(6, np.array(edges, dtype=_EDGE_DTYPE))


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
