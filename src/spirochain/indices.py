"""Degree-based topological indices and the degree profiles they read.

Two families cover the whole catalog: vertex sums of h(degree)^a and edge
sums of f(degree, degree)^a, with h and f strictly positive and f symmetric.
The registry holds the named instances so callers (and the CLI) can pick
them by name; custom indices are ordinary IndexSpec values.  The profile
types (EdgeProfile, VertexProfile) live here, beside evaluate_from_profile,
which consumes them; chains and graphs both build them.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from .errors import KindMismatch, MissingExponent, UndefinedBase, UnknownIndex

if TYPE_CHECKING:
    from .graph import MolecularGraph


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


class IndexKind(enum.Enum):
    VERTEX = "vertex"
    EDGE = "edge"


@dataclass(frozen=True)
class IndexSpec:
    """One index: a base function raised to a fixed exponent and summed."""

    name: str
    kind: IndexKind
    base: Callable[..., float]
    exponent: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, IndexKind):
            raise TypeError(f"kind must be an IndexKind, got {self.kind!r}")


def _power_term(spec: IndexSpec, *degrees: int) -> float:
    try:  # float() of a string or of an integer beyond the double range fails too
        raw = float(spec.base(*degrees))
    except (ArithmeticError, ValueError) as exc:
        raise UndefinedBase(
            f"{spec.name}: base function failed at degrees {degrees}"
        ) from exc
    if not math.isfinite(raw) or raw <= 0.0:
        raise UndefinedBase(
            f"{spec.name}: base function must be strictly positive, "
            f"got {raw!r} at degrees {degrees}"
        )
    try:
        return raw ** spec.exponent
    except OverflowError as exc:
        raise UndefinedBase(
            f"{spec.name}: {raw!r} ** {spec.exponent!r} overflows at degrees {degrees}"
        ) from exc


def _weighted_sum(spec: IndexSpec, counts: dict[tuple[int, ...], int]) -> float:
    """Sum of count * term over the degree keys with a nonzero count, in
    sorted key order.

    Raises UndefinedBase when the sum overflows the double range.
    """
    total = sum(
        (count * _power_term(spec, *degrees)
         for degrees, count in sorted(counts.items()) if count),
        0.0,
    )
    if not math.isfinite(total):
        raise UndefinedBase(
            f"{spec.name}: the index value is not finite: the sum overflows the "
            "double range"
        )
    return total


def evaluate(spec: IndexSpec, g: MolecularGraph) -> float:
    """Sum the index over the graph's vertices or edges, per the spec kind.

    Edge base functions are always called with the endpoint degrees in
    non-decreasing order, so any symmetric f gives order-independent
    results.  Works on any graph whose degrees the base function accepts.
    """
    if g.vertex_count == 0:
        raise ValueError("cannot evaluate an index on an empty graph")
    if spec.kind is IndexKind.VERTEX:
        return _weighted_sum(spec, {(d,): c for d, c in g.degree_counts.items()})
    return _weighted_sum(spec, g.degree_pair_counts)


def evaluate_from_profile(
    spec: IndexSpec, profile: EdgeProfile | VertexProfile
) -> float:
    """Evaluate from a degree profile instead of a full graph.

    Agrees with evaluate() on every spiro chain; the profile is a
    sufficient statistic because chains only contain degrees 2 and 4.
    """
    if isinstance(profile, EdgeProfile):
        if spec.kind is not IndexKind.EDGE:
            raise KindMismatch(f"{spec.name} is vertex-kind; got an edge profile")
        return _weighted_sum(
            spec, {(2, 2): profile.m22, (2, 4): profile.m24, (4, 4): profile.m44}
        )
    if isinstance(profile, VertexProfile):
        if spec.kind is not IndexKind.VERTEX:
            raise KindMismatch(f"{spec.name} is edge-kind; got a vertex profile")
        return _weighted_sum(spec, {(2,): profile.c2, (4,): profile.c4})
    raise TypeError(f"expected EdgeProfile or VertexProfile, got {profile!r}")


def _identity(t):
    return t


def _square_sum(x, y):
    return x * x + y * y


def _inverse_mean(x, y):
    return 2 / (x + y)


# A None exponent marks a variable-exponent family.
_REGISTRY: dict[str, IndexSpec] = {spec.name: spec for spec in (
    IndexSpec("first-zagreb", IndexKind.VERTEX, _identity, 2.0),
    IndexSpec("second-zagreb", IndexKind.EDGE, operator.mul, 1.0),
    IndexSpec("forgotten", IndexKind.VERTEX, _identity, 3.0),
    IndexSpec("inverse-degree", IndexKind.VERTEX, _identity, -1.0),
    IndexSpec("randic", IndexKind.EDGE, operator.mul, -0.5),
    IndexSpec("sum-connectivity", IndexKind.EDGE, operator.add, -0.5),
    IndexSpec("harmonic", IndexKind.EDGE, _inverse_mean, 1.0),
    IndexSpec("nirmala", IndexKind.EDGE, operator.add, 0.5),
    IndexSpec("sombor", IndexKind.EDGE, _square_sum, 0.5),
    IndexSpec("variable-first-zagreb", IndexKind.VERTEX, _identity, None),
    IndexSpec("variable-sum-connectivity", IndexKind.EDGE, operator.add, None),
)}

REGISTRY_NAMES: tuple[str, ...] = tuple(_REGISTRY)
VARIABLE_EXPONENT_NAMES: tuple[str, ...] = tuple(
    name for name, spec in _REGISTRY.items() if spec.exponent is None
)


def registry_lookup(name: str, a: float | None = None) -> IndexSpec:
    """Fetch a named index: the stored spec, or for the variable families a
    copy of it at exponent float(a).  `a` is required exactly for the
    variable families and must be finite (UndefinedBase otherwise)."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownIndex(f"unknown index {name!r}; known: {', '.join(REGISTRY_NAMES)}")
    if spec.exponent is not None:
        if a is not None:
            raise ValueError(f"{name} has a fixed exponent; do not pass one")
        return spec
    if a is None:
        raise MissingExponent(f"{name} requires an exponent")
    try:
        exponent = float(a)
    except OverflowError:  # an integer beyond the double range
        exponent = math.inf
    if not math.isfinite(exponent):
        raise UndefinedBase(f"{name}: the exponent a={a!r} is not finite")
    return replace(spec, exponent=exponent)
