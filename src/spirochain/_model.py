"""The scalar model of random spiro chains; it imports no numpy.

A chain with n hexagons is its link sequence: the n-2 attachment choices
made after the two-hexagon seed.  Each new hexagon shares one vertex with
the terminal hexagon, at ring distance 1 (ortho), 2 (meta) or 3 (para) from
that hexagon's previous shared vertex.  Only ortho makes two degree-4
vertices adjacent, so an index value on a chain is ti2 + alpha_meta * (n-2)
+ B * k with k the ortho count: with per-link increments alpha_i = TI(3-
hexagon chain, link i) - TI(seed), meta and para always coincide.  The
increments come from evaluating the index on the closed-form profiles of
the 2- and 3-hexagon chains, not from transcribed per-index formulas, and
only p_ortho enters a law.  Arrays (a chain's rings, graph and JSON edge
text, the exact distribution, samples) are in `chain` and `analytics`.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable

from . import indices
from .errors import InvalidProbabilities, UndefinedBase, require_n
from .indices import EdgeProfile, VertexProfile

GENERATOR_ALGORITHM = "philox4x64-10"
SEED_MIX_ALGORITHM = "splitmix64"

_MASK64 = (1 << 64) - 1

# Relative gap between the ortho and meta increments below which an index
# is treated as deterministic on chains.
_DETERMINISTIC_RTOL = 1e-12

COMPARISON_ORDER = ("randic", "nirmala", "sombor", "first-zagreb", "second-zagreb")


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


@dataclass(frozen=True)
class SpiroChain:
    """An n-hexagon chain held as its link codes, one byte per link over
    b"OMP"; its graph is built on first use.  n must be an integer >= 1
    (InvalidN otherwise) and codes must be bytes (TypeError otherwise).
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
    def graph(self):
        """The validated MolecularGraph: chain._graph."""
        return _arrays()._graph(self)

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


@cache  # `from . import` costs ~1 µs a call, and each chain's graph makes one
def _arrays():
    """The numpy layer of a chain (the chain module), imported on first use."""
    from . import chain
    return chain


def replay(links: str | Iterable[LinkType]) -> SpiroChain:
    """The chain with the given links: a string over {O, M, P} such as
    "OMPO", or LinkType members.  Any other entry raises ValueError."""
    codes = (links if isinstance(links, str) else links_to_string(links)).encode()
    return SpiroChain(len(codes) + 2, codes)


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


# The 2-hexagon seed and the 3-hexagon chains grown from it by an ortho and
# by a meta link (para yields the meta profile).
_GROWTH_CHAINS = (replay(""), replay("O"), replay("M"))


@dataclass(frozen=True)
class ChainCoefficients:
    """Analytic constants of one index on random spiro chains.

    On any chain, value = A + B * m44 + C * n, where m44 counts adjacent
    degree-4 pairs (equal to the number of ortho links).  For vertex-kind
    indices B is 0: their value depends on n alone.  p_ortho is the one
    probability the laws read.
    """

    ti2: float
    alpha_ortho: float
    alpha_meta: float
    alpha_para: float
    alpha_bar: float
    beta: float
    A: float
    B: float
    C: float
    deterministic: bool
    p_ortho: float


def coefficients(spec: indices.IndexSpec, probs: LinkProbabilities) -> ChainCoefficients:
    """Per-link increments and derived constants of `spec` on chains.

    Meta and para links add the same increment, so alpha_bar and beta
    depend on the probabilities only through p_ortho; with B = 0 this keeps
    deterministic indices exactly deterministic in floating point.
    Raises UndefinedBase when a constant overflows the double range.
    """
    if spec.kind is indices.IndexKind.EDGE:
        profiles = [chain.edge_profile() for chain in _GROWTH_CHAINS]
    else:
        profiles = [chain.vertex_profile() for chain in _GROWTH_CHAINS]
    ti2, ortho, meta = (indices.evaluate_from_profile(spec, p) for p in profiles)
    alpha_ortho = ortho - ti2
    alpha_meta = meta - ti2
    b = alpha_ortho - alpha_meta
    p = float(_coerce_probs(probs).p_ortho)
    alpha_bar = alpha_meta + b * p
    beta = alpha_meta * alpha_meta + (
        alpha_ortho * alpha_ortho - alpha_meta * alpha_meta
    ) * p
    if not all(map(math.isfinite, (ti2, alpha_ortho, alpha_meta, beta))):
        raise UndefinedBase(
            f"{spec.name}: the chain constants are not finite: the index values "
            "overflow the double range"
        )
    scale = max(1.0, abs(alpha_ortho), abs(alpha_meta))
    return ChainCoefficients(
        ti2=ti2,
        alpha_ortho=alpha_ortho,
        alpha_meta=alpha_meta,
        alpha_para=alpha_meta,
        alpha_bar=alpha_bar,
        beta=beta,
        A=ti2 - 2.0 * alpha_meta,
        B=b,
        C=alpha_meta,
        deterministic=abs(b) <= _DETERMINISTIC_RTOL * scale,
        p_ortho=p,
    )


def _finite(law):
    """Make a closed form in (coefficients, n, *args) check n (require_n) and
    raise UndefinedBase when its value, or n itself, does not fit the double range."""
    def checked(c: ChainCoefficients, n: int, *args) -> float:
        try:
            value = law(c, require_n(n), *args)
        except OverflowError:  # n - 2 does not convert to a double, or exp() overflows
            value = math.inf
        if not math.isfinite(value):
            raise UndefinedBase(f"the {law.__name__[1:].replace('_', ' ')} is not "
                                "finite: n or the index values overflow the double range")
        return value
    return checked


@_finite
def _mean(c: ChainCoefficients, n: int) -> float:
    return c.ti2 + c.alpha_bar * (n - 2)


@_finite
def _variance(c: ChainCoefficients, n: int) -> float:
    # Spread form of beta - alpha_bar**2; non-negative by construction.
    return c.B * c.B * c.p_ortho * (1.0 - c.p_ortho) * (n - 2)


@_finite
def _second_moment(c: ChainCoefficients, n: int) -> float:
    return _variance(c, n) + _mean(c, n) ** 2


def _log_mgf(c: ChainCoefficients, n: int, t: float) -> float:
    # log(w_lo e**lo + w_hi e**hi) = hi + log1p(w_lo * expm1(lo - hi)) as
    # w_lo + w_hi = 1; it is lo when w_hi is 0.  The two-hexagon chain
    # takes no step, so an infinite one must not enter as 0 * inf.  As a
    # Python float, t overflows to inf without numpy's warning, and an
    # integer beyond the double range raises OverflowError, which _finite maps.
    t = float(t)
    (w_lo, lo), (w_hi, hi) = sorted(
        ((c.p_ortho, t * c.alpha_ortho), (1.0 - c.p_ortho, t * c.alpha_meta)),
        key=lambda term: term[1])
    step = lo if w_hi == 0 else hi + math.log1p(w_lo * math.expm1(lo - hi if lo < hi else 0.0))
    return t * c.ti2 + ((n - 2) * step if n > 2 else 0.0)


@_finite
def _mgf(c: ChainCoefficients, n: int, t: float) -> float:
    return math.exp(_log_mgf(c, n, t))


def expected_value(spec: indices.IndexSpec, n: int, probs: LinkProbabilities) -> float:
    """Mean index value over random chains with n hexagons."""
    return _mean(coefficients(spec, probs), n)


def variance(spec: indices.IndexSpec, n: int, probs: LinkProbabilities) -> float:
    """Variance of the index value over random chains with n hexagons."""
    return _variance(coefficients(spec, probs), n)


def second_moment(spec: indices.IndexSpec, n: int, probs: LinkProbabilities) -> float:
    """Mean of the squared index value over random chains with n hexagons."""
    return _second_moment(coefficients(spec, probs), n)


def mgf(spec: indices.IndexSpec, n: int, probs: LinkProbabilities, t: float) -> float:
    """Moment generating function of the index value at argument t:
    exp(log_mgf(spec, n, probs, t)), 0.0 where that underflows, and within
    1e-13 relative of a 60-digit reference.  Raises UndefinedBase where it
    overflows the double range (or t is NaN, or t or n is beyond the double
    range).
    """
    return _mgf(coefficients(spec, probs), n, t)


def log_mgf(spec: indices.IndexSpec, n: int, probs: LinkProbabilities, t: float) -> float:
    """Natural log of mgf(spec, n, probs, t), finite where mgf overflows:
    t * ti2 + (n-2) * log(p_ortho * exp(t * alpha_ortho) + (1 - p_ortho) *
    exp(t * alpha_meta)), the step taken through log1p and expm1, within
    1e-15 relative of a 60-digit reference.  Raises UndefinedBase when the
    result is not finite (or t is NaN, or t or n is beyond the double range).
    """
    return _finite(_log_mgf)(coefficients(spec, probs), n, t)


@dataclass(frozen=True)
class ExpectationOrdering:
    """Expected values of the five comparison indices, with each adjacent
    inequality recomputed rather than assumed."""

    names: tuple[str, ...]
    expectations: tuple[float, ...]
    holds: tuple[bool, ...]

    @property
    def all_ordered(self) -> bool:
        return all(self.holds)

    def pairs(self) -> tuple[tuple[str, str, bool], ...]:
        return tuple(
            (self.names[i], self.names[i + 1], self.holds[i])
            for i in range(len(self.holds))
        )


def compare_expectations(n: int, probs: LinkProbabilities) -> ExpectationOrdering:
    """Expected Randic, Nirmala, Sombor and Zagreb values, in that order."""
    values = tuple(
        expected_value(indices.registry_lookup(name), n, probs) for name in COMPARISON_ORDER
    )
    holds = tuple(values[i] <= values[i + 1] for i in range(len(values) - 1))
    return ExpectationOrdering(COMPARISON_ORDER, values, holds)
