"""Shared data model: exact rationals, offspring vectors, offspring laws,
root measures, and the support-set computations everything else builds on.

Labels are 1-based integers in [n].  An offspring vector is a length-n tuple
of non-negative counts: entry j-1 is the number of neighbors (or children)
carrying label j.  All probabilities are `fractions.Fraction` values; nothing
in this package ever rounds.

Distributions are plain dicts mapping offspring vectors to positive Fractions
summing to exactly 1.  Zero-probability entries are never stored, so support
predicates are key-existence tests.

Specs and measures are validated on construction and treated as immutable
afterwards; every operation in the package is a pure function over them, so
values can be shared freely across concurrent work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple, Union

Rat = Fraction
Vector = Tuple[int, ...]
Dist = Dict[Vector, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)

PAIR = "pair"
PLAIN = "plain"


class GwrevError(Exception):
    """Base class for all package errors."""


class CoordinateUnderflowError(GwrevError):
    """Decrement requested at a coordinate that is already zero."""


class InvalidDistributionError(GwrevError):
    """A distribution violates positivity / normalization / shape rules."""


class SpecError(GwrevError):
    """A spec or measure fails structural validation."""


class ChecksFailedError(GwrevError):
    """An operation requiring a fully checked spec was given a failing one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Offspring vector algebra
# ---------------------------------------------------------------------------

def vector(counts: Iterable[int]) -> Vector:
    v = tuple(int(x) for x in counts)
    if any(x < 0 for x in v):
        raise ValueError(f"negative count in offspring vector {v}")
    return v


def total(c: Vector) -> int:
    """Total number of neighbors/children counted by c."""
    return sum(c)


def decrement(c: Vector, j: int) -> Vector:
    """Copy of c with one unit removed at label j (1-based)."""
    if c[j - 1] == 0:
        raise CoordinateUnderflowError(f"cannot decrement label {j} of {c}")
    return c[: j - 1] + (c[j - 1] - 1,) + c[j:]


def increment(c: Vector, k: int) -> Vector:
    """Copy of c with one unit added at label k (1-based)."""
    return c[: k - 1] + (c[k - 1] + 1,) + c[k:]


def swap(c: Vector, j: int, k: int) -> Vector:
    """Move one unit from label j to label k: increment(decrement(c, j), k)."""
    return increment(decrement(c, j), k)


def active_labels(dist: Mapping[Vector, Fraction]) -> set:
    """Labels that occur with positive count somewhere in the support."""
    if not dist:
        raise InvalidDistributionError("empty distribution")
    out = set()
    for c in dist:
        for j, cj in enumerate(c, start=1):
            if cj > 0:
                out.add(j)
    return out


def degrees(dist: Mapping[Vector, Fraction]) -> set:
    """Set of totals |c| over the support."""
    if not dist:
        raise InvalidDistributionError("empty distribution")
    return {total(c) for c in dist}


def validate_dist(dist: Mapping[Vector, Fraction], n: int, *, min_total: int = 0) -> None:
    """Check a stored distribution: vectors of length n, positive rational
    probabilities summing to exactly 1, and every total >= min_total."""
    if not dist:
        raise InvalidDistributionError("empty distribution")
    s = ZERO
    for c, p in dist.items():
        if len(c) != n:
            raise InvalidDistributionError(f"vector {c} has length {len(c)}, expected {n}")
        if any(x < 0 for x in c):
            raise InvalidDistributionError(f"vector {c} has a negative count")
        if total(c) < min_total:
            raise InvalidDistributionError(f"vector {c} has total < {min_total}")
        if not isinstance(p, Fraction):
            raise InvalidDistributionError(f"probability of {c} is not a Fraction: {p!r}")
        if p <= 0 or p > 1:
            raise InvalidDistributionError(f"probability of {c} is {p}, outside (0, 1]")
        s += p
    if s != ONE:
        raise InvalidDistributionError(f"probabilities sum to {s}, expected 1")


# ---------------------------------------------------------------------------
# Support classes
# ---------------------------------------------------------------------------

class SupportClass(NamedTuple):
    """A root class: trees rooted at a `label` vertex with `vector` neighbors."""

    label: int
    vector: Vector

    def __str__(self):
        return f"{self.label}:({','.join(str(x) for x in self.vector)})"


# ---------------------------------------------------------------------------
# Offspring laws (the conditional Galton-Watson data)
# ---------------------------------------------------------------------------

PairKey = Tuple[int, int]
SpecKey = Union[int, PairKey]


@dataclass
class GWSpec:
    """Finite-support conditional offspring distributions.

    In pair mode the key (i, j) holds the offspring law of a vertex labeled j
    whose parent is labeled i.  In plain mode the key i holds the offspring
    law of any vertex labeled i, regardless of its parent.
    """

    n: int
    mode: str
    offspring: Dict[SpecKey, Dist]

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("n must be >= 1")
        if self.mode not in (PAIR, PLAIN):
            raise SpecError(f"unknown mode {self.mode!r}")
        if not self.offspring:
            raise SpecError("empty spec: no offspring laws")
        for key, dist in self.offspring.items():
            if self.mode == PAIR:
                if not (isinstance(key, tuple) and len(key) == 2):
                    raise SpecError(f"pair-mode key {key!r} is not a label pair")
                i, j = key
            else:
                if not isinstance(key, int):
                    raise SpecError(f"plain-mode key {key!r} is not a label")
                i, j = key, key
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise SpecError(f"key {key!r} outside [1, {self.n}]")
            validate_dist(dist, self.n)
        self._check_closure()

    def _check_closure(self):
        # Every child type reachable from a stored law must itself have a law.
        for key in sorted(self.offspring):
            dist = self.offspring[key]
            child_of = key[1] if self.mode == PAIR else key
            for c in dist:
                for k, ck in enumerate(c, start=1):
                    if ck == 0:
                        continue
                    child_key = (child_of, k) if self.mode == PAIR else k
                    if child_key not in self.offspring:
                        raise SpecError(
                            f"law for {key} produces children of type {child_key}, "
                            "which has no offspring law"
                        )

    # -- lookup helpers ----------------------------------------------------

    def pair_prob(self, i: int, j: int, c: Vector) -> Fraction:
        """Probability that a vertex labeled j with parent labeled i has
        children c.  Zero if unstored.  Pair mode only."""
        return self.offspring.get((i, j), {}).get(c, ZERO)

    def plain_prob(self, i: int, c: Vector) -> Fraction:
        return self.offspring.get(i, {}).get(c, ZERO)

    def offspring_prob(self, parent: int, label: int, c: Vector) -> Fraction:
        """Offspring probability for a (parent, label) vertex in either mode."""
        if self.mode == PAIR:
            return self.pair_prob(parent, label, c)
        return self.plain_prob(label, c)

    def offspring_law(self, parent: int, label: int) -> Dist:
        if self.mode == PAIR:
            return self.offspring.get((parent, label), {})
        return self.offspring.get(label, {})


def candidate_support(spec: GWSpec, i: int) -> set:
    """All neighbor vectors a root labeled i can carry: vectors c such that
    some stored law for a label-i vertex with a label-j parent puts positive
    mass on c with the parent slot j removed."""
    if spec.mode != PAIR:
        raise SpecError("candidate_support requires a pair-mode spec")
    out = set()
    for (j, k), dist in spec.offspring.items():
        if k == i:
            out.update(increment(e, j) for e in dist)
    return out


# ---------------------------------------------------------------------------
# Label-pair sides and the one graph traversal
# ---------------------------------------------------------------------------

def class_sides(classes: Iterable[SupportClass]) -> Dict[PairKey, List[SupportClass]]:
    """S(i, j): the label-i classes with c_j > 0, in the given order.

    Classes (i, c) and (j, d) can sit next to each other exactly when
    c_j > 0 and d_i > 0, so the class graph's edges between labels i and j
    are the complete block S(i, j) x S(j, i)."""
    side: Dict[PairKey, List[SupportClass]] = {}
    for u in classes:
        for j, cj in enumerate(u.vector, start=1):
            if cj > 0:
                side.setdefault((u.label, j), []).append(u)
    return side


def bfs_forest(starts: Iterable, neighbours: Callable[..., Iterable]) -> Tuple[list, dict]:
    """Breadth-first spanning forest: a new tree from each undiscovered start
    in order, each vertex's undiscovered neighbours appended in the order
    they are yielded.  Returns (order, parent), the vertices in discovery
    order and their tree parents, None at every root."""
    order: list = []
    parent: dict = {}
    for start in starts:
        if start in parent:
            continue
        parent[start] = None
        qi = len(order)
        order.append(start)
        while qi < len(order):
            u = order[qi]
            qi += 1
            for v in neighbours(u):
                if v not in parent:
                    parent[v] = u
                    order.append(v)
    return order, parent


def class_forest(classes: Sequence[SupportClass]):
    """`bfs_forest` on the class graph, started from `classes` in order.

    Returns (side, order, parent) with side = class_sides(classes).  The
    neighbours of (i, c) are the sides S(j, i) for c_j > 0; each side is
    scanned once, after which all of it is discovered, so the walk is
    O(N * n) for N classes and n labels."""
    side = class_sides(classes)
    scanned = set()

    def neighbours(u: SupportClass) -> List[SupportClass]:
        out: List[SupportClass] = []
        for j, cj in enumerate(u.vector, start=1):
            key = (j, u.label)
            if cj > 0 and key not in scanned and key in side:
                scanned.add(key)
                out += side[key]
        return out

    order, parent = bfs_forest(classes, neighbours)
    return side, order, parent


# ---------------------------------------------------------------------------
# Root measures
# ---------------------------------------------------------------------------

@dataclass
class RootMeasure:
    """A measure on rooted labeled trees, stored as the root-label weights,
    the per-label neighbor distributions, and the offspring laws governing
    every descendant subtree."""

    n: int
    root_dist: Dict[int, Fraction]
    neighbor_dist: Dict[int, Dist]
    descendants: GWSpec = field(repr=False)

    def __post_init__(self):
        if self.n != self.descendants.n:
            raise SpecError("measure and descendant spec disagree on n")
        if sorted(self.root_dist) != list(range(1, self.n + 1)):
            raise SpecError("root distribution must cover every label exactly once")
        s = ZERO
        for i, p in self.root_dist.items():
            if not isinstance(p, Fraction) or p <= 0:
                raise SpecError(f"root weight of label {i} must be a positive Fraction")
            s += p
        if s != ONE:
            raise SpecError(f"root weights sum to {s}, expected 1")
        if sorted(self.neighbor_dist) != list(range(1, self.n + 1)):
            raise SpecError("neighbor distributions must cover every label exactly once")
        for i, dist in self.neighbor_dist.items():
            # the root always has at least one neighbor
            validate_dist(dist, self.n, min_total=1)

    def support_classes(self) -> list:
        """All (label, vector) classes carrying positive mass, sorted."""
        return [
            SupportClass(i, c)
            for i in sorted(self.neighbor_dist)
            for c in sorted(self.neighbor_dist[i])
        ]

    def class_prob(self, cls: SupportClass) -> Fraction:
        """Unconditional probability of the class: root weight times the
        conditional neighbor probability."""
        return self.root_dist[cls.label] * self.neighbor_dist[cls.label].get(cls.vector, ZERO)
