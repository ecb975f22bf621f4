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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from typing import (
    Callable, Collection, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple, Union,
)

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
    """An operation requiring a fully checked spec was given a failing one;
    carries the failing check report, whose failed checks the message names."""

    def __init__(self, report):
        super().__init__(f"spec fails admissibility checks: {', '.join(report.failed_names())}")
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


def degrees(dist: Mapping[Vector, Fraction]) -> set:
    """Set of totals |c| over the support."""
    if not dist:
        raise InvalidDistributionError("empty distribution")
    return {total(c) for c in dist}


def over_common_denominator(terms: Collection[Tuple[int, int]]) -> Tuple[List[int], int]:
    """The fractions given as (numerator, denominator) pairs over their
    common denominator L, the lcm of the denominators: ([num * L / den], L)."""
    common = math.lcm(*[den for _, den in terms])
    return [num * (common // den) for num, den in terms], common


def common_sum(terms: Collection[Tuple[int, int]]) -> Tuple[int, int]:
    """The sum of the fractions given as (numerator, denominator) pairs, as
    the unreduced pair (S, L) over their common denominator L."""
    nums, common = over_common_denominator(terms)
    return sum(nums), common


def normalize(weights: Mapping) -> Tuple[Dict, Tuple[int, int]]:
    """The weights given as (numerator, denominator) pairs by key, each over
    their sum, and that sum as the unreduced pair (S, L): over the common
    denominator L each weight is an integer x, S is their sum, and the key
    gets the one Fraction(x, S), with no Fraction arithmetic."""
    nums, common = over_common_denominator(weights.values())
    norm = sum(nums)
    return {key: Fraction(x, norm) for key, x in zip(weights, nums)}, (norm, common)


def check_weights(weights: Mapping, what: str, *, zero: bool = False) -> None:
    """Check weights given by key: each a Fraction in (0, 1], in [0, 1] with
    `zero`, and all summing to exactly 1, decided over their common
    denominator.  Else SpecError names `what` and the first key out of
    range, or the sum."""
    low = 0 if zero else 1
    terms = []
    for key, w in weights.items():
        # low <= numerator <= denominator, the denominator being positive;
        # (1, 0), in no range, stands for a weight that is not a Fraction
        num, den = w.as_integer_ratio() if isinstance(w, Fraction) else (1, 0)
        if not low <= num <= den:
            raise SpecError(f"{what}: the weight of {key} is {w}, "
                            f"not a Fraction in {'[' if zero else '('}0, 1]")
        terms.append((num, den))
    num, common = common_sum(terms)
    if num != common:
        raise SpecError(f"{what} sum to {sum(weights.values(), ZERO)}, expected 1")


def validate_dist(dist: Mapping[Vector, Fraction], n: int, *, min_total: int = 0) -> None:
    """Check a stored distribution: vectors of length n, positive rational
    probabilities summing to exactly 1, and every total >= min_total.  The
    range and the sum are checked on numerators and denominators, each read
    once; the Fraction sum is formed only to report a sum that is not 1."""
    if not dist:
        raise InvalidDistributionError("empty distribution")
    terms = []
    for c, p in dist.items():
        if len(c) != n:
            raise InvalidDistributionError(f"vector {c} has length {len(c)}, expected {n}")
        if c and min(c) < 0:
            raise InvalidDistributionError(f"vector {c} has a negative count")
        # with no negative count, a total below min_total <= 0 cannot occur
        if min_total > 0 and sum(c) < min_total:
            raise InvalidDistributionError(f"vector {c} has total < {min_total}")
        if not isinstance(p, Fraction):
            raise InvalidDistributionError(f"probability of {c} is not a Fraction: {p!r}")
        num, den = p.as_integer_ratio()
        # 0 < p <= 1, the denominator being positive
        if not 0 < num <= den:
            raise InvalidDistributionError(f"probability of {c} is {p}, outside (0, 1]")
        terms.append((num, den))
    num, common = common_sum(terms)
    if num != common:
        raise InvalidDistributionError(
            f"probabilities sum to {sum(dist.values(), ZERO)}, expected 1")


def child_labels(law: Iterable[Vector]) -> Tuple[int, ...]:
    """The labels k with c_k > 0 in some vector c of the law, ascending:
    those whose column of the law's vectors is not all 0."""
    return tuple(compress(count(1), map(any, zip(*law))))


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
    # `child_labels` of each law, read once in __post_init__
    child_labels: Dict[SpecKey, Tuple[int, ...]] = field(init=False, repr=False, compare=False)

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
        self.child_labels = {key: child_labels(dist) for key, dist in self.offspring.items()}
        self._check_closure()

    def _check_closure(self):
        # Every child type reachable from a stored law must itself have a law.
        for key in sorted(self.offspring):
            child_of = key[1] if self.mode == PAIR else key
            for k in self.child_labels[key]:
                child_key = (child_of, k) if self.mode == PAIR else k
                if child_key not in self.offspring:
                    raise SpecError(
                        f"law for {key} produces children of type {child_key}, "
                        "which has no offspring law"
                    )

    # -- lookup helpers ----------------------------------------------------

    def offspring_prob(self, parent: int, label: int, c: Vector) -> Fraction:
        """Offspring probability for a (parent, label) vertex in either mode."""
        return self.offspring_law(parent, label).get(c, ZERO)

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
    neighbours of (i, c) are the sides S(j, i) for c_j > 0, read off the
    side index: the labels j with S(j, i) non-empty, ascending, kept where
    c_j > 0.  Each side is scanned once, after which all of it is
    discovered, so the walk is O(N * n) for N classes and n labels."""
    side = class_sides(classes)
    facing: Dict[int, List[int]] = {}
    for j, i in sorted(side):
        facing.setdefault(i, []).append(j)
    scanned = set()

    def neighbours(u: SupportClass) -> List[SupportClass]:
        out: List[SupportClass] = []
        for j in facing.get(u.label, ()):
            key = (j, u.label)
            if u.vector[j - 1] > 0 and key not in scanned:
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
        check_weights(self.root_dist, "root weights")
        if sorted(self.neighbor_dist) != list(range(1, self.n + 1)):
            raise SpecError("neighbor distributions must cover every label exactly once")
        for i, dist in self.neighbor_dist.items():
            # the root always has at least one neighbor
            validate_dist(dist, self.n, min_total=1)
            # and each neighbor's subtree needs a law to be sampled from
            for j in child_labels(dist):
                if not self.descendants.offspring_law(i, j):
                    raise SpecError(
                        f"label-{i} roots have label-{j} neighbors, but a label-{j} "
                        f"vertex with a label-{i} parent has no offspring law"
                    )

    def class_prob(self, cls: SupportClass) -> Fraction:
        """Unconditional probability of the class: root weight times the
        conditional neighbor probability."""
        return self.root_dist[cls.label] * self.neighbor_dist[cls.label].get(cls.vector, ZERO)


# ---------------------------------------------------------------------------
# Detailed balance: the one flow and the one balance key
# ---------------------------------------------------------------------------

BalanceKey = Optional[Tuple[int, int]]


def exact_flow(measure: RootMeasure, source: SupportClass, target: SupportClass) -> Fraction:
    """Exact one-step flow from class `source` = (i, c) into `target` = (j, d):
    weight(i, c) * p(i,j)(d - i) * c_j / |c|.  The measure is reversible iff
    every pair of adjacent classes (c_j > 0, d_i > 0) has equal flows both
    ways."""
    i, c = source
    j, d = target
    return (
        measure.class_prob(source)
        * measure.descendants.offspring_prob(i, j, decrement(d, i))
        * Fraction(c[j - 1], total(c))
    )


def side_key(law: Dist, u: SupportClass, j: int, weight: Fraction) -> BalanceKey:
    """k(u, j) = weight / h(u, j) for u = (i, c) with c_j > 0, where
    h(u, j) = p(j,i)(c - e_j) * |c| / c_j is the balance factor, as the
    unreduced integer pair (a * q * c_j, b * p * |c|) for weight = a / b and
    p(j,i)(c - e_j) = p / q; None when that offspring term is unstored.
    The term is read from law = p(j, i), the one law every member of the
    side S(i, j) reads.

    Divided by their offspring terms, the two flows between u = (i, c) and
    v = (j, d) are equal iff k(u, j) == k(v, i) with weight(u) and weight(v),
    a zero term being a value of its own.  Keys are compared by `same_key`,
    without a gcd."""
    c = u.vector
    p = law.get(decrement(c, j))
    if p is None:
        return None
    a, b = weight.as_integer_ratio()
    num, den = p.as_integer_ratio()
    return a * den * c[j - 1], b * num * total(c)


def same_key(a: BalanceKey, b: BalanceKey) -> bool:
    """Whether two balance keys are equal: both None, or equal ratios by
    cross-multiplication."""
    if a is None or b is None:
        return a is b
    return a[0] * b[1] == b[0] * a[1]


def block_mismatches(a: Sequence, b: Sequence, ka: Sequence[BalanceKey],
                     kb: Sequence[BalanceKey], scale: Tuple[int, int]) -> Iterator[tuple]:
    """The pairs (u, v) of the block a x b of two non-empty sides whose keys,
    lists in side order, differ: ka[u] * p / q != kb[v] by `same_key` for
    scale = (p, q), in the order of a and then of b; for the clique `a is b`,
    only u before v.  kb is constant on b[:split], so one comparison with
    kb[0] * q / p decides each u against that prefix, and a u whose key
    equals that of a constant b is skipped: a block whose keys agree, and a
    block's first pair, cost at most |a| + |b| + 1 comparisons, and each
    further pair at most one."""
    p, q = scale
    k0 = kb[0]
    split = next((y for y in range(1, len(b)) if not same_key(kb[y], k0)), len(b))
    if a is b and split == len(b) and p == q:
        return  # a clique of one key
    k0 = None if k0 is None else (k0[0] * q, k0[1] * p)
    for x, (u, key) in enumerate(zip(a, ka)):
        start = x + 1 if a is b else 0
        if not same_key(key, k0):
            yield from ((u, v) for v in b[start:split])
        if split < len(b):
            key = None if key is None else (key[0] * p, key[1] * q)
            for y in range(max(start, split), len(b)):
                if not same_key(key, kb[y]):
                    yield u, b[y]
