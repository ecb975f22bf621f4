"""The plain regime: offspring laws keyed by the vertex label alone.

A reversible measure exists here exactly when every per-label offspring law,
conditioned on its total, is multinomial with label probabilities that do
not depend on the total, and those probabilities satisfy the cycle identity
prod p(i_s, i_{s+1}) / p(i_{s+1}, i_s) = 1 around the label graph.

The measure itself shifts every degree up by one (the root keeps its parent
slot) and solves weight(i) / weight(j) = p(j, i) / p(i, j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .checker import label_potentials
from .core import (
    ChecksFailedError,
    Dist,
    GWSpec,
    GwrevError,
    PLAIN,
    RootMeasure,
    SpecError,
    Vector,
    total,
)


class NotMultinomialError(GwrevError):
    """A conditional offspring law is not multinomial; carries (label, degree,
    vector) of the first failing entry."""

    name = "not-multinomial"

    def __init__(self, label, degree, vec):
        super().__init__(
            f"law of label {label} at degree {degree} is not multinomial "
            f"(first failure at {vec})"
        )
        self.witness = (label, degree, vec)


class DegreeDependentParametersError(GwrevError):
    """Multinomial parameters differ between two degrees of the same label."""

    name = "degree-dependent-parameters"

    def __init__(self, label, degree_a, degree_b):
        super().__init__(
            f"label {label} has different multinomial parameters at degrees "
            f"{degree_a} and {degree_b}"
        )
        self.witness = (label, degree_a, degree_b)


class AsymmetricAdjacencyError(GwrevError):
    """p(i, j) > 0 but p(j, i) = 0: no reversible measure can exist."""

    name = "asymmetric-adjacency"

    def __init__(self, i, j):
        super().__init__(f"label {i} can have {j}-children but not conversely")
        self.witness = (i, j)


@dataclass
class PlainSpec:
    """Degree distributions plus one multinomial parameter row per label.

    ``degree_dist[i][d]`` is the probability that a label-i vertex has d
    children; ``params[i]`` is the length-n row of label probabilities for
    each child slot.
    """

    n: int
    degree_dist: Dict[int, Dict[int, Fraction]]
    params: Dict[int, Tuple[Fraction, ...]]

    def __post_init__(self):
        if sorted(self.degree_dist) != list(range(1, self.n + 1)):
            raise SpecError("degree distributions must cover every label")
        if sorted(self.params) != list(range(1, self.n + 1)):
            raise SpecError("parameter rows must cover every label")
        for i, dd in self.degree_dist.items():
            if not dd:
                raise SpecError(f"label {i} has an empty degree distribution")
            s = Fraction(0)
            for d, p in dd.items():
                if d < 0:
                    raise SpecError(f"label {i} has a negative degree {d}")
                if not isinstance(p, Fraction) or p <= 0 or p > 1:
                    raise SpecError(f"degree weight of ({i}, {d}) must be in (0, 1]")
                s += p
            if s != 1:
                raise SpecError(f"degree weights of label {i} sum to {s}")
        for i, row in self.params.items():
            if len(row) != self.n:
                raise SpecError(f"parameter row of label {i} has wrong length")
            for p in row:
                if not isinstance(p, Fraction) or p < 0 or p > 1:
                    raise SpecError(f"parameter row of label {i} leaves [0, 1]")
            if sum(row) != 1:
                raise SpecError(f"parameter row of label {i} sums to {sum(row)}")
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                if (self.params[i][j - 1] > 0) != (self.params[j][i - 1] > 0):
                    raise AsymmetricAdjacencyError(i, j)

    def prob(self, i: int, j: int) -> Fraction:
        return self.params[i][j - 1]


# ---------------------------------------------------------------------------
# Multinomial expansion
# ---------------------------------------------------------------------------

def _compositions(degree: int, slots: int):
    """All tuples of `slots` non-negative ints summing to `degree`."""
    if slots == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _compositions(degree - first, slots - 1):
            yield (first,) + rest


def multinomial_pmf(c: Vector, params: Tuple[Fraction, ...]) -> Fraction:
    """Exact multinomial probability of the count vector c."""
    out = Fraction(math.factorial(total(c)))
    for ck, p in zip(c, params):
        out *= Fraction(p) ** ck / math.factorial(ck)
    return out


def multinomial_dist(degree: int, params: Tuple[Fraction, ...]) -> Dist:
    """Explicit distribution of a degree-`degree` multinomial draw, supported
    exactly on the positive-parameter labels."""
    n = len(params)
    if degree == 0:
        return {(0,) * n: Fraction(1)}
    active = [j for j in range(n) if params[j] > 0]
    if not active:
        raise SpecError("positive degree with an all-zero parameter row")
    out: Dist = {}
    for comp in _compositions(degree, len(active)):
        c = [0] * n
        for slot, cnt in zip(active, comp):
            c[slot] = cnt
        vec = tuple(c)
        out[vec] = multinomial_pmf(vec, params)
    return out


# ---------------------------------------------------------------------------
# Extraction from an explicit plain spec
# ---------------------------------------------------------------------------

def extract_plain_spec(spec: GWSpec) -> PlainSpec:
    """Verify that each per-label law is multinomial given its degree, with
    degree-independent parameters, and read those parameters off.

    Raises NotMultinomialError or DegreeDependentParametersError with the
    first witness in sorted order, AsymmetricAdjacencyError when the
    extracted rows cannot support a reversible measure.
    """
    if spec.mode != PLAIN:
        raise SpecError("extract_plain_spec requires a plain-mode spec")
    for i in range(1, spec.n + 1):
        if i not in spec.offspring:
            raise SpecError(f"label {i} has no offspring law")

    degree_dist: Dict[int, Dict[int, Fraction]] = {}
    params: Dict[int, Tuple[Fraction, ...]] = {}
    for i in range(1, spec.n + 1):
        dist = spec.offspring[i]
        by_degree: Dict[int, Dist] = {}
        for c in sorted(dist):
            by_degree.setdefault(total(c), {})[c] = dist[c]
        degree_dist[i] = {d: sum(sub.values()) for d, sub in sorted(by_degree.items())}

        row_of_degree: Dict[int, Tuple[Fraction, ...]] = {}
        for d in sorted(by_degree):
            if d == 0:
                continue  # a single empty vector; multinomial for any row
            sub = by_degree[d]
            mass = degree_dist[i][d]
            row = tuple(
                sum(p * c[j] for c, p in sub.items()) / (mass * d)
                for j in range(spec.n)
            )
            for c in sorted(sub):
                if sub[c] != mass * multinomial_pmf(c, row):
                    raise NotMultinomialError(i, d, c)
            row_of_degree[d] = row
        rows = [row_of_degree[d] for d in sorted(row_of_degree)]
        if not rows:
            raise SpecError(
                f"label {i} only ever has zero children; its parameter row "
                "is undefined"
            )
        for d, other in sorted(row_of_degree.items())[1:]:
            if other != rows[0]:
                raise DegreeDependentParametersError(i, sorted(row_of_degree)[0], d)
        params[i] = rows[0]
    return PlainSpec(n=spec.n, degree_dist=degree_dist, params=params)


def expand_plain_spec(pspec: PlainSpec) -> GWSpec:
    """Explicit per-label offspring distributions for a PlainSpec."""
    offspring = {}
    for i in range(1, pspec.n + 1):
        dist: Dist = {}
        for d, pd in sorted(pspec.degree_dist[i].items()):
            for c, q in multinomial_dist(d, pspec.params[i]).items():
                dist[c] = pd * q
        offspring[i] = dist
    return GWSpec(n=pspec.n, mode=PLAIN, offspring=offspring)


# ---------------------------------------------------------------------------
# Cycle check and construction
# ---------------------------------------------------------------------------

def plain_label_edges(pspec: PlainSpec) -> List[Tuple[int, int]]:
    """Undirected label adjacency (i < j) where p(i, j) > 0."""
    return [
        (i, j)
        for i in range(1, pspec.n + 1)
        for j in range(i + 1, pspec.n + 1)
        if pspec.prob(i, j) > 0
    ]


def _plain_potentials(pspec: PlainSpec):
    """`label_potentials` on the label graph, with the ratio
    weight(i) / weight(j) = p(j, i) / p(i, j) on every edge."""
    ratio = {
        (i, j): pspec.prob(j, i) / pspec.prob(i, j) for i, j in plain_label_edges(pspec)
    }
    return label_potentials(pspec.n, ratio)


def check_plain_cycles(pspec: PlainSpec) -> Tuple[bool, Optional[List[int]]]:
    """Cycle identity on the label graph, by potential propagation.

    Returns (True, None) or (False, cycle) where cycle is a closed label walk
    whose ratio product p(i, j) / p(j, i) differs from 1.
    """
    _, cycle, _ = _plain_potentials(pspec)
    return cycle is None, cycle


def plain_cycle_product(pspec: PlainSpec, cycle: List[int]) -> Fraction:
    """Replay a closed label walk: product of p(i, j) / p(j, i) steps."""
    if cycle[0] != cycle[-1]:
        raise ValueError("cycle must start and end at the same label")
    prod = Fraction(1)
    for i, j in zip(cycle, cycle[1:]):
        prod *= pspec.prob(i, j) / pspec.prob(j, i)
    return prod


@dataclass
class PlainCheckReport:
    """Outcome of the plain-mode admissibility checks."""

    multinomial: bool
    multinomial_error: Optional[str]
    multinomial_witness: Optional[tuple]
    cycles: Optional[bool]
    violating_cycle: Optional[List[int]]
    connected: Optional[bool]

    def ok(self) -> bool:
        return self.multinomial and self.cycles is True and self.connected is True

    def failed_names(self) -> List[str]:
        out = []
        if not self.multinomial:
            out.append(self.multinomial_error or "multinomial")
        if self.cycles is False:
            out.append("cycles")
        if self.connected is False:
            out.append("connected")
        return out


def check_plain_spec(pspec: PlainSpec) -> PlainCheckReport:
    """Cycle and connectivity checks of a PlainSpec, whose rows are
    multinomial parameters by definition."""
    _, cycle, components = _plain_potentials(pspec)
    return PlainCheckReport(True, None, None, cycle is None, cycle, components == 1)


def run_plain_checks(spec: GWSpec) -> Tuple[PlainCheckReport, Optional[PlainSpec]]:
    """Extraction plus cycle and connectivity checks, collected in a report."""
    try:
        pspec = extract_plain_spec(spec)
    except (NotMultinomialError, DegreeDependentParametersError,
            AsymmetricAdjacencyError) as err:
        return PlainCheckReport(False, err.name, err.witness, None, None, None), None
    return check_plain_spec(pspec), pspec


def construct_plain_measure(pspec: PlainSpec) -> RootMeasure:
    """The unique reversible measure for an admissible PlainSpec.

    Root degrees are the child degrees shifted up by one, conditional
    neighbor laws reuse the same multinomial rows, and the root-label
    weights solve the pairwise ratio equations.
    """
    pot, cycle, components = _plain_potentials(pspec)
    if cycle is not None:
        raise ChecksFailedError(f"cycle identity fails along {cycle}")
    if components != 1:
        raise ChecksFailedError("label graph is disconnected")
    grand = sum(pot.values())
    root_dist = {i: pot[i] / grand for i in range(1, pspec.n + 1)}

    neighbor_dist: Dict[int, Dist] = {}
    for i in range(1, pspec.n + 1):
        dist: Dist = {}
        for d, pd in sorted(pspec.degree_dist[i].items()):
            for c, q in multinomial_dist(d + 1, pspec.params[i]).items():
                dist[c] = pd * q
        neighbor_dist[i] = dist

    return RootMeasure(
        n=pspec.n,
        root_dist=root_dist,
        neighbor_dist=neighbor_dist,
        descendants=expand_plain_spec(pspec),
    )
