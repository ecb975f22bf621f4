"""Parametrize every reversible measure with a prescribed support.

A support template fixes the set M of root classes (label, neighbor vector).
Two structural conditions make M usable:

* support symmetry: label i can see label j from some class of M exactly
  when label j can see label i;
* chain connectivity: any two labels are linked by a chain of classes in M
  whose consecutive members can sit next to each other in a tree.

Given M and free per-label class weights, the offspring laws and the
root-label weights are forced; when the forced system closes, the family of
measures over a fixed M is an affine set of dimension |M| - n.

The two structural conditions do not guarantee closure: a template whose
class graph contains a cycle through three or more label pairs can force
root-weight ratios whose product around the cycle differs from 1, for every
choice of weights (the smallest examples need four labels).  Such templates
admit no reversible measure and solve_root_weights rejects them with
InconsistentRatiosError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .checker import label_potentials
from .core import (
    GWSpec,
    GwrevError,
    PAIR,
    RootMeasure,
    SpecError,
    SupportClass,
    class_forest,
    class_sides,
    decrement,
    total,
)

Weights = Dict[SupportClass, Fraction]


class InconsistentRatiosError(GwrevError):
    """The root-weight ratios forced by the template do not close around a
    label cycle; no reversible measure has this support and these weights."""

    def __init__(self, i, j):
        super().__init__(
            f"forced root-weight ratios are inconsistent at labels ({i}, {j}); "
            "the template admits no reversible measure with these weights"
        )
        self.labels = (i, j)


class InvalidTemplateError(SpecError):
    """The template fails support symmetry or chain connectivity; `reason`
    names the failed condition and a witness."""

    def __init__(self, reason):
        super().__init__(f"invalid template: {reason}")
        self.reason = reason


@dataclass
class SupportTemplate:
    """The class set M a measure's neighbor distributions must realize."""

    n: int
    classes: Tuple[SupportClass, ...]

    def __post_init__(self):
        seen = set()
        for cls in self.classes:
            if not (1 <= cls.label <= self.n):
                raise SpecError(f"class {cls} has a label outside [1, {self.n}]")
            if len(cls.vector) != self.n:
                raise SpecError(f"class {cls} has a vector of wrong length")
            if any(x < 0 for x in cls.vector):
                raise SpecError(f"class {cls} has a negative count")
            if total(cls.vector) < 1:
                raise SpecError(f"class {cls} has an empty neighbor vector")
            if cls in seen:
                raise SpecError(f"duplicate class {cls}")
            seen.add(cls)
        self.classes = tuple(sorted(self.classes))

    def by_label(self) -> Dict[int, List[SupportClass]]:
        out: Dict[int, List[SupportClass]] = {i: [] for i in range(1, self.n + 1)}
        for cls in self.classes:
            out[cls.label].append(cls)
        return out


def validate_template(template: SupportTemplate) -> Tuple[bool, Optional[str]]:
    """Check support symmetry and chain connectivity.

    Returns (True, None), or (False, reason) naming the failed condition and
    a witness.
    """
    n = template.n
    by_label = template.by_label()
    for i in range(1, n + 1):
        if not by_label[i]:
            return False, f"support_symmetry: label {i} has no class"

    side, order, parent = class_forest(template.classes)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if ((i, j) in side) != ((j, i) in side):
                return False, (
                    f"support_symmetry: labels ({i}, {j}) are adjacent from one "
                    "side only"
                )

    # Chain connectivity: classes u, v can be tree neighbors when u's vector
    # counts v's label and vice versa; every label pair must be bridged by a
    # tree of the class forest.
    root: Dict[SupportClass, SupportClass] = {}
    comp_of_label: Dict[int, set] = {i: set() for i in range(1, n + 1)}
    for cls in order:
        root[cls] = cls if parent[cls] is None else root[parent[cls]]
        comp_of_label[cls.label].add(root[cls])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not (comp_of_label[i] & comp_of_label[j]):
                return False, f"connectivity: no class chain links labels {i} and {j}"
    return True, None


def validate_weights(template: SupportTemplate, weights: Weights) -> None:
    """Weights must be positive exactly on M and sum to 1 within each label."""
    if set(weights) != set(template.classes):
        raise SpecError("weights must be given for exactly the template classes")
    sums = {i: Fraction(0) for i in range(1, template.n + 1)}
    for cls, w in weights.items():
        if not isinstance(w, Fraction) or w <= 0 or w > 1:
            raise SpecError(f"weight of {cls} must be a Fraction in (0, 1]")
        sums[cls.label] += w
    for i, s in sums.items():
        if s != 1:
            raise SpecError(f"weights of label {i} sum to {s}, expected 1")


def solve_offspring(template: SupportTemplate, weights: Weights) -> GWSpec:
    """Recover the offspring laws forced by the class weights.

    For each parent label i and own label j, the law assigns the class
    (j, d) with d_i > 0, seen through its parent slot, mass proportional to
    weight(j, d) * d_i / |d|.
    """
    side = class_sides(template.classes)
    laws: Dict[Tuple[int, int], Dict] = {}
    # the sides S(j, i) in (i, j) order
    for (j, i) in sorted(side, key=lambda key: (key[1], key[0])):
        raw = {
            decrement(cls.vector, i): weights[cls]
            * Fraction(cls.vector[i - 1], total(cls.vector))
            for cls in side[(j, i)]
        }
        norm = sum(raw.values())
        laws[(i, j)] = {c: w / norm for c, w in raw.items()}
    return GWSpec(n=template.n, mode=PAIR, offspring=laws)


def solve_root_weights(template: SupportTemplate, weights: Weights) -> Dict[int, Fraction]:
    """Recover the root-label weights forced by detailed balance.

    Under the laws of `solve_offspring`, the balance key of a label-j class
    d toward label i is the normalizer of the law (i, j), the label flow

        flow(i, j) = sum of w(d) * d_i / |d| over label-j classes d, d_i > 0,

    so every class pair across labels i and j forces the same ratio
    weight(i) / weight(j) = flow(i, j) / flow(j, i).  `label_potentials`
    solves these ratios over the label graph.  A disconnected label graph
    raises SpecError; ratios that do not close around a label cycle raise
    InconsistentRatiosError at the first inconsistent label pair in sorted
    order.  O(N * n) work for N classes and n labels.
    """
    flow = {
        (i, j): sum(weights[d] * d.vector[i - 1] / total(d.vector) for d in members)
        for (j, i), members in class_sides(template.classes).items()
        if i != j
    }
    ratio = {
        (i, j): f / flow[(j, i)] for (i, j), f in flow.items() if i < j and (j, i) in flow
    }
    potential, cycle, components = label_potentials(template.n, ratio)
    if components != 1:
        raise SpecError("label graph is not connected; template is invalid")
    if cycle is not None:
        # the cycle ends ..., j, i with (i, j) its first inconsistent edge
        raise InconsistentRatiosError(cycle[-1], cycle[-2])
    grand = sum(potential.values())
    return {i: potential[i] / grand for i in range(1, template.n + 1)}


def family_dimension(template: SupportTemplate) -> int:
    """Dimension of the affine family of measures over the template: |M| - n."""
    return len(template.classes) - template.n


def assemble_measure(template: SupportTemplate, weights: Weights) -> RootMeasure:
    """Validate, solve, and assemble the full measure for (M, weights)."""
    ok, reason = validate_template(template)
    if not ok:
        raise InvalidTemplateError(reason)
    validate_weights(template, weights)
    offspring = solve_offspring(template, weights)
    root = solve_root_weights(template, weights)
    neighbor = {
        i: {cls.vector: weights[cls] for cls in template.by_label()[i]}
        for i in range(1, template.n + 1)
    }
    return RootMeasure(
        n=template.n, root_dist=root, neighbor_dist=neighbor, descendants=offspring
    )


def template_of_measure(measure: RootMeasure) -> Tuple[SupportTemplate, Weights]:
    """Read the support template and class weights back off a measure."""
    classes = tuple(measure.support_classes())
    weights = {
        cls: measure.neighbor_dist[cls.label][cls.vector] for cls in classes
    }
    return SupportTemplate(n=measure.n, classes=classes), weights
