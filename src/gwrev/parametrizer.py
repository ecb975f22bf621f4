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
admit no reversible measure and assemble_measure rejects them with
InconsistentRatiosError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .checker import label_potentials
from .core import (
    GWSpec,
    GwrevError,
    PAIR,
    RootMeasure,
    SpecError,
    SupportClass,
    check_weights,
    class_forest,
    decrement,
    normalize,
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
            if min(cls.vector) < 0:
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

    @cached_property
    def forest(self):
        """`class_forest(classes)`, built once per template: (side, order,
        parent), where side[(i, j)] is S(i, j)."""
        return class_forest(self.classes)


def validate_template(template: SupportTemplate) -> Tuple[bool, Optional[str]]:
    """Check support symmetry and chain connectivity.

    Returns (True, None), or (False, reason) naming the failed condition and
    a witness.
    """
    n = template.n
    side, order, parent = template.forest
    # every class has a neighbor, so a label with a class has a side
    seen = {i for (i, _) in side}
    for i in range(1, n + 1):
        if i not in seen:
            return False, f"support_symmetry: label {i} has no class"

    # a side S(i, j) with no S(j, i) makes both (i, j) and (j, i) one-sided
    one_sided = [min(key, key[::-1]) for key in side if key[::-1] not in side]
    if one_sided:
        i, j = min(one_sided)
        return False, f"support_symmetry: labels ({i}, {j}) are adjacent from one side only"

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
    for i, classes in template.by_label().items():
        check_weights({cls: weights[cls] for cls in classes}, f"class weights of label {i}")


def _forced_laws(template: SupportTemplate, weights: Weights):
    """The offspring laws forced by the class weights, keyed (i, j), and
    their normalizers, the label flows flow(i, j).

    The law (i, j) is `core.normalize` of the masses
    x(d) = w(d) * d_i / |d|, given as the pairs (num(w(d)) * d_i,
    den(w(d)) * |d|), of the classes (j, d) of the side S(j, i), and
    flow(i, j) is their sum, Fraction(S, L) for the unreduced sum (S, L):
    one Fraction per stored value, and no Fraction arithmetic."""
    side = template.forest[0]
    laws: Dict[Tuple[int, int], Dict] = {}
    flow: Dict[Tuple[int, int], Fraction] = {}
    # the sides S(j, i) in (i, j) order
    for (j, i) in sorted(side, key=lambda key: (key[1], key[0])):
        laws[(i, j)], norm = normalize({
            decrement(cls.vector, i): (weights[cls].numerator * cls.vector[i - 1],
                                       weights[cls].denominator * total(cls.vector))
            for cls in side[(j, i)]})
        flow[(i, j)] = Fraction(*norm)
    return laws, flow


def _root_weights(n: int, flow) -> Dict[int, Fraction]:
    """The root-label weights forced by detailed balance.

    Under the forced laws, the balance key of a label-j class d toward
    label i is the normalizer of the law (i, j), the label flow

        flow(i, j) = sum of w(d) * d_i / |d| over label-j classes d, d_i > 0,

    so every class pair across labels i and j forces the same ratio
    weight(i) / weight(j) = flow(i, j) / flow(j, i), solved up to scale by
    `label_potentials` over the label graph, which chain connectivity makes
    connected, and normalized.  Ratios that do not close around a label
    cycle raise InconsistentRatiosError at the first inconsistent label pair
    in sorted order.  O(N * n) work for N classes and n labels.
    """
    ratio = {
        (i, j): f / flow[(j, i)] for (i, j), f in flow.items() if i < j and (j, i) in flow
    }
    potential, cycle, _ = label_potentials(n, ratio)
    if cycle is not None:
        # the cycle ends ..., j, i with (i, j) its first inconsistent edge
        raise InconsistentRatiosError(cycle[-1], cycle[-2])
    return normalize({i: potential[i].as_integer_ratio() for i in range(1, n + 1)})[0]


def family_dimension(template: SupportTemplate) -> int:
    """Dimension of the affine family of measures over the template: |M| - n."""
    return len(template.classes) - template.n


def assemble_measure(template: SupportTemplate, weights: Weights) -> RootMeasure:
    """Validate, solve, and assemble the full measure for (M, weights)."""
    ok, reason = validate_template(template)
    if not ok:
        raise InvalidTemplateError(reason)
    validate_weights(template, weights)
    laws, flow = _forced_laws(template, weights)
    # a template whose ratios do not close raises here, before any spec is built
    root = _root_weights(template.n, flow)
    offspring = GWSpec(n=template.n, mode=PAIR, offspring=laws)
    by_label = template.by_label()
    neighbor = {i: {cls.vector: weights[cls] for cls in by_label[i]}
                for i in range(1, template.n + 1)}
    return RootMeasure(
        n=template.n, root_dist=root, neighbor_dist=neighbor, descendants=offspring
    )
