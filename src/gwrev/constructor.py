"""Build the unique reversible root measure for an admissible pair-mode spec,
and verify detailed balance exactly.

The balance-graph potentials pin every class weight up to one global scale
per component; with a connected graph, `core.normalize` of each label's
potentials gives its neighbor distribution, and of the labels' potential
sums the root-label distribution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .checker import run_checks
from .core import (
    ChecksFailedError,
    GWSpec,
    PAIR,
    RootMeasure,
    SpecError,
    SupportClass,
    ZERO,
    block_mismatches,
    class_sides,
    exact_flow,
    increment,
    normalize,
    side_key,
)

Violation = Tuple[SupportClass, SupportClass, Fraction, Fraction]


def construct_measure(spec: GWSpec) -> RootMeasure:
    """Solve for the reversible measure whose descendants follow `spec`.

    Runs `run_checks` and raises ChecksFailedError carrying its report when
    a check fails.  The class weights are the balance-graph potentials the
    report holds: each label's potentials, normalized, give its neighbor
    distribution, and the labels' potential sums, normalized, give the root
    distribution (`_normalize`).
    """
    if spec.mode != PAIR:
        raise SpecError("construct_measure requires a pair-mode spec")
    report = run_checks(spec)
    if not report.ok():
        raise ChecksFailedError(report)
    neighbor_dist, root_dist = _normalize(spec.n, report.potentials)
    return RootMeasure(
        n=spec.n,
        root_dist=root_dist,
        neighbor_dist=neighbor_dist,
        descendants=spec,
    )


def _normalize(n: int, potentials: Dict[SupportClass, Fraction]):
    """The neighbor and root distributions of the class potentials, as
    (neighbor_dist, root_dist): label i's potentials, normalized, give its
    neighbor distribution and their unreduced sum S_i / L_i, and the labels'
    sums, normalized, give the root distribution (`core.normalize`)."""
    by_label: Dict[int, Dict] = {i: {} for i in range(1, n + 1)}
    for node in sorted(potentials):
        by_label[node.label][node.vector] = potentials[node].as_integer_ratio()
    neighbor_dist, label_sum = {}, {}
    for i, pots in by_label.items():
        neighbor_dist[i], label_sum[i] = normalize(pots)
    return neighbor_dist, normalize(label_sum)[0]


def verify_reversibility(measure: RootMeasure) -> List[Violation]:
    """Exact detailed-balance check over every admissible pair of support
    classes, and over every step of the walk out of the support.

    Classes u = (i, c) and v = (j, d) with c_j > 0 and d_i > 0 balance when
    `exact_flow(measure, u, v) == exact_flow(measure, v, u)`, the identity
    written out in `core` (in plain mode the parent label is ignored).
    The walk from u steps to a label-j neighbor of class (j, e + e_i), e
    drawn from the law p(i, j); a target that is not a support class has
    mass 0, so its flow back is 0 and the pair (u, v) fails with flows
    lhs > 0 and rhs = 0.  Returns all failing pairs with both flows, sorted;
    a pair of support classes is listed once, first < second.  An empty
    list means the measure is exactly reversible.

    Dividing both flows by the two offspring terms, the pair balances iff
    k(u, j) == k(v, i) for the `core.side_key` k(u, j) = w(u) / h(u, j),
    h the balance factor, a zero term being a value of its own (both zero:
    0 == 0).  The admissible pairs of labels i and j are all pairs across
    the two sides S(i, j) and S(j, i) of `class_sides` (label-i classes with
    c_j > 0, label-j classes with d_i > 0), so the measure is reversible iff
    k takes one value on each label pair and the support is closed under
    the walk.  With w(u) = r_i * n(u), r_i the root weight, that is
    ka(u) * r_i / r_j == kb(v) for the keys ka, kb of the neighbor weights
    n, read once per side with the law p(j, i) looked up once, and
    `core.block_mismatches` decides each block with the one scale r_i / r_j.
    It yields exactly the violating pairs, and only their flows are formed:
    O(N * n) work for N classes and n labels, plus two flows per violation.
    As e -> e + e_i is injective, the targets of p(i, j) all lie in the
    support exactly when the members of S(j, i) with a nonzero term in
    p(i, j) number len(p(i, j)); the law is enumerated only when the counts
    differ.
    """
    law = measure.descendants.offspring_law
    side = class_sides(sorted(SupportClass(i, c) for i, dist in measure.neighbor_dist.items()
                              for c in dist))
    keys = {}
    for (i, j), members in side.items():
        back, dist = law(j, i), measure.neighbor_dist[i]
        keys[(i, j)] = [side_key(back, u, j, dist[u.vector]) for u in members]
    violations: List[Violation] = []
    for (i, j), members in side.items():
        # S(j, i) counts the supported targets of p(i, j); none without it
        step = law(i, j)
        other = keys.get((j, i), ())
        if len(other) - other.count(None) != len(step):
            for e in step:
                v = SupportClass(j, increment(e, i))
                if v.vector not in measure.neighbor_dist[j]:
                    violations += [(u, v, exact_flow(measure, u, v), ZERO) for u in members]
        if i > j or (j, i) not in side:
            continue
        a, b = measure.root_dist[i].as_integer_ratio()
        c, d = measure.root_dist[j].as_integer_ratio()
        scale = (a * d, b * c)
        violations += [(u, v, exact_flow(measure, u, v), exact_flow(measure, v, u))
                       for u, v in block_mismatches(members, side[(j, i)], keys[(i, j)],
                                                    keys[(j, i)], scale)]
    return sorted(violations)
