"""Build the unique reversible root measure for an admissible pair-mode spec,
and verify detailed balance exactly.

The balance-graph potentials pin every class weight up to one global scale
per component; with a connected graph, `core.normalize` of each label's
potentials gives its neighbor distribution, and of the labels' potential
sums the root-label distribution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .checker import CheckReport, run_checks
from .core import (
    ChecksFailedError,
    GWSpec,
    PAIR,
    RootMeasure,
    SupportClass,
    ZERO,
    class_sides,
    exact_flow,
    increment,
    normalize,
    same_key,
    side_key,
)

Violation = Tuple[SupportClass, SupportClass, Fraction, Fraction]


def construct_measure(spec: GWSpec, report: Optional[CheckReport] = None) -> RootMeasure:
    """Solve for the reversible measure whose descendants follow `spec`.

    Runs the full admissibility checks first (unless a passing report is
    supplied) and raises ChecksFailedError carrying the report otherwise.
    A supplied report must be `run_checks(spec)`: the class weights are the
    balance-graph potentials it holds.  Each label's potentials, normalized,
    give its neighbor distribution, and the labels' potential sums,
    normalized, give the root distribution (`_normalize`).
    """
    if spec.mode != PAIR:
        raise ChecksFailedError("construct_measure requires a pair-mode spec")
    if report is None:
        report = run_checks(spec)
    if not report.ok():
        raise ChecksFailedError(
            f"spec fails admissibility checks: {', '.join(report.failed_names())}",
            report=report,
        )
    neighbor_dist, root_dist = _normalize(spec.n, report.potentials)
    measure = RootMeasure(
        n=spec.n,
        root_dist=root_dist,
        neighbor_dist=neighbor_dist,
        descendants=spec,
    )
    return measure


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


# the value of a side whose members' balance keys differ
_MIXED = object()


def _side_key(measure: RootMeasure, members: List[SupportClass], j: int, law):
    """(value, covered) for side S(i, j), whose members read their offspring
    terms from law = p(j, i): the side's one balance key times the root
    weight of label i, as an unreduced integer pair, None when every
    member's term is zero, or _MIXED when the members' keys differ; and the
    number of members whose term is nonzero.  Keys, of the members' neighbor
    weights, are compared with the first one by cross-multiplication."""
    i = members[0].label
    dist = measure.neighbor_dist[i]
    k0 = side_key(law, members[0], j, dist[members[0].vector])
    value, covered = k0, k0 is not None
    for u in members[1:]:
        k = side_key(law, u, j, dist[u.vector])
        covered += k is not None
        if value is not _MIXED and not same_key(k, k0):
            value = _MIXED
    if value is None or value is _MIXED:
        return value, covered
    root = measure.root_dist[i]
    return (root.numerator * k0[0], root.denominator * k0[1]), covered


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
    the walk: O(N * n) work for N classes and n labels.  Within a side the
    keys are integer pairs compared by cross-multiplication, with no gcd,
    and so are the root-weighted keys of S(i, j) and S(j, i).  The law
    p(j, i) is looked up once per side S(i, j).  Violations can
    only lie in a block whose keys disagree, and only those blocks are
    listed pair by pair, with their flows as Fractions.  As e -> e + e_i is
    injective, the targets of p(i, j) all lie in the support exactly when
    the members of S(j, i) with a nonzero term in p(i, j) number
    len(p(i, j)); the law is enumerated only when the counts differ.
    """
    law = measure.descendants.offspring_law
    side = class_sides(SupportClass(i, c) for i, dist in measure.neighbor_dist.items()
                       for c in dist)
    keys = {(i, j): _side_key(measure, members, j, law(j, i))
            for (i, j), members in side.items() if (j, i) in side}
    violations: List[Violation] = []
    for (i, j), members in side.items():
        # S(j, i) counts the supported targets of p(i, j); none without it
        step = law(i, j)
        if keys.get((j, i), (None, 0))[1] != len(step):
            for e in step:
                v = SupportClass(j, increment(e, i))
                if v.vector not in measure.neighbor_dist[j]:
                    violations += [(u, v, exact_flow(measure, u, v), ZERO) for u in members]
        if i > j or (j, i) not in side:
            continue
        key, other = keys[(i, j)][0], keys[(j, i)][0]
        if key is not _MIXED and (i == j or other is not _MIXED and same_key(key, other)):
            continue
        for u in members:
            for v in side[(j, i)]:
                if i == j and not u < v:
                    continue
                lhs, rhs = exact_flow(measure, u, v), exact_flow(measure, v, u)
                if lhs != rhs:
                    violations.append((u, v, lhs, rhs))
    return sorted(violations)
