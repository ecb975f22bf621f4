"""Build the unique reversible root measure for an admissible pair-mode spec,
and verify detailed balance exactly.

The balance-graph potentials pin every class weight up to one global scale
per component; with a connected graph a single normalization per label gives
the neighbor distributions and the per-label weight sums give the root-label
distribution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .checker import CheckReport, run_checks
from .core import (
    ChecksFailedError,
    GWSpec,
    PAIR,
    RootMeasure,
    SupportClass,
    class_sides,
    decrement,
    total,
)

Violation = Tuple[SupportClass, SupportClass, Fraction, Fraction]


def construct_measure(spec: GWSpec, report: Optional[CheckReport] = None) -> RootMeasure:
    """Solve for the reversible measure whose descendants follow `spec`.

    Runs the full admissibility checks first (unless a passing report is
    supplied) and raises ChecksFailedError carrying the report otherwise.
    A supplied report must be `run_checks(spec)`: the class weights are the
    balance-graph potentials it holds.
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
    potentials = report.potentials
    nodes = sorted(potentials)

    label_sum = {i: Fraction(0) for i in range(1, spec.n + 1)}
    for node in nodes:
        label_sum[node.label] += potentials[node]
    grand = sum(label_sum.values())

    neighbor_dist = {i: {} for i in range(1, spec.n + 1)}
    for node in nodes:
        neighbor_dist[node.label][node.vector] = potentials[node] / label_sum[node.label]
    root_dist = {i: label_sum[i] / grand for i in range(1, spec.n + 1)}
    measure = RootMeasure(
        n=spec.n,
        root_dist=root_dist,
        neighbor_dist=neighbor_dist,
        descendants=spec,
    )
    _assert_support_consistency(measure)
    return measure


def _assert_support_consistency(measure: RootMeasure) -> None:
    # Stationarity forces: every positive coordinate j of a supported class
    # (i, c) corresponds to a stored offspring probability for (j, i).
    spec = measure.descendants
    for cls in measure.support_classes():
        i, c = cls
        for j, cj in enumerate(c, start=1):
            if cj > 0 and spec.pair_prob(j, i, decrement(c, j)) == 0:
                raise AssertionError(
                    f"constructed class {cls} lacks the offspring term for parent {j}"
                )


def _balance_key(measure: RootMeasure, u: SupportClass, j: int) -> Optional[Fraction]:
    """k(u, j) = w(u) * c_j / (|c| * p(j,i)(c - e_j)) for u = (i, c), or None
    when the offspring term is zero."""
    i, c = u
    p = measure.descendants.offspring_prob(j, i, decrement(c, j))
    if p == 0:
        return None
    return measure.class_prob(u) * c[j - 1] / (total(c) * p)


def verify_reversibility(measure: RootMeasure) -> List[Violation]:
    """Exact detailed-balance check over every admissible pair of support
    classes.

    For classes (i, c) and (j, d) with c_j > 0 and d_i > 0 the flow identity

        w(i, c) * p(i,j)(d - i) * c_j / |c|  ==  w(j, d) * p(j,i)(c - j) * d_i / |d|

    must hold exactly, where w is the unconditional class probability and
    p(x,y) the offspring law of a label-y vertex with label-x parent (in
    plain mode the parent label is ignored).  Returns all failing pairs with
    both sides, ordered by (first, second) with first < second; an empty
    list means the measure is exactly reversible.

    Dividing both sides by the two offspring terms, the pair balances iff
    k((i, c), j) == k((j, d), i) with k(u, j) = w(u) * c_j / (|c| * p(j,i)(c - e_j)),
    a zero term being a value of its own (both zero: 0 == 0).  The admissible
    pairs of labels i and j are all pairs across the two sides S(i, j) and
    S(j, i) of `class_sides` (label-i classes with c_j > 0, label-j classes
    with d_i > 0), so the measure is reversible iff k takes one value on each
    label pair: O(N * n) work for N classes and n labels.  Violations can
    only lie in a block whose keys disagree, and only those blocks are
    listed pair by pair.
    """
    spec = measure.descendants
    side = class_sides(measure.support_classes())
    keys = {
        (i, j): [_balance_key(measure, u, j) for u in members]
        for (i, j), members in side.items()
    }
    violations: List[Violation] = []
    for (i, j), members in side.items():
        if i > j or (j, i) not in side:
            continue
        values = keys[(i, j)] if i == j else keys[(i, j)] + keys[(j, i)]
        if all(k == values[0] for k in values):
            continue
        for u in members:
            for v in side[(j, i)]:
                if i == j and not u < v:
                    continue
                c, d = u.vector, v.vector
                lhs = (
                    measure.class_prob(u)
                    * spec.offspring_prob(i, j, decrement(d, i))
                    * Fraction(c[j - 1], total(c))
                )
                rhs = (
                    measure.class_prob(v)
                    * spec.offspring_prob(j, i, decrement(c, j))
                    * Fraction(d[i - 1], total(d))
                )
                if lhs != rhs:
                    violations.append((u, v, lhs, rhs))
    return sorted(violations)
