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
    balance_key,
    class_sides,
    decrement,
    exact_flow,
    same_key,
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


# the value of a side whose members' balance keys differ
_MIXED = object()


def _side_key(measure: RootMeasure, members: List[SupportClass], j: int):
    """The one balance key of side S(i, j) as a Fraction, None when every
    member's offspring term is zero, or _MIXED when the members' keys differ.

    The members' keys, of their neighbor weights, are compared with the
    first one by cross-multiplication; only the side's value, times the root
    weight of label i, is formed as a Fraction."""
    spec = measure.descendants
    dist = measure.neighbor_dist[members[0].label]
    k0 = balance_key(spec, members[0], j, dist[members[0].vector])
    for u in members[1:]:
        if not same_key(balance_key(spec, u, j, dist[u.vector]), k0):
            return _MIXED
    if k0 is None:
        return None
    root = measure.root_dist[members[0].label]
    return Fraction(root.numerator * k0[0], root.denominator * k0[1])


def verify_reversibility(measure: RootMeasure) -> List[Violation]:
    """Exact detailed-balance check over every admissible pair of support
    classes.

    Classes u = (i, c) and v = (j, d) with c_j > 0 and d_i > 0 balance when
    `exact_flow(measure, u, v) == exact_flow(measure, v, u)`, the identity
    written out in `core` (in plain mode the parent label is ignored).
    Returns all failing pairs with both flows, ordered by (first, second)
    with first < second; an empty list means the measure is exactly
    reversible.

    Dividing both flows by the two offspring terms, the pair balances iff
    k(u, j) == k(v, i) for the `core.balance_key` k(u, j) = w(u) / h(u, j),
    h the balance factor, a zero term being a value of its own (both zero:
    0 == 0).  The admissible pairs of labels i and j are all pairs across
    the two sides S(i, j) and S(j, i) of `class_sides` (label-i classes with
    c_j > 0, label-j classes with d_i > 0), so the measure is reversible iff
    k takes one value on each label pair: O(N * n) work for N classes and n
    labels.  Within a side the keys are integer pairs compared by
    cross-multiplication, with no gcd; one Fraction per side compares
    S(i, j) with S(j, i).  Violations can only lie in a block whose keys
    disagree, and only those blocks are listed pair by pair, with their
    flows as Fractions.
    """
    side = class_sides(measure.support_classes())
    violations: List[Violation] = []
    for (i, j), members in side.items():
        if i > j or (j, i) not in side:
            continue
        key = _side_key(measure, members, j)
        if key is not _MIXED and (i == j or key == _side_key(measure, side[(j, i)], i)):
            continue
        for u in members:
            for v in side[(j, i)]:
                if i == j and not u < v:
                    continue
                lhs, rhs = exact_flow(measure, u, v), exact_flow(measure, v, u)
                if lhs != rhs:
                    violations.append((u, v, lhs, rhs))
    return sorted(violations)
