"""Walk through the two-label running instance end to end.

A family of conditional offspring laws is keyed by (parent label, own
label).  We check the admissibility conditions, build the unique reversible
root measure, and confirm exact detailed balance.
"""

from fractions import Fraction as F

from gwrev import (
    GWSpec,
    candidate_support,
    construct_measure,
    run_checks,
    verify_reversibility,
)

# Offspring laws for two labels.  A vertex's law depends on its own label
# and its parent's label; vectors count children per label.
spec = GWSpec(
    n=2,
    mode="pair",
    offspring={
        (1, 1): {(0, 1): F(3, 7), (1, 1): F(4, 7)},
        (2, 1): {(1, 0): F(3, 5), (2, 0): F(2, 5)},
        (2, 2): {(0, 2): F(2, 3), (1, 0): F(1, 3)},
        (1, 2): {(0, 1): F(1)},
    },
)

print("candidate root classes")
for i in (1, 2):
    print(f"  label {i}: {sorted(candidate_support(spec, i))}")

report = run_checks(spec)
print("\nadmissibility checks")
print(f"  strongly connected: {report.strongly_connected}")
print(f"  condition i (support closure): {report.condition_i}")
print(f"  condition ii (cycle consistency): {report.condition_ii}")
print(f"  balance graph connected: {report.connected_support}")

measure = construct_measure(spec)
print("\nthe reversible measure")
for i in (1, 2):
    print(f"  root label {i} with probability {measure.root_dist[i]}")
    for c, p in sorted(measure.neighbor_dist[i].items()):
        print(f"    neighbors {c} with probability {p}")

violations = verify_reversibility(measure)
print(f"\nexact detailed balance violations: {len(violations)}")

# One admissible pair of classes carries flow exactly 3/32 in each direction.
lhs = (
    measure.root_dist[1]
    * measure.neighbor_dist[1][(1, 1)]
    * spec.offspring_prob(1, 2, (0, 1))
    * F(1, 2)
)
print(f"flow between classes 1:(1,1) and 2:(1,1): {lhs} each way")
