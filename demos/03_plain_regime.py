"""The plain regime: offspring laws keyed by the vertex label alone.

Here a reversible measure exists exactly when every conditional law, given
its degree, is multinomial with degree-independent label probabilities that
satisfy a cycle identity.  The measure shifts each degree up by one and
solves pairwise ratio equations for the root-label weights.
"""

from fractions import Fraction as F

from gwrev import (
    PlainSpec,
    construct_plain_measure,
    degrees,
    expand_plain_spec,
    extract_plain_spec,
    run_plain_checks,
    verify_reversibility,
)

# Three labels; label 1 has 1 or 2 children with equal probability, labels
# 2 and 3 always have 4.  Rows give the per-child label probabilities.
# The third row is forced by the cycle identity around labels 1-2-3:
#   p(1,2) p(2,3) p(3,1) = p(2,1) p(3,2) p(1,3)
p12, p13, p21, p23 = F(1, 3), F(1, 3), F(1, 2), F(1, 2)
p31 = p21 * p13 / (p12 * p23 + p21 * p13)
print(f"forced third row: p(3,1) = {p31}, p(3,2) = {1 - p31}")

spec = PlainSpec(
    n=3,
    degree_dist={1: {1: F(1, 2), 2: F(1, 2)}, 2: {4: F(1)}, 3: {4: F(1)}},
    params={
        1: (F(1, 3), p12, p13),
        2: (p21, F(0), p23),
        3: (p31, 1 - p31, F(0)),
    },
)

report = run_plain_checks(spec)
print(f"cycle identity holds: {report.cycles}")

measure = construct_plain_measure(spec)
print(f"root-label weights: {measure.root_dist}")

print("\ndegree shift (root degrees are child degrees plus one)")
for i in (1, 2, 3):
    child_degrees = sorted(degrees(measure.descendants.offspring[i]))
    root_degrees = sorted(degrees(measure.neighbor_dist[i]))
    print(f"  label {i}: children {child_degrees} -> root {root_degrees}")

print(f"\nbalance violations: {len(verify_reversibility(measure))}")

# Round trip: expanding the multinomial rows and re-extracting them is exact.
assert extract_plain_spec(expand_plain_spec(spec)) == spec
print("expansion / extraction round trip is exact")

# A non-multinomial law is rejected with a witness.
from gwrev import GWSpec, NotMultinomialError

bad = GWSpec(n=2, mode="plain", offspring={
    1: {(2, 0): F(1, 2), (0, 2): F(1, 2)},
    2: {(1, 0): F(1)},
})
try:
    extract_plain_spec(bad)
except NotMultinomialError as err:
    print(f"rejected degenerate law with witness {err.witness}")
