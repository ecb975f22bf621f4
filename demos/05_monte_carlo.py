"""Seeded Monte Carlo validation against exact references.

Every trial draws from its own counter-based Philox stream, so results are
reproducible bit for bit and independent of how trials are partitioned.
The estimators compute those draws in bulk.  Each estimate is printed next
to its exact rational reference: the one-step flow between two root
classes, which reversibility makes equal in both directions, and the two
sides of the mass-transport identity under the measure biased by 1/degree.
"""

from fractions import Fraction as F

from gwrev import (
    GWSpec,
    SupportClass,
    construct_measure,
    estimate_flow,
    exact_flow,
    exact_transport,
    mass_transport_check,
)

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
measure = construct_measure(spec)

SEED = 20260810
TRIALS = 50000

source, target = SupportClass(1, (1, 1)), SupportClass(2, (1, 1))
print(f"exact one-step flow {source} -> {target}: {exact_flow(measure, source, target)}, "
      f"and back: {exact_flow(measure, target, source)}")
print(f"exact transport 1 -> 2: {exact_transport(measure, 1, 2)}, "
      f"2 -> 1: {exact_transport(measure, 2, 1)}")

print(f"\none-step flow between {source} and {target}, {TRIALS} trials, seed {SEED}")
fwd, bwd = estimate_flow(measure, source, target, TRIALS, SEED)
for name, est in (("forward", fwd), ("backward", bwd)):
    print(f"  {name}: {est.empirical_mean:.5f} +- {est.std_error:.5f}"
          f"  (exact {est.exact}), within 4 se: {est.within(4.0)}")
print(f"  generator: {fwd.generator}")

print("\nmass-transport identity for labels (1, 2) under the measure biased "
      "by 1/degree")
sent, received = mass_transport_check(measure, 1, 2, TRIALS, SEED)
print(f"  references agree exactly: {sent.exact == received.exact} "
      f"(both {sent.exact})")
for name, est in (("sent", sent), ("received", received)):
    print(f"  {name}: {est.empirical_mean:.5f} +- {est.std_error:.5f}, "
          f"within 4 se: {est.within(4.0)}")
