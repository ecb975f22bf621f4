"""Shared fixtures: the worked two-label instance, its support template,
and the three-label plain instance used across the suite."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from gwrev.core import GWSpec, PAIR, SupportClass
from gwrev.norelabel import PlainSpec
from gwrev.parametrizer import SupportTemplate

# Shorthand for the three recurring vectors of the two-label instance.
A = (1, 1)
B = (2, 1)
D = (0, 3)


def two_label_spec() -> GWSpec:
    """The running two-label pair-mode instance.

    Offspring laws, keyed by (parent label, own label); the admissible root
    classes come out as {(1, A), (1, B), (2, D), (2, A)} with equal weights,
    and root-label weights 3/8 and 5/8.
    """
    return GWSpec(
        n=2,
        mode=PAIR,
        offspring={
            (1, 1): {(0, 1): F(3, 7), (1, 1): F(4, 7)},
            (2, 1): {(1, 0): F(3, 5), (2, 0): F(2, 5)},
            (2, 2): {(0, 2): F(2, 3), (1, 0): F(1, 3)},
            (1, 2): {(0, 1): F(1)},
        },
    )


def two_label_template() -> SupportTemplate:
    return SupportTemplate(
        n=2,
        classes=(
            SupportClass(1, A),
            SupportClass(1, B),
            SupportClass(2, D),
            SupportClass(2, A),
        ),
    )


def two_label_weights(s: F, t: F):
    return {
        SupportClass(1, A): s,
        SupportClass(1, B): 1 - s,
        SupportClass(2, A): t,
        SupportClass(2, D): 1 - t,
    }


def three_label_plain(p31=F(1, 2), p32=F(1, 2)) -> PlainSpec:
    """The three-label plain instance: label 1 has 1 or 2 children with equal
    probability, labels 2 and 3 always have 4; rows p1 = (1/3, 1/3, 1/3),
    p2 = (1/2, 0, 1/2), and p3 = (p31, p32, 0)."""
    return PlainSpec(
        n=3,
        degree_dist={1: {1: F(1, 2), 2: F(1, 2)}, 2: {4: F(1)}, 3: {4: F(1)}},
        params={
            1: (F(1, 3), F(1, 3), F(1, 3)),
            2: (F(1, 2), F(0), F(1, 2)),
            3: (p31, p32, F(0)),
        },
    )


def break_condition_i(spec: GWSpec) -> GWSpec:
    """Move all of the (2, 1) law's mass to (2, 0)."""
    offspring = {k: dict(v) for k, v in spec.offspring.items()}
    offspring[(2, 1)] = {(2, 0): F(1)}
    return GWSpec(n=spec.n, mode=PAIR, offspring=offspring)


def break_condition_ii(spec: GWSpec) -> GWSpec:
    """Flatten the (1, 1) law to equal weights on the same support."""
    offspring = {k: dict(v) for k, v in spec.offspring.items()}
    offspring[(1, 1)] = {(0, 1): F(1, 2), (1, 1): F(1, 2)}
    return GWSpec(n=spec.n, mode=PAIR, offspring=offspring)


def dense_grid(k: int, seed: int = 0, bits: int = 0):
    """The dense two-label template, every class (i, (a, b)) with
    1 <= a, b <= k, and seeded random per-label weights, from 1..99 or, with
    `bits`, from 1..2^bits - 1.  Its balance graph is complete bipartite
    between the labels and complete within them."""
    import random

    rng = random.Random(seed)
    classes = tuple(
        SupportClass(i, (a, b))
        for i in (1, 2) for a in range(1, k + 1) for b in range(1, k + 1)
    )
    weights = {}
    for i in (1, 2):
        group = [cls for cls in classes if cls.label == i]
        raw = [rng.randrange(1, 1 << bits) if bits else rng.randint(1, 99) for _ in group]
        weights.update({cls: F(r, sum(raw)) for cls, r in zip(group, raw)})
    return SupportTemplate(n=2, classes=classes), weights


@pytest.fixture
def pair_spec() -> GWSpec:
    return two_label_spec()


@pytest.fixture
def template() -> SupportTemplate:
    return two_label_template()


@pytest.fixture
def plain_spec() -> PlainSpec:
    return three_label_plain()
