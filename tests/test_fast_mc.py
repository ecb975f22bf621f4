"""Differential tests of the counter-based Monte Carlo path.

`estimate_flow` and `mass_transport_check` compute every trial's draws in
bulk; the per-trial generator loops they replaced live on in
`tests/oracles.py` (`reference_estimate_flow`,
`reference_mass_transport_check`) and must give the same `FlowEstimate`s,
float for float, on the random corpora the oracles generate.
"""

import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import gwrev.simulator as simulator
from gwrev.constructor import construct_measure
from gwrev.core import GWSpec, PAIR, RootMeasure, SpecError, SupportClass
from gwrev.covers import FiniteGraph, label_vertices, lift_measure
from gwrev.simulator import (
    _cdf,
    _draw,
    _pick,
    estimate_flow,
    lemire_step,
    mass_transport_check,
    trial_generator,
    trial_words,
)

from . import oracles
from .conftest import A, B, two_label_spec

SEED = 90210
TOP = 2**64 - 1


def adjacent_pairs(measure):
    classes = measure.support_classes()
    return [
        (s, t) for s in classes for t in classes
        if s.vector[t.label - 1] > 0 and t.vector[s.label - 1] > 0
    ]


def assert_same_flow(measure, source, target, trials, seed):
    got = estimate_flow(measure, source, target, trials, seed)
    assert got == oracles.reference_estimate_flow(measure, source, target, trials, seed)
    return got


def assert_same_transport(measure, i, j, trials, seed):
    got = mass_transport_check(measure, i, j, trials, seed)
    assert got == oracles.reference_mass_transport_check(measure, i, j, trials, seed)
    return got


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, TOP])
def test_words_match_the_philox_bit_generator(seed):
    trials = [0, 1, 2, 997, 2**32, 2**63 + 5, TOP]
    for index in range(13):
        got = trial_words(seed, np.array(trials, dtype=np.uint64), index)
        for t, word in zip(trials, got.tolist()):
            raw = np.random.Philox(key=(seed << 64) | t).random_raw(index + 1)
            assert word == int(raw[-1]), (seed, t, index)
    # one word index per trial, as the walk step reads them
    index = np.arange(len(trials)) * 3
    got = trial_words(seed, np.array(trials, dtype=np.uint64), index)
    for t, k, word in zip(trials, index.tolist(), got.tolist()):
        assert word == int(np.random.Philox(key=(seed << 64) | t).random_raw(k + 1)[-1])


def test_seed_outside_64_bits_is_rejected_as_before(pair_spec):
    measure = construct_measure(pair_spec)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            mass_transport_check(measure, 1, 2, 3, seed)
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            estimate_flow(measure, SupportClass(1, A), SupportClass(2, A), 3, seed)


class FixedDouble:
    """Stands in for a generator whose next `random()` is k * 2**-53."""

    def __init__(self, k):
        self.k = k

    def random(self):
        return self.k * (1.0 / 2**53)


@pytest.mark.parametrize("dist", [
    {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)},
    {(0, 1): F(1, 2), (1, 0): F(1, 4), (2, 0): F(1, 4)},
    {(0, 1): F(1, 7), (0, 2): F(0), (1, 1): F(6, 7)},
    {1: F(1, 4), 2: F(1, 4)},  # sums to 1/2: u past the last sum takes the last outcome
])
def test_threshold_draw_matches_the_cumulative_walk_at_every_boundary(dist):
    outcomes, cdf = _cdf(dist)
    acc, ks = F(0), {0, 2**53 - 1}
    for p in [dist[o] for o in outcomes]:
        acc += p
        edge = acc * 2**53
        ks |= {int(edge) - 1, int(edge), int(edge) + 1, -(-edge // 1)}
    ks = sorted(k for k in ks if 0 <= k < 2**53)
    # the low 11 bits of a word never reach the double
    words = np.array([k << 11 | (k * 37) % 2**11 for k in ks], dtype=np.uint64)
    picked = [outcomes[a] for a in _pick(cdf, words).tolist()]
    assert picked == [_draw(FixedDouble(k), dist) for k in ks]


# ---------------------------------------------------------------------------
# Walk step: Lemire's method and its rejection branch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 10))
def test_lemire_transcription_matches_generator_integers(m):
    for t in range(300):
        expected = int(trial_generator(SEED, t).integers(m))
        words = np.random.Philox(key=(SEED << 64) | t).random_raw(4).tolist()
        assert oracles.bounded_integer(iter(words), m) == expected
        k, again = lemire_step(np.array(words[:1], dtype=np.uint64), np.array([m]))
        assert not again[0] and k[0] == expected


def rejects(low32: int, m: int) -> bool:
    """Does the oracle draw a second 32-bit value after `low32`?"""
    draws = iter([low32, 0x12345679])  # the second one is always accepted
    used = []

    def next_uint32():
        used.append(None)
        return next(draws)

    oracles.buffered_bounded_lemire_uint32(next_uint32, m - 1)
    return len(used) > 1


@pytest.mark.parametrize("m", range(1, 10))
def test_crafted_rejections_go_to_the_replay(m):
    rng = random.Random(m)
    # x_k = ceil(k 2**32 / m) are the low halves whose product leaves a
    # remainder below m, the only candidates for rejection
    low = [-(-k * 2**32 // m) % 2**32 for k in range(m)]
    low += [rng.randrange(2**32) for _ in range(50)]
    words = np.array([x | rng.randrange(2**32) << 32 for x in low], dtype=np.uint64)
    k, again = lemire_step(words, np.full(len(words), m))
    expected = [rejects(x, m) for x in low]
    assert again.tolist() == expected
    if m in (3, 5, 6, 7, 9):
        assert any(expected)  # (2**32 - m) % m > 0: x = 0 rejects
    for x, got, flagged in zip(low, k.tolist(), again.tolist()):
        if not flagged:
            assert got == (x * m) >> 32


def test_rejected_steps_are_replayed_per_trial(pair_spec, monkeypatch):
    """Force the rejection flag on every step word with bit 0 set: those
    trials, and only those, go through `trial_generator`, and the estimate
    still matches the per-trial loop."""
    measure = construct_measure(pair_spec)
    source, target = SupportClass(1, A), SupportClass(2, A)
    expected = oracles.reference_estimate_flow(measure, source, target, 3000, SEED)

    forced = []

    def flaky(words, deg):
        k, again = lemire_step(words, deg)
        odd = (words & np.uint64(1)) == 1
        forced.append(int(np.count_nonzero(odd & ~again)))
        return k, again | odd

    replayed = []

    def counting(seed, trial):
        replayed.append(trial)
        return trial_generator(seed, trial)

    monkeypatch.setattr(simulator, "lemire_step", flaky)
    monkeypatch.setattr(simulator, "trial_generator", counting)
    assert estimate_flow(measure, source, target, 3000, SEED) == expected
    assert sum(forced) > 100 and len(replayed) == sum(forced)
    assert replayed == sorted(set(replayed))


# ---------------------------------------------------------------------------
# Estimates against the per-trial loops
# ---------------------------------------------------------------------------

def test_random_measures_match_the_per_trial_loops():
    rng = random.Random(2024)
    flows = transports = 0
    for case in range(40):
        _, _, measure = oracles.random_assembled_instance(rng, rng.randint(1, 4))
        seed = rng.choice([0, 1, TOP, rng.randrange(2**64)])
        trials = rng.choice([1, 2, 57, 300])
        pairs = adjacent_pairs(measure)
        for source, target in rng.sample(pairs, min(3, len(pairs))):
            assert_same_flow(measure, source, target, trials, seed)
            flows += 1
        i, j = rng.randint(1, measure.n), rng.randint(1, measure.n)
        assert_same_transport(measure, i, j, trials, seed)
        transports += 1
    assert flows > 60 and transports == 40


def test_roots_of_degree_one():
    # a path's leaves see one neighbor: the step takes child 0 and reads no word
    path = FiniteGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    measure = lift_measure(path, label_vertices(path))
    leaves = [cls for cls in measure.support_classes() if sum(cls.vector) == 1]
    assert leaves
    hit = False
    for leaf in leaves:
        for source, target in adjacent_pairs(measure):
            if leaf in (source, target):
                fwd, bwd = assert_same_flow(measure, source, target, 2000, SEED)
                hit = hit or fwd.empirical_mean > 0 or bwd.empirical_mean > 0
        assert_same_transport(measure, leaf.label, leaf.label, 500, SEED)
    assert hit


def test_same_label_transport_and_same_class_flow(pair_spec):
    measure = construct_measure(pair_spec)
    for i in (1, 2):
        fwd, bwd = assert_same_transport(measure, i, i, 1000, SEED)
        assert fwd == bwd
    # 1:(1,1) sits next to itself: with source == target both directions
    # count the same crossings
    cls = SupportClass(1, A)
    fwd, bwd = assert_same_flow(measure, cls, cls, 3000, SEED)
    assert fwd == bwd and fwd.empirical_mean > 0
    triangle = FiniteGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    tri = lift_measure(triangle, label_vertices(triangle))
    only = SupportClass(1, (2,))
    fwd, _ = assert_same_flow(tri, only, only, 300, SEED)
    assert fwd.empirical_mean == 1.0


def test_zero_probability_outcomes():
    """Stored zero-probability outcomes repeat a threshold; the draw must
    skip them exactly as the cumulative walk does."""
    measure = construct_measure(two_label_spec())
    # sorts between (1, 1) and (2, 1) in the neighbor law of label 1
    measure.neighbor_dist[1][(1, 2)] = F(0)
    # sorts before every outcome of the law (1, 1) and between those of (2, 2)
    measure.descendants.offspring[(1, 1)][(0, 0)] = F(0)
    measure.descendants.offspring[(2, 2)][(0, 3)] = F(0)
    for source, target in adjacent_pairs(measure):
        assert_same_flow(measure, source, target, 600, SEED)
    assert_same_transport(measure, 1, 2, 600, SEED)
    assert_same_transport(measure, 2, 2, 600, SEED)


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_any_split_into_blocks_gives_the_same_estimates(pair_spec, monkeypatch, block):
    measure = construct_measure(pair_spec)
    source, target = SupportClass(1, B), SupportClass(1, A)
    trials = 4 * block + 3
    flow = oracles.reference_estimate_flow(measure, source, target, 300, SEED)
    transport = oracles.reference_mass_transport_check(measure, 1, 2, 300, SEED)
    monkeypatch.setattr(simulator, "BLOCK", block)
    assert estimate_flow(measure, source, target, 300, SEED) == flow
    assert mass_transport_check(measure, 1, 2, 300, SEED) == transport
    assert_same_flow(measure, source, target, trials, SEED)
    assert_same_transport(measure, 2, 1, trials, SEED)


def test_unsampleable_root_is_refused_when_the_measure_is_built():
    """A root class whose neighbor label has no offspring law could not be
    sampled; `RootMeasure` refuses it, so no estimate ever meets one."""
    # laws (1, 1) and (2, 2) only: no law grows a label-2 neighbor of a
    # label-1 root, or the converse
    descendants = GWSpec(n=2, mode=PAIR, offspring={
        (1, 1): {(0, 0): F(1)}, (2, 2): {(0, 0): F(1)},
    })
    with pytest.raises(SpecError, match="label-1 roots have label-2 neighbors"):
        RootMeasure(n=2, root_dist={1: F(1, 2), 2: F(1, 2)},
                    neighbor_dist={1: {(1, 1): F(1)}, 2: {(1, 1): F(1)}},
                    descendants=descendants)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def test_memory_is_bounded_by_the_block(pair_spec):
    measure = construct_measure(pair_spec)
    source, target = SupportClass(1, A), SupportClass(2, A)
    for run in (lambda: mass_transport_check(measure, 1, 2, 300_000, SEED),
                lambda: estimate_flow(measure, source, target, 300_000, SEED)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
