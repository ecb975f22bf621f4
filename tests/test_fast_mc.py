"""Differential tests of the counter-based Monte Carlo path.

`estimate_flow` and `mass_transport_check` compute every trial's draws in
bulk; the per-trial generator loops they replaced live on in
`tests/oracles.py` (`reference_estimate_flow`,
`reference_mass_transport_check`, which build one `trial_generator` per
trial) and must give the same `FlowEstimate`s, float for float, on the
random corpora the oracles generate.
"""

import random
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

import gwrev.simulator as simulator
from gwrev.constructor import construct_measure
from gwrev.core import GWSpec, PAIR, RootMeasure, SpecError, SupportClass
from gwrev.covers import FiniteGraph, label_vertices, lift_measure
from gwrev.parametrizer import assemble_measure
from gwrev.simulator import (
    _cdf,
    _pick,
    estimate_flow,
    lemire_step,
    mass_transport_check,
    trial_words,
)

from . import oracles
from .conftest import A, B, D, dense_grid, two_label_spec
from .oracles import _draw, trial_generator

SEED = 90210
TOP = 2**64 - 1


def adjacent_pairs(measure):
    classes = oracles.support_classes(measure)
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


COUNTERS = [1, 2, 3, 4, 5, 6, 2**63]


def generator_block(seed, trial, counter):
    """Words 4 * (counter - 1) to 4 * counter - 1 of the trial's stream,
    from numpy's own Philox bit generator started just before them."""
    return np.random.Philox(key=(seed << 64) | trial, counter=counter - 1).random_raw(4).tolist()


@pytest.mark.parametrize("seed", [0, TOP])
@pytest.mark.parametrize("trials", [[], [0], [TOP], [0, TOP, 1, 2**63]])
def test_shared_and_per_trial_counters_give_the_generator_words(seed, trials):
    """A counter shared by all trials keeps its words as Python ints until
    they meet the trial's key word; given per trial, every word is an
    array from the start.  Both give numpy's words."""
    trials = np.array(trials, dtype=np.uint64)
    for counter in COUNTERS:
        shared = simulator.philox_block(seed, trials, counter)
        assert shared.shape == (4, len(trials)) and shared.dtype == np.uint64
        # the forms the estimators pass: int64 step counters, a 0-d word
        # index's counter from `trial_words`
        forms = [np.full(len(trials), counter, dtype=np.uint64), np.array(counter)]
        if counter < 2**63:
            forms += [np.full(len(trials), counter, dtype=np.int64), np.int64(counter)]
        for per_trial in forms:
            assert np.array_equal(simulator.philox_block(seed, trials, per_trial), shared)
        for t, words in zip(trials.tolist(), shared.T.tolist()):
            assert words == generator_block(seed, t, counter), (seed, t, counter)


@pytest.mark.parametrize("seed", [0, TOP])
def test_a_counter_per_trial_gives_each_trial_its_block(seed):
    trials = np.array([0, TOP, 5, 2**63 + 1, 9, 2**32, 77], dtype=np.uint64)
    got = simulator.philox_block(seed, trials, np.array(COUNTERS, dtype=np.uint64))
    for t, counter, words in zip(trials.tolist(), COUNTERS, got.T.tolist()):
        assert words == generator_block(seed, t, counter), (seed, t, counter)


def test_seed_outside_64_bits_is_rejected_as_before(pair_spec):
    measure = construct_measure(pair_spec)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            mass_transport_check(measure, 1, 2, 3, seed)
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            estimate_flow(measure, SupportClass(1, A), SupportClass(2, A), 3, seed)


@pytest.mark.parametrize("trials", [0, 2**64 + 1, 2**70])
def test_trials_outside_the_64_bit_index_range_are_rejected_first(pair_spec, trials):
    measure = construct_measure(pair_spec)
    off_support = SupportClass(1, (9, 9))  # checked only after the trial count
    with pytest.raises(ValueError, match=r"trials must be in \[1, 2\*\*64\]"):
        estimate_flow(measure, off_support, SupportClass(2, A), trials, SEED)
    with pytest.raises(ValueError, match=r"trials must be in \[1, 2\*\*64\]"):
        mass_transport_check(measure, 1, 2, trials, SEED)


def test_the_package_has_one_sampler():
    """The per-trial sampler lives in tests/oracles.py only."""
    import gwrev

    for name in ("trial_generator", "sample_tree", "walk", "class_at", "root_class",
                 "TreeNode", "LabeledTree", "TruncationExceededError", "_draw", "_sample"):
        assert not hasattr(gwrev, name) and not hasattr(simulator, name), name


class FixedDouble:
    """Stands in for a generator whose next `random()` is k * 2**-53."""

    def __init__(self, k):
        self.k = k

    def random(self):
        return self.k * (1.0 / 2**53)


EDGE_LAWS = [
    {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)},
    {(0, 1): F(1, 2), (1, 0): F(1, 4), (2, 0): F(1, 4)},
    {(0, 1): F(1, 7), (0, 2): F(0), (1, 1): F(6, 7)},
    {1: F(1, 4), 2: F(1, 4)},  # sums to 1/2: u past the last sum takes the last outcome
]


@pytest.mark.parametrize("dist", EDGE_LAWS)
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


def corpus_measures():
    """The measures of the random corpora (constructed, assembled, plain and
    lifted) and the 64-bit K = 10 grid."""
    return oracles.corpus_measures() + [assemble_measure(*dense_grid(10, seed=1, bits=64))]


def test_integer_thresholds_equal_the_fraction_walk_on_every_law():
    laws = list(EDGE_LAWS)
    for measure in corpus_measures():
        laws += [measure.root_dist, *measure.neighbor_dist.values(),
                 *measure.descendants.offspring.values()]
    for dist in laws:
        outcomes, cdf = _cdf(dist)
        assert (outcomes, cdf.tolist()) == oracles.fraction_cdf(dist)
    assert len(laws) > 1500


def test_integer_references_equal_the_fraction_loops_on_every_measure():
    for measure in corpus_measures():
        z = oracles.fraction_inverse_degree_mass(measure)
        assert simulator.inverse_degree_mass(measure) == z
        for i in range(1, measure.n + 1):
            for j in range(1, measure.n + 1):
                mass = oracles.fraction_transport_mass(measure, i, j)
                assert simulator._transport_mass(measure, i, j) == mass
                assert simulator.exact_transport(measure, i, j) == mass / z


# ---------------------------------------------------------------------------
# Root draws: two range tests per class against the per-label loop
# ---------------------------------------------------------------------------

def draw_words(k0, k1, rng):
    """Words 0 and 1 of a block whose doubles are k0 * 2**-53 and
    k1 * 2**-53, with random low bits that the doubles drop."""
    return np.array([[k << 11 | rng.randrange(2**11) for k in ks] for ks in (k0, k1)],
                    dtype=np.uint64)


def boundary_words(measure, rng, every_label=True):
    """Each label drawn at its first and last k, against every threshold of
    every label's vector law (or of its own only), one below and one above."""
    _, label_cdf = simulator._cdf(measure.root_dist)
    bounds = [0, *label_cdf.tolist()]
    vector_cdfs = [simulator._cdf(measure.neighbor_dist[label])[1].tolist()
                   for label in sorted(measure.root_dist)]
    pooled = sorted({t for cdf in vector_cdfs for t in cdf})
    k0, k1 = [], []
    for a, cdf in enumerate(vector_cdfs):
        edges = {t + d for t in (pooled if every_label else cdf) for d in (-1, 0, 1)}
        edges = [k for k in sorted(edges | {0, 2**53 - 1}) if 0 <= k < 2**53]
        for k in {bounds[a], max(bounds[a + 1] - 1, bounds[a])}:
            k0 += [min(k, 2**53 - 1)] * len(edges)
            k1 += edges
    return draw_words(k0, k1, rng)


def assert_same_root_draws(measure, words):
    """For every class u, the range tests on words 0 and 1 select exactly
    the trials that the per-label loop roots at u; returns the loop's
    class indices."""
    drawn = oracles.loop_root_draws(measure, words)
    classes = oracles.draw_order_classes(measure)
    k0, k1 = words[:2] >> np.uint64(11)
    for index, (label, vector) in enumerate(simulator._root_ranges(measure, classes)):
        rooted = simulator._in(k0, label) & simulator._in(k1, vector)
        assert np.array_equal(rooted, drawn == index)
    return drawn


def test_root_draws_equal_the_per_label_loop_on_every_measure():
    rng = random.Random(5)
    words = simulator.philox_block(SEED, np.arange(2000, dtype=np.uint64), 1)
    measures = corpus_measures()
    for measure in measures:
        assert_same_root_draws(measure, words)
        assert_same_root_draws(measure, boundary_words(measure, rng))
    assert len(measures) > 250 and max(m.n for m in measures) > 3


def test_root_draws_on_blocks_that_miss_a_label():
    three, centre, _ = rare_label_measure()
    classes = oracles.draw_order_classes(three)
    words = simulator.philox_block(SEED, np.arange(1200, dtype=np.uint64), 1)
    missed = hit = 0
    for lo in range(0, 1200, 64):
        got = assert_same_root_draws(three, words[:, lo:lo + 64])
        labels = {classes[c].label for c in got.tolist()}
        missed += centre.label not in labels
        hit += centre.label in labels and len(labels) == 3
    assert missed > 0 and hit > 0
    for size in (0, 1):
        assert len(assert_same_root_draws(three, words[:, :size])) == size


def many_label_laws(labels, rng):
    """Root and neighbor laws on `labels` labels, one to four vectors each
    and some of probability zero, as the range tests read them; every third
    neighbor law sums to less than one, so a draw past its last threshold
    clamps to its last vector."""
    weights = [rng.randint(1, 9) for _ in range(labels)]
    root = {i: F(w, sum(weights)) for i, w in enumerate(weights, start=1)}
    neighbor = {}
    for i in root:
        vectors = rng.sample(range(1, 60), rng.randint(1, 4))
        mass = [rng.choice([0, 1, 2, 7]) for _ in vectors]
        mass[0] += 1
        short = 1 if i % 3 == 0 else 0
        neighbor[i] = {(v, i % 3): F(m, sum(mass) + short) for v, m in zip(vectors, mass)}
    return SimpleNamespace(root_dist=root, neighbor_dist=neighbor)


def test_root_draws_with_more_labels_than_an_offset_per_label_allows():
    """Past about 1,000 labels, where label offsets of 2**53 + 1 would leave
    int64, each class's ranges still select its trials."""
    rng = random.Random(1100)
    laws = many_label_laws(1100, rng)
    assert 1100 * (2**53 + 1) > 2**63
    words = simulator.philox_block(SEED, np.arange(20_000, dtype=np.uint64), 1)
    classes = oracles.draw_order_classes(laws)
    drawn = assert_same_root_draws(laws, words)
    assert len({classes[c].label for c in drawn.tolist()}) > 1000
    assert_same_root_draws(laws, boundary_words(laws, rng, every_label=False))


def test_vector_laws_are_drawn_only_for_the_trials_that_read_them(monkeypatch):
    """No `_pick` call receives a whole block: a flow draws no root label or
    vector (its root step is range tests), only the child laws of trials
    rooted at an end class, and a transport check draws the vectors of the
    trials rooted at labels i and j alone."""
    three, centre, side = rare_label_measure()
    trials = simulator.BLOCK + 500
    blocks = [np.arange(lo, min(lo + simulator.BLOCK, trials)) for lo in (0, simulator.BLOCK)]
    words = simulator.philox_block(SEED, np.arange(trials, dtype=np.uint64), 1)
    classes = oracles.draw_order_classes(three)
    drawn = [classes[c] for c in oracles.loop_root_draws(three, words).tolist()]
    calls = []
    pick = simulator._pick

    def counting_pick(thresholds, words):
        calls.append((thresholds.tolist(), len(words)))
        return pick(thresholds, words)

    monkeypatch.setattr(simulator, "_pick", counting_pick)
    assert_same_flow(three, centre, side, trials, SEED)
    child_laws = [simulator._cdf(three.descendants.offspring_law(a.label, b.label))[1].tolist()
                  for a, b in ((centre, side), (side, centre))]
    assert [t for t, _ in calls] == child_laws * len(blocks)
    for k, (_, lanes) in enumerate(calls):
        block = blocks[k // 2]
        assert lanes <= sum(drawn[t] in (centre, side) for t in block.tolist()) < len(block)
    calls.clear()
    i, j = centre.label, side.label
    assert_same_transport(three, i, j, trials, SEED)
    expected = []
    for block in blocks:
        for label in (i, j):
            expected.append((simulator._cdf(three.neighbor_dist[label])[1].tolist(),
                             sum(drawn[t].label == label for t in block.tolist())))
    assert calls == expected
    assert all(n < len(blocks[k // 2]) for k, (_, n) in enumerate(calls))


# ---------------------------------------------------------------------------
# Walk step: Lemire's method and its rejections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 10))
def test_lemire_transcription_matches_generator_integers(m):
    trials = np.arange(300, dtype=np.uint64)
    index = np.zeros(300, dtype=np.int64)
    got = lemire_step(SEED, trials, index, np.full(300, m), trial_words(SEED, trials, index))
    for t in range(300):
        expected = int(trial_generator(SEED, t).integers(m))
        words = np.random.Philox(key=(SEED << 64) | t).random_raw(4).tolist()
        assert oracles.bounded_integer(iter(words), m) == expected
        assert got[t] == expected


def oracle_step(words, m: int):
    """`Generator.integers(m)` on the 64-bit `words` by the oracle, and the
    number of 32-bit values it drew."""
    halves = oracles.uint32_halves(words)
    drawn = []

    def next_uint32():
        drawn.append(next(halves))
        return drawn[-1]

    k = 0 if m == 1 else oracles.buffered_bounded_lemire_uint32(next_uint32, m - 1)
    return k, len(drawn)


@pytest.mark.parametrize("m", range(1, 10))
def test_crafted_rejections_go_to_the_replay(m, monkeypatch):
    """Low halves at the rejection boundary, which a real stream almost
    never shows for a small bound: a rejected step draws again from the
    word's high half, then from the halves of the next word."""
    rng = random.Random(m)
    # x_k = ceil(k 2**32 / m) are the 32-bit values whose product leaves a
    # remainder below m, the only candidates for rejection; the first three
    # draws of a stream run over every triple of them
    edge = [-(-k * 2**32 // m) % 2**32 for k in range(m)]
    streams = [[x | y << 32, z | rng.randrange(2**32) << 32, rng.randrange(2**64)]
               for x in edge for y in edge for z in edge]
    streams += [[rng.randrange(2**64) for _ in range(3)] for _ in range(50)]
    monkeypatch.setattr(simulator, "trial_words", lambda seed, trials, index: np.array(
        [streams[t][k] for t, k in zip(trials.tolist(), np.broadcast_to(index, trials.shape))],
        dtype=np.uint64))
    trials = np.arange(len(streams), dtype=np.uint64)
    index = np.zeros(len(streams), dtype=np.int64)
    got = lemire_step(SEED, trials, index, np.full(len(streams), m),
                      simulator.trial_words(SEED, trials, index)).tolist()
    expected = [oracle_step(words, m) for words in streams]
    assert got == [k for k, _ in expected]
    drawn = {d for _, d in expected}
    if m in (3, 5, 6, 7, 9):
        # (2**32 - m) % m > 0: x = 0 rejects, once, twice or three times
        assert {1, 2, 3, 4} <= drawn
    else:
        assert drawn == {0} if m == 1 else drawn == {1}


BIG = [2**31 + 1, 2**31 + 12345, 3 * 2**30 + 7]


def test_step_matches_generator_integers_through_real_rejections():
    """After `w` calls to `random()`, a fresh generator's `integers(deg)`
    reads the halves of word w onwards; bounds just above 2**31 reject
    about half the draws, so real streams reject once, twice and more."""
    keys = 2000
    trials = np.arange(keys, dtype=np.uint64)
    rejections = {}
    for w in (0, 3):
        for deg in [*range(1, 10), *BIG]:
            index = np.full(keys, w)
            got = lemire_step(SEED, trials, index, np.full(keys, deg),
                              trial_words(SEED, trials, index)).tolist()
            for t in range(keys):
                rng = trial_generator(SEED, t)
                for _ in range(w):
                    rng.random()
                assert got[t] == int(rng.integers(deg)), (w, deg, t)
                if deg > 1:
                    words = np.random.Philox(key=(SEED << 64) | t).random_raw(w + 32)
                    k, drawn = oracle_step(words[w:].tolist(), deg)
                    assert k == got[t]
                    rejections[min(drawn - 1, 3)] = rejections.get(min(drawn - 1, 3), 0) + 1
    assert all(rejections.get(r, 0) > 0 for r in (1, 2, 3)), rejections


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
    leaves = [cls for cls in oracles.support_classes(measure) if sum(cls.vector) == 1]
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


def rare_label_measure():
    """A path of five vertices lifted to three labels, the centre's label
    reweighted to root weight 1/200; returned with the centre's class and
    its neighbors' class."""
    path = FiniteGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    labels = label_vertices(path)
    lifted = lift_measure(path, labels)
    rare = labels[2]
    root = {i: F(1, 200) if i == rare else F(199, 400) for i in lifted.root_dist}
    measure = RootMeasure(n=lifted.n, root_dist=root, neighbor_dist=lifted.neighbor_dist,
                          descendants=lifted.descendants)
    centre, = [SupportClass(rare, c) for c in measure.neighbor_dist[rare]]
    side, = [SupportClass(labels[1], c) for c in measure.neighbor_dist[labels[1]]]
    return measure, centre, side


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_any_split_into_blocks_gives_the_same_estimates(pair_spec, monkeypatch, block):
    measure = construct_measure(pair_spec)
    source, target = SupportClass(1, B), SupportClass(1, A)
    trials = 4 * block + 3
    flow = oracles.reference_estimate_flow(measure, source, target, 300, SEED)
    transport = oracles.reference_mass_transport_check(measure, 1, 2, 300, SEED)
    # three labels, the centre's drawn as the root in few blocks of 64
    three, centre, side = rare_label_measure()
    roots = [_draw(trial_generator(SEED, t), three.root_dist) for t in range(1200)]
    blocks_with_centre = {t // 64 for t, label in enumerate(roots) if label == centre.label}
    assert three.n == 3 and 0 < len(blocks_with_centre) < 1200 // 64 / 2
    monkeypatch.setattr(simulator, "BLOCK", block)
    assert estimate_flow(measure, source, target, 300, SEED) == flow
    assert mass_transport_check(measure, 1, 2, 300, SEED) == transport
    assert_same_flow(measure, source, target, trials, SEED)
    assert_same_transport(measure, 2, 1, trials, SEED)
    assert_same_flow(three, centre, side, 1200, SEED)
    assert_same_transport(three, centre.label, side.label, 1200, SEED)
    assert_same_transport(three, side.label, side.label, 1200, SEED)


def counting_blocks(monkeypatch):
    """Wraps `simulator.philox_block`: returns the list of its calls, each
    the (trial, counter) pairs it evaluated."""
    calls = []
    block = simulator.philox_block

    def counted(seed, trials, counter):
        trials = np.asarray(trials, dtype=np.uint64)
        counters = np.broadcast_to(np.asarray(counter, dtype=np.uint64), trials.shape)
        calls.append(list(zip(trials.tolist(), counters.tolist())))
        return block(seed, trials, counter)

    monkeypatch.setattr(simulator, "philox_block", counted)
    return calls


@pytest.mark.parametrize("source, target", [
    (SupportClass(1, A), SupportClass(2, A)),  # degrees 2 and 2
    (SupportClass(1, B), SupportClass(2, A)),  # 3 and 2
    (SupportClass(2, D), SupportClass(2, D)),  # 3, one class
])
def test_each_trial_and_counter_is_evaluated_once(pair_spec, monkeypatch, source, target):
    measure = construct_measure(pair_spec)
    # four blocks, the last of 5 trials, small enough for the per-trial oracle
    monkeypatch.setattr(simulator, "BLOCK", 256)
    trials = 3 * simulator.BLOCK + 5
    expected = oracles.reference_estimate_flow(measure, source, target, trials, SEED)
    calls = counting_blocks(monkeypatch)
    assert estimate_flow(measure, source, target, trials, SEED) == expected
    evaluated = [pair for call in calls for pair in call]
    assert len(evaluated) == len(set(evaluated))
    # block 1 of every trial; the step's block, counter 2, of the end trials
    assert {counter for _, counter in evaluated} == {1, 2}
    assert sum(len(call) for call in calls if call[0][1] == 1) == trials
    if sum(source.vector) == sum(target.vector) == 2:
        # step word 4, child words 2 and 3: two blocks per block of trials
        assert len(calls) == 2 * 4


def test_a_call_of_up_to_one_block_evaluates_each_counter_once(pair_spec, monkeypatch):
    """At the default BLOCK a 10,000-trial call is one block: a flow between
    degree-2 ends evaluates counter 1 and the step's counter 2 once each, an
    mtp estimate counter 1 only, and both estimates equal those of blocks
    of 4,096 trials."""
    measure = construct_measure(pair_spec)
    source, target = SupportClass(1, A), SupportClass(2, A)
    assert sum(source.vector) == sum(target.vector) == 2 and simulator.BLOCK >= 10_000
    calls = counting_blocks(monkeypatch)
    flow = estimate_flow(measure, source, target, 10_000, SEED)
    assert len(calls) == 2
    calls.clear()
    transport = mass_transport_check(measure, 1, 2, 10_000, SEED)
    assert len(calls) == 1
    monkeypatch.setattr(simulator, "BLOCK", 4096)
    assert estimate_flow(measure, source, target, 10_000, SEED) == flow
    assert mass_transport_check(measure, 1, 2, 10_000, SEED) == transport


def test_a_degree_one_step_reads_counter_one(monkeypatch):
    # word 3 of a leaf root is its step's word: no second block for it
    path = FiniteGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    measure = lift_measure(path, label_vertices(path))
    leaf, = [cls for cls in oracles.support_classes(measure) if sum(cls.vector) == 1]
    inner, = [cls for cls in oracles.support_classes(measure) if sum(cls.vector) == 2]
    expected = oracles.reference_estimate_flow(measure, leaf, inner, 600, SEED)
    calls = counting_blocks(monkeypatch)
    assert estimate_flow(measure, leaf, inner, 600, SEED) == expected
    evaluated = [pair for call in calls for pair in call]
    assert len(evaluated) == len(set(evaluated)) and len(calls) == 2


def test_high_degree_ends_match_the_per_trial_loop(monkeypatch):
    """Ends of degree up to 8 step past word 5, so a child's word can sit
    in a block between counter 1 and the step's: the K = 4 dense grid, every
    adjacent pair, and a star lift whose centre has degree 7; and a star
    of degree 300 whose leaves carry two labels, so that the children of
    the second label are 150 <= k < 300."""
    template, weights = dense_grid(4, seed=4)
    grid = assemble_measure(template, weights)
    star = FiniteGraph.from_edges([(0, k) for k in range(1, 8)])
    lifted = lift_measure(star, label_vertices(star))
    wide = lift_measure(FiniteGraph.from_edges([(0, k) for k in range(1, 301)]),
                        {0: 1, **{k: 2 + (k > 150) for k in range(1, 301)}})
    assert max(sum(cls.vector) for cls in oracles.support_classes(grid)) == 8
    assert max(sum(cls.vector) for cls in oracles.support_classes(lifted)) == 7
    assert wide.neighbor_dist[1] == {(0, 150, 150): 1}
    words_calls = []
    words = simulator.trial_words
    monkeypatch.setattr(simulator, "trial_words",
                        lambda *args: words_calls.append(args) or words(*args))
    monkeypatch.setattr(simulator, "BLOCK", 256)
    crossings = 0
    for measure, trials in [(grid, 700), (lifted, 900), (wide, 300)]:
        walks = oracles.reference_walks(measure, trials, SEED)
        # `reference_estimate_flow` is flows_of_walks over these walks
        for source, target in [(s, t) for s, t in adjacent_pairs(measure) if s <= t]:
            got = estimate_flow(measure, source, target, trials, SEED)
            assert got == oracles.flows_of_walks(measure, source, target, walks, SEED)
            crossings += got[0].empirical_mean > 0
    # child words outside both blocks were read, and crossings were counted
    assert words_calls and crossings > 100


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
    # a K = 4 grid whose degree-8 ends carry most of the mass
    template, _ = dense_grid(4)
    ends = (SupportClass(1, (4, 4)), SupportClass(2, (4, 4)))
    grid = assemble_measure(template, {cls: F(97, 100) if cls in ends else F(1, 500)
                                       for cls in template.classes})
    for run in (lambda: mass_transport_check(measure, 1, 2, 300_000, SEED),
                lambda: estimate_flow(measure, source, target, 300_000, SEED),
                lambda: estimate_flow(grid, *ends, 300_000, SEED)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
