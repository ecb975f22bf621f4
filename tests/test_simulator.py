import math
from fractions import Fraction as F

import pytest

from gwrev.constructor import construct_measure
from gwrev.core import RootMeasure, SupportClass
from gwrev.covers import FiniteGraph, label_vertices, lift_measure
from gwrev.simulator import (
    ClassNotInSupportError,
    estimate_flow,
    exact_flow,
    exact_transport,
    inverse_degree_mass,
    mass_transport_check,
)

from .conftest import A, D
from .oracles import (
    TruncationExceededError,
    _sample,
    class_at,
    root_class,
    sample_tree,
    trial_generator,
    walk,
)

SEED = 90210


@pytest.fixture
def measure(pair_spec):
    return construct_measure(pair_spec)


@pytest.fixture
def triangle_measure():
    g = FiniteGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    return lift_measure(g, label_vertices(g))


# ---------------------------------------------------------------------------
# Sampling, by the per-trial oracle of tests/oracles.py
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic(measure):
    t1 = sample_tree(measure, depth=4, seed=SEED)
    t2 = sample_tree(measure, depth=4, seed=SEED)
    assert t1 == t2
    t3 = sample_tree(measure, depth=4, seed=SEED + 1)
    # a different seed almost surely gives a different tree; if not, the
    # comparison below still holds by determinism of each side
    assert (t3 == t1) == (sample_tree(measure, 4, SEED + 1) == t1)


def test_trials_are_independent_streams(measure):
    trees = [sample_tree(measure, 3, SEED, trial=t) for t in range(6)]
    again = [sample_tree(measure, 3, SEED, trial=t) for t in range(6)]
    assert trees == again


def test_triangle_ball_is_the_degree_two_path(triangle_measure):
    tree = sample_tree(triangle_measure, depth=3, seed=SEED)
    assert root_class(tree) == SupportClass(1, (2,))
    node_paths = [(k,) for k in range(2)]
    for path in node_paths:
        node = tree.node_at(path)
        assert node.label == 1
        assert len(node.children) == 1  # one non-parent neighbor, always


def test_root_class_frequencies(measure):
    trials = 20000
    counts = {}
    for t in range(trials):
        cls = root_class(sample_tree(measure, 1, SEED, trial=t))
        counts[cls] = counts.get(cls, 0) + 1
    for cls, count in counts.items():
        p = float(measure.class_prob(cls))
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(count / trials - p) <= 5 * se


def test_sampled_vectors_live_in_declared_support(measure):
    # check every fully sampled level: child vectors of depth-k vertices are
    # stored support points of the right conditional law, for k < depth
    spec = measure.descendants
    for t in range(200):
        tree = sample_tree(measure, 3, SEED, trial=t)
        cls = root_class(tree)
        assert cls.vector in measure.neighbor_dist[cls.label]
        frontier = [(child, tree.root.label, 1) for child in tree.root.children]
        while frontier:
            node, parent_label, depth = frontier.pop()
            if depth >= tree.depth:
                continue
            counts = [0] * measure.n
            for child in node.children:
                counts[child.label - 1] += 1
            assert tuple(counts) in spec.offspring_law(parent_label, node.label)
            frontier += [(child, node.label, depth + 1) for child in node.children]


# ---------------------------------------------------------------------------
# Walks, by the per-trial oracle
# ---------------------------------------------------------------------------

def test_walk_zero_steps(measure):
    tree = sample_tree(measure, 2, SEED)
    assert walk(tree, 0, SEED) == [()]


def test_walk_respects_truncation(measure):
    tree = sample_tree(measure, 2, SEED)
    with pytest.raises(TruncationExceededError):
        walk(tree, 3, SEED)


def test_walk_on_triangle_returns_to_label_one(triangle_measure):
    tree = sample_tree(triangle_measure, 4, SEED)
    for t in range(20):
        trajectory = walk(tree, 2, SEED, trial=t)
        assert len(trajectory) == 3
        assert tree.node_at(trajectory[-1]).label == 1


def test_one_step_is_uniform_over_neighbors(measure):
    tree = sample_tree(measure, 2, SEED)
    deg = len(tree.root.children)
    trials = 20000
    counts = [0] * deg
    for t in range(trials):
        step = walk(tree, 1, SEED, trial=t)[1]
        counts[step[0]] += 1
    for k in range(deg):
        p = 1 / deg
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[k] / trials - p) <= 5 * se


def test_class_at_requires_sampled_children(measure):
    tree = sample_tree(measure, 1, SEED)
    with pytest.raises(TruncationExceededError):
        class_at(tree, (0,))


# ---------------------------------------------------------------------------
# Flow estimation
# ---------------------------------------------------------------------------

def test_exact_flow_matches_hand_value(measure):
    assert exact_flow(measure, SupportClass(1, A), SupportClass(2, A)) == F(3, 32)
    assert exact_flow(measure, SupportClass(2, A), SupportClass(1, A)) == F(3, 32)


def test_flow_estimates_within_four_standard_errors(measure):
    fwd, bwd = estimate_flow(
        measure, SupportClass(1, A), SupportClass(2, A), trials=20000, seed=SEED
    )
    assert fwd.exact == F(3, 32) and bwd.exact == F(3, 32)
    assert fwd.within(4.0) and bwd.within(4.0)
    assert fwd.trials == 20000 and fwd.seed == SEED
    assert "philox" in fwd.generator


def test_flow_estimates_are_deterministic(measure):
    first = estimate_flow(measure, SupportClass(1, A), SupportClass(2, A), 4000, SEED)
    second = estimate_flow(measure, SupportClass(1, A), SupportClass(2, A), 4000, SEED)
    assert first == second


def test_flow_estimate_matches_trialwise_replay(measure):
    # recompute the forward indicator trial by trial, in reverse order,
    # using only the per-trial generator contract
    source, target = SupportClass(1, A), SupportClass(2, A)
    trials = 2000
    fwd, _ = estimate_flow(measure, source, target, trials, SEED)
    hits = 0
    for t in reversed(range(trials)):
        rng = trial_generator(SEED, t)
        tree = _sample(measure, 2, rng)
        start = root_class(tree)
        if start not in (source, target):
            continue
        k = int(rng.integers(sum(start.vector)))
        if start == source and class_at(tree, (k,)) == target:
            hits += 1
    assert fwd.empirical_mean == hits / trials


def test_point_mass_flow_is_exactly_one(triangle_measure):
    cls = SupportClass(1, (2,))
    fwd, bwd = estimate_flow(triangle_measure, cls, cls, trials=500, seed=SEED)
    assert fwd.exact == 1 and fwd.empirical_mean == 1.0 and fwd.std_error == 0.0
    assert fwd.within(4.0) and bwd.within(4.0)


def test_flow_rejects_classes_off_support(measure):
    with pytest.raises(ClassNotInSupportError):
        estimate_flow(measure, SupportClass(1, (9, 9)), SupportClass(2, A), 10, SEED)
    # class pair with a zero coordinate in the relevant slot
    with pytest.raises(ClassNotInSupportError):
        estimate_flow(measure, SupportClass(1, A), SupportClass(2, D), 10, SEED)


# ---------------------------------------------------------------------------
# Mass transport
# ---------------------------------------------------------------------------

def test_transport_references_agree_for_reversible(measure):
    assert inverse_degree_mass(measure) == F(5, 12)
    fwd, bwd = mass_transport_check(measure, 1, 2, trials=20000, seed=SEED)
    assert fwd.exact == bwd.exact == F(3, 8)
    assert fwd.within(4.0) and bwd.within(4.0)


def test_transport_same_label_trivially_symmetric(measure):
    fwd, bwd = mass_transport_check(measure, 1, 1, trials=100, seed=SEED)
    assert fwd.exact == bwd.exact
    assert fwd.empirical_mean == bwd.empirical_mean


def test_transport_detects_non_reversible(measure, pair_spec):
    swapped = RootMeasure(
        n=2,
        root_dist={1: measure.root_dist[2], 2: measure.root_dist[1]},
        neighbor_dist=measure.neighbor_dist,
        descendants=pair_spec,
    )
    assert exact_transport(swapped, 1, 2) != exact_transport(swapped, 2, 1)
    fwd, bwd = mass_transport_check(swapped, 1, 2, trials=20000, seed=SEED)
    gap = abs(fwd.empirical_mean - bwd.empirical_mean)
    assert gap > 4 * (fwd.std_error + bwd.std_error)
