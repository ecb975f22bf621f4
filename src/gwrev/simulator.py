"""Seeded Monte Carlo validation of constructed measures.

Sampling is reproducible and worker-independent: trial t draws from a fresh
Philox4x64-10 generator keyed by (seed << 64) | t, so any partition of the
trial range produces bit-identical results.  Probabilities are exact
rationals; the sampler compares cumulative sums against one uniform double
per draw, and all reference values reported next to the estimates are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .core import (
    GwrevError,
    RootMeasure,
    SupportClass,
    Vector,
    decrement,
    total,
)

GENERATOR = "philox4x64-10 key=(seed<<64)|trial"

_TWO64 = 1 << 64


class TruncationExceededError(GwrevError):
    """A walk longer than the sampled depth could leave the truncation."""


class ClassNotInSupportError(GwrevError):
    """A requested root class carries no mass under the measure."""


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Fresh generator for one trial; see GENERATOR for the derivation."""
    if not (0 <= seed < _TWO64):
        raise ValueError("seed must fit in 64 bits")
    if not (0 <= trial < _TWO64):
        raise ValueError("trial index must fit in 64 bits")
    return np.random.Generator(np.random.Philox(key=(seed << 64) | trial))


def _draw(rng: np.random.Generator, dist: Dict):
    """Inverse-CDF draw over sorted outcomes (labels or vectors);
    Fraction-vs-float comparisons are exact in Python."""
    u = rng.random()
    acc = Fraction(0)
    items = sorted(dist.items())
    for outcome, p in items:
        acc += p
        if u < acc:
            return outcome
    return items[-1][0]


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeNode:
    label: int
    children: Tuple["TreeNode", ...]


@dataclass(frozen=True)
class LabeledTree:
    """A rooted labeled tree truncated at `depth` levels below the root."""

    root: TreeNode
    depth: int
    n: int

    def node_at(self, path: Tuple[int, ...]) -> TreeNode:
        node = self.root
        for k in path:
            node = node.children[k]
        return node


def _label_counts(children: Tuple[TreeNode, ...], n: int) -> Vector:
    counts = [0] * n
    for child in children:
        counts[child.label - 1] += 1
    return tuple(counts)


def root_class(tree: LabeledTree) -> SupportClass:
    return SupportClass(tree.root.label, _label_counts(tree.root.children, tree.n))


def class_at(tree: LabeledTree, path: Tuple[int, ...]) -> SupportClass:
    """Root class of the tree re-rooted at `path` (its label together with
    all its neighbor labels, parent included)."""
    if len(path) >= tree.depth and path:
        raise TruncationExceededError(
            f"children of a depth-{len(path)} vertex were never sampled"
        )
    if not path:
        return root_class(tree)
    node = tree.node_at(path)
    parent = tree.node_at(path[:-1])
    counts = list(_label_counts(node.children, tree.n))
    counts[parent.label - 1] += 1
    return SupportClass(node.label, tuple(counts))


def _sample_subtree(measure, parent_label, label, remaining, rng) -> TreeNode:
    if remaining == 0:
        return TreeNode(label=label, children=())
    law = measure.descendants.offspring_law(parent_label, label)
    vec = _draw(rng, law)
    children = tuple(
        _sample_subtree(measure, label, j, remaining - 1, rng)
        for j, cj in enumerate(vec, start=1)
        for _ in range(cj)
    )
    return TreeNode(label=label, children=children)


def _sample(measure: RootMeasure, depth: int, rng) -> LabeledTree:
    label = _draw(rng, measure.root_dist)
    vec = _draw(rng, measure.neighbor_dist[label])
    children = tuple(
        _sample_subtree(measure, label, j, depth - 1, rng)
        for j, cj in enumerate(vec, start=1)
        for _ in range(cj)
    )
    return LabeledTree(root=TreeNode(label=label, children=children), depth=depth, n=measure.n)


def sample_tree(measure: RootMeasure, depth: int, seed: int, trial: int = 0) -> LabeledTree:
    """Draw one rooted tree: root label, neighbor vector, then independent
    descendant subtrees down to `depth` levels."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _sample(measure, depth, trial_generator(seed, trial))


def walk(tree: LabeledTree, steps: int, seed: int, trial: int = 0) -> List[Tuple[int, ...]]:
    """Simple random walk started at the root; returns the visited vertices
    as child-index paths, root first."""
    if steps > tree.depth:
        raise TruncationExceededError(
            f"{steps} steps may exit a depth-{tree.depth} truncation"
        )
    rng = trial_generator(seed, trial)
    path: Tuple[int, ...] = ()
    out = [path]
    for _ in range(steps):
        node = tree.node_at(path)
        options = [path[:-1]] if path else []
        options += [path + (k,) for k in range(len(node.children))]
        path = options[int(rng.integers(len(options)))]
        out.append(path)
    return out


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------

@dataclass
class FlowEstimate:
    """A Monte Carlo estimate next to its exact reference value."""

    empirical_mean: float
    std_error: float
    exact: Fraction
    trials: int
    seed: int
    generator: str = GENERATOR

    def within(self, k: float = 4.0) -> bool:
        """Is the estimate within k standard errors of the exact value?"""
        return abs(self.empirical_mean - float(self.exact)) <= k * self.std_error


def _estimate(values_sum: float, squares_sum: float, trials: int) -> Tuple[float, float]:
    mean = values_sum / trials
    if trials > 1:
        var = max(squares_sum - trials * mean * mean, 0.0) / (trials - 1)
    else:
        var = 0.0
    return mean, math.sqrt(var / trials)


def exact_flow(measure: RootMeasure, source: SupportClass, target: SupportClass) -> Fraction:
    """Exact one-step flow from class `source` = (i, c) into `target` = (j, d):
    weight(i, c) * p(i,j)(d - i) * c_j / |c|."""
    i, c = source
    j, d = target
    return (
        measure.class_prob(source)
        * measure.descendants.offspring_prob(i, j, decrement(d, i))
        * Fraction(c[j - 1], total(c))
    )


def _require_class(measure: RootMeasure, cls: SupportClass) -> None:
    if measure.neighbor_dist.get(cls.label, {}).get(cls.vector) is None:
        raise ClassNotInSupportError(f"class {cls} carries no mass")


def estimate_flow(
    measure: RootMeasure,
    source: SupportClass,
    target: SupportClass,
    trials: int,
    seed: int,
) -> Tuple[FlowEstimate, FlowEstimate]:
    """Estimate the one-step flows between two root classes, both directions
    from the same trials, next to their exact references.

    Each trial samples a depth-2 tree, takes one uniform step from the root,
    and records whether the walk crossed source -> target (and target ->
    source).
    """
    _require_class(measure, source)
    _require_class(measure, target)
    i, c = source
    j, d = target
    if c[j - 1] == 0 or d[i - 1] == 0:
        raise ClassNotInSupportError(
            f"classes {source} and {target} cannot sit next to each other"
        )
    fwd = 0
    bwd = 0
    for t in range(trials):
        rng = trial_generator(seed, t)
        tree = _sample(measure, 2, rng)
        start = root_class(tree)
        if start != source and start != target:
            continue
        k = int(rng.integers(total(start.vector)))
        end = class_at(tree, (k,))
        if start == source and end == target:
            fwd += 1
        if start == target and end == source:
            bwd += 1
    mean_f, se_f = _estimate(float(fwd), float(fwd), trials)
    mean_b, se_b = _estimate(float(bwd), float(bwd), trials)
    return (
        FlowEstimate(mean_f, se_f, exact_flow(measure, source, target), trials, seed),
        FlowEstimate(mean_b, se_b, exact_flow(measure, target, source), trials, seed),
    )


def inverse_degree_mass(measure: RootMeasure) -> Fraction:
    """Normalizer of the degree-unbiased companion measure: the mean of
    1 / deg(root) under the measure."""
    out = Fraction(0)
    for i in sorted(measure.root_dist):
        for c, p in sorted(measure.neighbor_dist[i].items()):
            out += measure.root_dist[i] * p / total(c)
    return out


def exact_transport(measure: RootMeasure, i: int, j: int) -> Fraction:
    """Mean number of j-labeled root neighbors on the i-labeled event, under
    the measure biased by 1/deg and renormalized."""
    num = Fraction(0)
    for c, p in sorted(measure.neighbor_dist[i].items()):
        num += measure.root_dist[i] * p * Fraction(c[j - 1], total(c))
    return num / inverse_degree_mass(measure)


def mass_transport_check(
    measure: RootMeasure, i: int, j: int, trials: int, seed: int
) -> Tuple[FlowEstimate, FlowEstimate]:
    """Estimate both sides of the mass-transport identity for the label pair
    (i, j): sent mass E[#j-neighbors at an i root] and received mass with the
    roles swapped, under the 1/deg-biased measure.

    Implemented by importance-weighting draws from the measure with weight
    1/deg; the exact normalizer makes the references exact.  For a
    reversible measure the two references coincide.
    """
    z = inverse_degree_mass(measure)
    z_f = float(z)
    sum_f = sq_f = sum_b = sq_b = 0.0
    for t in range(trials):
        rng = trial_generator(seed, t)
        label = _draw(rng, measure.root_dist)
        vec = _draw(rng, measure.neighbor_dist[label])
        deg = total(vec)
        if label == i:
            v = vec[j - 1] / deg / z_f
            sum_f += v
            sq_f += v * v
        if label == j:
            v = vec[i - 1] / deg / z_f
            sum_b += v
            sq_b += v * v
    mean_f, se_f = _estimate(sum_f, sq_f, trials)
    mean_b, se_b = _estimate(sum_b, sq_b, trials)
    return (
        FlowEstimate(mean_f, se_f, exact_transport(measure, i, j), trials, seed),
        FlowEstimate(mean_b, se_b, exact_transport(measure, j, i), trials, seed),
    )
