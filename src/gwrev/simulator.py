"""Seeded Monte Carlo validation of constructed measures.

Sampling is reproducible and worker-independent: trial t draws from a fresh
Philox4x64-10 generator keyed by (seed << 64) | t, so any partition of the
trial range produces bit-identical results.  Probabilities are exact
rationals; the sampler compares cumulative sums against one uniform double
per draw, and all reference values reported next to the estimates are exact.

`estimate_flow` and `mass_transport_check` compute the very draws of those
per-trial generators in bulk, BLOCK trials at a time, without building one:

* Words.  Philox is counter-based: word k of trial t is word k % 4 of the
  block at counter k // 4 + 1 under the key words (t, seed).
  `philox_block` evaluates a block for an array of trials in numpy uint64
  arithmetic, the 64 x 64 -> 128-bit products built from 32-bit halves.
* Draws.  `_draw` takes u = (word >> 11) * 2**-53 and returns the first
  outcome whose cumulative probability acc exceeds u.  For the integer
  k = word >> 11, u < acc exactly when k < ceil(acc * 2**53), so a
  `searchsorted(..., side="right")` over those integer thresholds picks the
  same outcome, and no float or Fraction is compared.
* Walk step.  `rng.integers(deg)` is Lemire's method on the low 32 bits of
  the next word, word 2 + deg of a depth-2 trial (deg == 1 reads no word).
  A step that Lemire's method rejects draws again from the high half; such
  a trial, about one in 2**32 / deg, is replayed through `trial_generator`.
* Sums.  Floating-point sums run in trial order (`np.add.accumulate` is
  sequential; the pairwise `ndarray.sum` rounds differently), so every
  estimate is the float the per-trial loop produces, bit for bit.

`trial_generator`, `sample_tree` and `walk` remain the per-trial API.
The exact reference of a flow is `core.exact_flow`, the flow that
`verify_reversibility` balances; it is importable from here as well.
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
    exact_flow,
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
# The same draws in bulk
# ---------------------------------------------------------------------------

BLOCK = 4096
"""Trials per vectorized block: the working arrays stay small for any
trial count."""

_MASK32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_11 = np.uint64(11)
_TWO53 = 1 << 53
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(m: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _MASK32, x >> _32
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = ((lo_lo >> _32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)) >> _32
    return x_hi * m_hi + (lo_hi >> _32) + (hi_lo >> _32) + carry, x * np.uint64(m)


def philox_block(seed: int, trials: np.ndarray, counter) -> List[np.ndarray]:
    """The four words of Philox4x64-10 at `counter` (one for all trials or
    one per trial) under the key words (trial, seed) of each trial: words
    4 * (counter - 1) to 4 * counter - 1 of `trial_generator(seed, trial)`,
    whose first block sits at counter 1."""
    if not (0 <= seed < _TWO64):
        raise ValueError("seed must fit in 64 bits")
    trials = np.asarray(trials, dtype=np.uint64)
    zero = np.zeros_like(trials)
    x = [zero + np.asarray(counter, dtype=np.uint64), zero, zero, zero]
    for r in range(10):
        k0 = trials + np.uint64(r * _PHILOX_W[0] % _TWO64)
        k1 = np.uint64((seed + r * _PHILOX_W[1]) % _TWO64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x[2])
        x = [hi1 ^ x[1] ^ k0, lo1, hi0 ^ x[3] ^ k1, lo0]
    return x


def trial_words(seed: int, trials: np.ndarray, index) -> np.ndarray:
    """Word `index` (one for all trials or one per trial) of each trial's
    stream, counted from 0."""
    index = np.asarray(index, dtype=np.int64)
    return np.choose(index % 4, philox_block(seed, trials, index // 4 + 1))


def _cdf(dist: Dict) -> Tuple[list, np.ndarray]:
    """`_draw`'s outcomes in order and its integer thresholds
    ceil(acc * 2**53) of the cumulative sums acc."""
    items = sorted(dist.items())
    acc = Fraction(0)
    thresholds = []
    for _, p in items:
        acc += p
        thresholds.append(math.ceil(acc * _TWO53))
    return [outcome for outcome, _ in items], np.array(thresholds, dtype=np.int64)


def _pick(thresholds: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Index of the outcome `_draw` returns for each word, clamped to the
    last outcome as `_draw` is."""
    k = (words >> _11).astype(np.int64)
    return np.minimum(np.searchsorted(thresholds, k, side="right"), len(thresholds) - 1)


def lemire_step(words: np.ndarray, deg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`Generator.integers(deg)` for 1 <= deg < 2**32 from the low 32 bits
    of each word: returns (k, again), where `again` marks the words
    Lemire's method rejects.  A rejected word draws again from its high
    half, so only the per-trial generator can finish those steps."""
    deg = np.asarray(deg, dtype=np.uint64)
    m = (words & _MASK32) * deg
    again = (m & _MASK32) < (np.uint64(1 << 32) - deg) % deg
    return (m >> _32).astype(np.int64), again


class _RootDraws:
    """The root label (word 0) and neighbor vector (word 1) of each trial,
    as one index into `classes`, the support classes in draw order."""

    def __init__(self, measure: RootMeasure):
        labels, self.label_cdf = _cdf(measure.root_dist)
        self.classes: List[SupportClass] = []
        self.first: List[int] = []
        self.vector_cdf: List[np.ndarray] = []
        for label in labels:
            vectors, cdf = _cdf(measure.neighbor_dist[label])
            self.first.append(len(self.classes))
            self.classes += [SupportClass(label, vec) for vec in vectors]
            self.vector_cdf.append(cdf)

    def __call__(self, seed: int, trials: np.ndarray) -> np.ndarray:
        words = philox_block(seed, trials, 1)
        at = _pick(self.label_cdf, words[0])
        out = np.empty(len(trials), dtype=np.int64)
        for a in np.unique(at):
            mine = at == a
            out[mine] = self.first[a] + _pick(self.vector_cdf[a], words[1][mine])
        return out


def _blocks(trials: int):
    for lo in range(0, trials, BLOCK):
        yield np.arange(lo, min(lo + BLOCK, trials), dtype=np.uint64)


def _add_in_order(acc: float, values: np.ndarray) -> float:
    """acc + values[0] + values[1] + ..., rounded after every addition as a
    Python loop adds."""
    return float(np.add.accumulate(np.append(acc, values))[-1])


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


def _require_class(measure: RootMeasure, cls: SupportClass) -> None:
    if measure.neighbor_dist.get(cls.label, {}).get(cls.vector) is None:
        raise ClassNotInSupportError(f"class {cls} carries no mass")


def _flow_trial(measure, source, target, seed: int, trial: int) -> Tuple[int, int]:
    """One trial of `estimate_flow` through its own generator: does its step
    cross source -> target, and target -> source?"""
    rng = trial_generator(seed, trial)
    tree = _sample(measure, 2, rng)
    start = root_class(tree)
    if start != source and start != target:
        return 0, 0
    end = class_at(tree, (int(rng.integers(total(start.vector))),))
    return int(start == source and end == target), int(start == target and end == source)


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
    roots = _RootDraws(measure)
    law = measure.descendants.offspring_law
    degree = np.array([total(u.vector) for u in roots.classes], dtype=np.int64)
    ends = (roots.classes.index(source), roots.classes.index(target))

    def crossings(frm: SupportClass, to: SupportClass, trial, cls, k) -> int:
        # child k of a frm root is the end of the step; it is a `to` class
        # when it carries to's label and draws to's vector less the parent
        child_label = np.repeat(np.arange(1, measure.n + 1), frm.vector)
        go = cls == roots.classes.index(frm)
        go[go] = child_label[k[go]] == to.label
        outcomes, cdf = _cdf(law(frm.label, to.label))
        want = decrement(to.vector, frm.label)
        if not go.any() or want not in outcomes:
            return 0
        picked = _pick(cdf, trial_words(seed, trial[go], 2 + k[go]))
        return int(np.count_nonzero(picked == outcomes.index(want)))

    fwd = 0
    bwd = 0
    for trial in _blocks(trials):
        cls = roots(seed, trial)
        at = np.isin(cls, ends)
        trial, cls = trial[at], cls[at]
        k, again = lemire_step(trial_words(seed, trial, 2 + degree[cls]), degree[cls])
        fwd += crossings(source, target, trial[~again], cls[~again], k[~again])
        bwd += crossings(target, source, trial[~again], cls[~again], k[~again])
        for t in trial[again].tolist():
            f, b = _flow_trial(measure, source, target, seed, t)
            fwd += f
            bwd += b
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
    roots = _RootDraws(measure)
    # each class's term on either side, in the per-trial loop's arithmetic
    sent = np.array([u.label == i for u in roots.classes])
    received = np.array([u.label == j for u in roots.classes])
    sent_v = np.array([u.vector[j - 1] / total(u.vector) / z_f if u.label == i else 0.0
                       for u in roots.classes])
    received_v = np.array([u.vector[i - 1] / total(u.vector) / z_f if u.label == j else 0.0
                           for u in roots.classes])
    sum_f = sq_f = sum_b = sq_b = 0.0
    for trial in _blocks(trials):
        cls = roots(seed, trial)
        v = sent_v[cls[sent[cls]]]
        sum_f, sq_f = _add_in_order(sum_f, v), _add_in_order(sq_f, v * v)
        v = received_v[cls[received[cls]]]
        sum_b, sq_b = _add_in_order(sum_b, v), _add_in_order(sq_b, v * v)
    mean_f, se_f = _estimate(sum_f, sq_f, trials)
    mean_b, se_b = _estimate(sum_b, sq_b, trials)
    return (
        FlowEstimate(mean_f, se_f, exact_transport(measure, i, j), trials, seed),
        FlowEstimate(mean_b, se_b, exact_transport(measure, j, i), trials, seed),
    )
