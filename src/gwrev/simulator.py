"""Seeded Monte Carlo validation of constructed measures.

Sampling is reproducible and worker-independent: trial t draws from the
stream of Philox4x64-10 keyed by (seed << 64) | t (see GENERATOR), so any
partition of the trial range produces bit-identical results.  Probabilities
are exact rationals, and all reference values reported next to the
estimates are exact.

`estimate_flow` and `mass_transport_check` compute the draws that
`numpy.random.Generator(Philox(key))` would make for each trial, BLOCK
trials at a time, without building a generator:

* Words.  Philox is counter-based: word k of trial t is word k % 4 of the
  block at counter k // 4 + 1 under the key words (t, seed).
  `philox_block` evaluates a block for an array of trials in numpy uint64
  arithmetic, the 64 x 64 -> 128-bit products built from 32-bit halves.
* Draws.  A law is drawn by inverse CDF over its sorted outcomes against
  the double u = (word >> 11) * 2**-53: the first outcome whose cumulative
  probability acc exceeds u.  For the integer k = word >> 11, u < acc
  exactly when k < ceil(acc * 2**53), so a `searchsorted(..., side="right")`
  over those integer thresholds picks the outcome, and no float or
  Fraction is compared.
* Walk step.  `Generator.integers(deg)` is Lemire's method on 32-bit
  draws: the low half of the next word, word 2 + deg of a depth-2 trial,
  then its high half, then the halves of the words after it.  Only a step
  that Lemire's method rejects, about one in 2**32 / deg, reads past the
  first half.
* Sums.  Floating-point sums run in trial order (`np.add.accumulate` is
  sequential; the pairwise `ndarray.sum` rounds differently), so every
  estimate is the float a trial-by-trial loop produces, bit for bit.

`tests/oracles.py` keeps that loop, one generator per trial with tree
sampling and walks, as the reference of both estimators.  The exact
reference of a flow is `core.exact_flow`, the flow that
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
    decrement,
    exact_flow,
    total,
)

GENERATOR = "philox4x64-10 key=(seed<<64)|trial"
"""Each trial's stream: `numpy.random.Generator(numpy.random.Philox(key))`
with this key, drawn first by `random()` and then by `integers(deg)`."""

_TWO64 = 1 << 64


class ClassNotInSupportError(GwrevError):
    """A requested root class carries no mass under the measure."""


# ---------------------------------------------------------------------------
# The draws in bulk
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
    4 * (counter - 1) to 4 * counter - 1 of the trial's GENERATOR stream,
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
    """The law's outcomes in sorted order, the order of the inverse-CDF
    draw, and the integer thresholds ceil(acc * 2**53) of their cumulative
    sums acc."""
    items = sorted(dist.items())
    acc = Fraction(0)
    thresholds = []
    for _, p in items:
        acc += p
        thresholds.append(math.ceil(acc * _TWO53))
    return [outcome for outcome, _ in items], np.array(thresholds, dtype=np.int64)


def _pick(thresholds: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Index of the outcome drawn by each word, clamped to the last outcome
    as the per-trial inverse-CDF draw of `tests/oracles.py` is."""
    k = (words >> _11).astype(np.int64)
    return np.minimum(np.searchsorted(thresholds, k, side="right"), len(thresholds) - 1)


def lemire_step(seed: int, trials: np.ndarray, index: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """`Generator.integers(deg)` for 1 <= deg < 2**32, drawn by each trial
    (with its own `index` and `deg`) when its stream is at word `index`:
    Lemire's method on the low half of that word and, while it rejects,
    on the high half, then on the halves of the words after it.  Earlier
    `random()` calls take whole words, so no buffered half precedes them."""
    deg = np.asarray(deg, dtype=np.uint64)
    index = np.asarray(index, dtype=np.int64)
    threshold = (np.uint64(1 << 32) - deg) % deg
    m = (trial_words(seed, trials, index) & _MASK32) * deg
    again = np.flatnonzero((m & _MASK32) < threshold)
    draw = 1
    while len(again):
        words = trial_words(seed, trials[again], index[again] + draw // 2)
        m[again] = (words >> _32 if draw % 2 else words & _MASK32) * deg[again]
        again = again[(m[again] & _MASK32) < threshold[again]]
        draw += 1
    return (m >> _32).astype(np.int64)


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


def _require_trials(trials: int) -> None:
    if not 1 <= trials <= _TWO64:
        raise ValueError(f"trials must be in [1, 2**64], so that trial indices "
                         f"fit in 64 bits; got {trials}")


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
    _require_trials(trials)
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
        k = lemire_step(seed, trial, 2 + degree[cls], degree[cls])
        fwd += crossings(source, target, trial, cls, k)
        bwd += crossings(target, source, trial, cls, k)
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
    _require_trials(trials)
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
