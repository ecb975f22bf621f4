"""Seeded Monte Carlo validation of constructed measures.

Sampling is reproducible and worker-independent: trial t draws from the
stream of Philox4x64-10 keyed by (seed << 64) | t (see GENERATOR), so any
partition of the trial range produces bit-identical results.  Probabilities
are exact rationals, and all reference values reported next to the
estimates are exact.

`estimate_flow` and `mass_transport_check` compute the draws that
`numpy.random.Generator(Philox(key))` would make for each trial, BLOCK
(12,288) trials at a time, without building a generator; a call of up to
BLOCK trials is one block, which pays the fixed cost of each numpy pass
once:

* Words.  Philox is counter-based: word k of trial t is word k % 4 of the
  block at counter k // 4 + 1 under the key words (t, seed).
  `philox_block` evaluates a block for an array of trials with the four
  words as four separate values.  A word shared by every trial (a common
  counter, the zero words, the seed's key word and what they produce)
  stays a Python int, so the first round and half the second cost no
  array pass; a per-trial word is a numpy uint64 array, the high word of
  its 64 x 64 -> 128-bit product built from four products of 32-bit
  halves, updated in place.  `estimate_flow` evaluates a trial's block at
  counter 1 once, for the root draw and the first two children's words,
  and the block holding the step's first word once, for that word and
  the other children's; only the child words of a root of degree 6 or
  more that lie between the two, and the words a step that Lemire's
  method rejects reads again, come from `trial_words`.
* Draws.  A law is drawn by inverse CDF over its sorted outcomes against
  the double u = (word >> 11) * 2**-53: the first outcome whose cumulative
  probability acc exceeds u.  For the integer k = word >> 11, u < acc
  exactly when k < ceil(acc * 2**53), so a `searchsorted(..., side="right")`
  over those integer thresholds picks the outcome, and no float or
  Fraction is compared.  `_cdf` forms each threshold in integers, as
  ceil(A * 2**53 / L) for A a running sum of the law's probabilities over
  their common denominator L, with no Fraction addition.
  So outcome p is drawn exactly when k lies in [T[p - 1], T[p])
  (`_range`), and a trial is rooted at a class when k of word 0 lies in
  its label's range and k of word 1 in its vector's: `estimate_flow` tests
  only its two end classes, and `mass_transport_check` draws the vectors
  of only the trials of labels i and j.
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

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from .core import (
    GwrevError,
    RootMeasure,
    SupportClass,
    common_sum,
    decrement,
    exact_flow,
    over_common_denominator,
    total,
)

GENERATOR = "philox4x64-10 key=(seed<<64)|trial"
"""Each trial's stream: `numpy.random.Generator(numpy.random.Philox(key))`
with this key, drawn first by `random()` and then by `integers(deg)`."""

_TWO32, _TWO64 = 1 << 32, 1 << 64


class ClassNotInSupportError(GwrevError):
    """A requested root class carries no mass under the measure."""


class DegreeTooLargeError(GwrevError):
    """Degrees beyond what an estimate can carry: an end class of a flow of
    degree 2**32 or more, beyond the range of the walk step's draw
    `Generator.integers(deg)` as `lemire_step` computes it, or a transport
    check whose 1/deg weights or float sums leave the float range."""


# ---------------------------------------------------------------------------
# The draws in bulk
# ---------------------------------------------------------------------------

BLOCK = 12288
"""Trials per vectorized block; a call of up to 12,288 trials is one block.
Every block pays again for `philox_block`'s few hundred numpy dispatches
and the estimators' bookkeeping, so fewer blocks cost less.  The size
stops here because each lane costs more past about 6,000 lanes, as the
arrays outgrow the cache, and because the traced peak grows with the
block: a 300,000-trial flow between a K = 4 grid's degree-8 ends peaks at
3.1 MiB, under the test suite's 4 MiB bound (4.1 MiB at 16,384)."""


def _u64(x: int) -> np.ndarray:
    """A shared word as a 0-d uint64 array, the form in which it meets
    per-trial arrays (cheaper per operation than a numpy scalar, and
    promoted the same way under every numpy promotion rule)."""
    return np.array(x, dtype=np.uint64)


_MASK64 = _TWO64 - 1
_MASK32 = _u64(0xFFFFFFFF)
_32 = _u64(32)
_11 = _u64(11)
# Philox4x64's round multipliers, each with its 32-bit halves, and key
# increments: k0, the trial, is always an array, and k1, the seed, an int
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_HALVES = {m: (_u64(m), _u64(m & 0xFFFFFFFF), _u64(m >> 32))
                  for m in (_PHILOX_M0, _PHILOX_M1)}
_PHILOX_W0, _PHILOX_W1 = _u64(0x9E3779B97F4A7C15), 0xBB67AE8584CAA73B


def _mulhilo(m: int, x):
    """The high and low words of the 128-bit product m * x: Python ints
    for a shared word, else uint64 arrays, the high word from 32-bit
    halves (every array but `x` is a fresh temporary, so it is updated in
    place)."""
    if isinstance(x, int):
        p = m * x
        return p >> 64, p & _MASK64
    m_full, m_lo, m_hi = _PHILOX_HALVES[m]
    x_lo = x & _MASK32
    x_hi = x >> _32
    t = x_lo * m_hi
    x_lo *= m_lo
    x_lo >>= _32
    t += x_lo
    u = x_hi * m_lo
    np.bitwise_and(t, _MASK32, out=x_lo)
    u += x_lo
    x_hi *= m_hi
    t >>= _32
    x_hi += t
    u >>= _32
    x_hi += u
    return x_hi, x * m_full


def _xor(a, b):
    """a ^ b: a Python int while both words are shared, else an array,
    written into `a` when `a` is one (a fresh round word, never an
    argument of `philox_block`)."""
    if isinstance(a, int):
        if isinstance(b, int):
            return a ^ b
        return _u64(a) ^ b
    a ^= _u64(b) if isinstance(b, int) else b
    return a


def philox_block(seed: int, trials: np.ndarray, counter) -> np.ndarray:
    """The four words of Philox4x64-10 at `counter` (one for all trials or
    one per trial) under the key words (trial, seed) of each trial, as rows
    of a (4, len(trials)) array: words 4 * (counter - 1) to 4 * counter - 1
    of the trial's GENERATOR stream, whose first block sits at counter 1.

    The words x0..x3 are four separate values.  A word that is the same
    for every trial (a shared counter, the zero words, the seed's key word
    and what they alone produce) stays a Python int until it meets a
    per-trial word."""
    if not (0 <= seed < _TWO64):
        raise ValueError("seed must fit in 64 bits")
    trials = np.asarray(trials, dtype=np.uint64)
    x0 = int(counter) if np.ndim(counter) == 0 else np.asarray(counter, dtype=np.uint64)
    x1 = x2 = x3 = 0
    k0, k1 = trials, seed
    for _ in range(10):
        hi1, lo1 = _mulhilo(_PHILOX_M1, x2)
        hi0, lo0 = _mulhilo(_PHILOX_M0, x0)
        # x0, x2 <- hi(x2 * M1) ^ x1 ^ k0, hi(x0 * M0) ^ x3 ^ k1;
        # x1, x3 <- lo(x2 * M1), lo(x0 * M0)
        x0, x1, x2, x3 = _xor(_xor(hi1, x1), k0), lo1, _xor(hi0, _xor(x3, k1)), lo0
        k0, k1 = k0 + _PHILOX_W0, (k1 + _PHILOX_W1) & _MASK64
    return np.stack((x0, x1, x2, x3))


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
    nums, common = over_common_denominator([p.as_integer_ratio() for _, p in items])
    thresholds = [-(-(acc << 53) // common) for acc in itertools.accumulate(nums)]
    return [outcome for outcome, _ in items], np.array(thresholds, dtype=np.int64)


def _pick(thresholds: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Index of the outcome drawn by each word, clamped to the last outcome
    as the per-trial inverse-CDF draw of `tests/oracles.py` is."""
    k = (words >> _11).astype(np.int64)
    return np.minimum(np.searchsorted(thresholds, k, side="right"), len(thresholds) - 1)


def lemire_step(seed: int, trials: np.ndarray, index: np.ndarray, deg: np.ndarray,
                word: np.ndarray) -> np.ndarray:
    """`Generator.integers(deg)` for 1 <= deg < 2**32, drawn by each trial
    (with its own `index` and `deg`) when its stream is at word `index`,
    which the caller passes in as `word`: Lemire's method on the low half
    of that word and, while it rejects, on the high half, then on the
    halves of the words after it.  Earlier `random()` calls take whole
    words, so no buffered half precedes them."""
    deg = np.asarray(deg, dtype=np.uint64)
    index = np.asarray(index, dtype=np.int64)
    threshold = (np.uint64(1 << 32) - deg) % deg
    m = (word & _MASK32) * deg
    again = np.flatnonzero((m & _MASK32) < threshold)
    draw = 1
    while len(again):
        words = trial_words(seed, trials[again], index[again] + draw // 2)
        m[again] = (words >> _32 if draw % 2 else words & _MASK32) * deg[again]
        again = again[(m[again] & _MASK32) < threshold[again]]
        draw += 1
    return (m >> _32).astype(np.int64)


def _range(thresholds: np.ndarray, p: int) -> Tuple[int, int]:
    """[lo, hi): the k = word >> 11 that `_pick` draws as outcome p, which
    are [thresholds[p - 1], thresholds[p]), with no lower bound for the
    first outcome and, as `_pick` clamps, no upper bound for the last."""
    lo = int(thresholds[p - 1]) if p else 0
    hi = int(thresholds[p]) if p < len(thresholds) - 1 else 1 << 53
    return lo, hi


def _in(k: np.ndarray, bounds: Tuple[int, int]) -> np.ndarray:
    """Which of the k = word >> 11 lie in the range `bounds`."""
    lo, hi = bounds
    return (k >= lo) & (k < hi)


def _root_ranges(measure: RootMeasure, classes):
    """For each class, the ranges of k0 = word0 >> 11 and k1 = word1 >> 11
    in which a trial draws it as the root: its label's range in the root
    law and its vector's in the label's neighbor law."""
    labels, label_cdf = _cdf(measure.root_dist)
    for cls in classes:
        vectors, cdf = _cdf(measure.neighbor_dist[cls.label])
        yield _range(label_cdf, labels.index(cls.label)), _range(cdf, vectors.index(cls.vector))


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
        """Is the estimate within k standard errors of the exact value, up to
        twice the rounding of an in-order float mean of `trials` terms, about
        (trials + 3) * 2**-53 relative, so that one with no spread holds?"""
        exact = float(self.exact)
        rounding = (self.trials + 3) * 2.0**-52 * abs(exact)
        return abs(self.empirical_mean - exact) <= k * self.std_error + rounding


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
    for end in (source, target):
        if total(end.vector) >= _TWO32:
            raise DegreeTooLargeError(
                f"class {end} has degree {total(end.vector)}; a walk step "
                f"needs an end class of degree below 2**32"
            )
    ranges = list(_root_ranges(measure, (source, target)))
    law = measure.descendants.offspring_law

    def crossing(frm: SupportClass, to: SupportClass):
        # (lo, hi, cdf, want): the step from a frm root crosses to a `to`
        # class when child k carries to's label (lo <= k < hi, children
        # ordered by label) and draws outcome `want` of its law, to's vector
        # less the parent; hi = lo when the law cannot draw it
        outcomes, cdf = _cdf(law(frm.label, to.label))
        want = decrement(to.vector, frm.label)
        lo = sum(frm.vector[:to.label - 1])
        if want not in outcomes:
            return lo, lo, cdf, 0
        return lo, lo + frm.vector[to.label - 1], cdf, outcomes.index(want)

    directions = (crossing(source, target), crossing(target, source))
    counts = [0, 0]
    for trial in _blocks(trials):
        first = philox_block(seed, trial, 1)
        # the trials rooted at each end: words 0 and 1 in its two ranges
        k0, k1 = first[:2] >> _11
        ends = [_in(k0, label) & _in(k1, vector) for label, vector in ranges]
        at = np.flatnonzero(ends[0] | ends[1])
        trial, first = trial[at], first[:, at]
        ends = [end[at] for end in ends]
        deg = np.where(ends[0], total(source.vector), total(target.vector))
        # the step reads word 2 + deg first, from counter 1 (`first`) or, for
        # the trials `later`, from `last`, the block of its counter
        step = 2 + deg
        last_counter = step // 4 + 1
        later = np.flatnonzero(last_counter > 1)
        word = first[step % 4, np.arange(len(trial))]
        if len(later):
            last = philox_block(seed, trial[later], last_counter[later])
            word[later] = last[step[later] % 4, np.arange(len(later))]
        k = lemire_step(seed, trial, step, deg, word)
        # child k drew its offspring vector from word 2 + k
        go = [end & (lo <= k) & (k < hi) for end, (lo, hi, _, _) in zip(ends, directions)]
        need = np.flatnonzero(go[0] | go[1])
        index = 2 + k[need]
        counter = index // 4 + 1
        words = first[index % 4, need]
        # a word past counter 1 is read from `last` when its counter is the
        # step's (a child index lies below the step's, so such a trial is
        # in `later`), and is evaluated otherwise
        past = np.flatnonzero(counter > 1)
        if len(past):
            at_last = counter[past] == last_counter[need[past]]
            hit = past[at_last]
            words[hit] = last[index[hit] % 4, np.searchsorted(later, need[hit])]
            elsewhere = past[~at_last]
            if len(elsewhere):
                words[elsewhere] = trial_words(seed, trial[need[elsewhere]], index[elsewhere])
        for n, (mine, (*_, cdf, want)) in enumerate(zip(go, directions)):
            counts[n] += int(np.count_nonzero(_pick(cdf, words[mine[need]]) == want))
    fwd, bwd = counts
    mean_f, se_f = _estimate(float(fwd), float(fwd), trials)
    mean_b, se_b = _estimate(float(bwd), float(bwd), trials)
    return (
        FlowEstimate(mean_f, se_f, exact_flow(measure, source, target), trials, seed),
        FlowEstimate(mean_b, se_b, exact_flow(measure, target, source), trials, seed),
    )


def inverse_degree_mass(measure: RootMeasure) -> Fraction:
    """Normalizer of the degree-unbiased companion measure: the mean of
    1 / deg(root) under the measure, summed over a common denominator per
    label and then across the labels."""
    terms = []
    for i, r in measure.root_dist.items():
        num, den = common_sum([(p.numerator, p.denominator * total(c))
                               for c, p in measure.neighbor_dist[i].items()])
        terms.append((r.numerator * num, r.denominator * den))
    return Fraction(*common_sum(terms))


def _transport_mass(measure: RootMeasure, i: int, j: int) -> Fraction:
    """`exact_transport` before the division by `inverse_degree_mass`."""
    r = measure.root_dist[i]
    num, den = common_sum([(p.numerator * c[j - 1], p.denominator * total(c))
                           for c, p in measure.neighbor_dist[i].items()])
    return Fraction(r.numerator * num, r.denominator * den)


def exact_transport(measure: RootMeasure, i: int, j: int) -> Fraction:
    """Mean number of j-labeled root neighbors on the i-labeled event, under
    the measure biased by 1/deg and renormalized."""
    return _transport_mass(measure, i, j) / inverse_degree_mass(measure)


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
    if z_f == 0:
        raise DegreeTooLargeError(
            "the mean inverse root degree z is below 2**-1074, the smallest "
            "positive float; a transport check needs z of at least that")
    labels, label_cdf = _cdf(measure.root_dist)

    def side(a: int, b: int):
        # the a-rooted trials' word-0 range, and the neighbor law and term
        # c_b / |c| / z of each vector c of label a, in the per-trial loop's
        # arithmetic; a trial of another label adds 0.0 in that loop, which
        # leaves an in-order sum as it is, so it is not drawn
        vectors, cdf = _cdf(measure.neighbor_dist[a])
        values = np.array([c[b - 1] / total(c) / z_f for c in vectors])
        return _range(label_cdf, labels.index(a)), cdf, values

    sides = (side(i, j), side(j, i))
    # every sum of squares stays below trials * top**2; when that is a
    # float, so are the values and the exact references, which are at most
    # top (and `within` compares with float(exact))
    top = float(max(values.max() for *_, values in sides))
    if not math.isfinite(top * top * trials):
        raise DegreeTooLargeError(
            f"the largest transport value c_j / |c| / z is {top:.3g}; a transport "
            f"check needs its square times the {trials} trials below the largest "
            f"float, {sys.float_info.max:.3g}")
    sums = [[0.0, 0.0], [0.0, 0.0]]
    for trial in _blocks(trials):
        first = philox_block(seed, trial, 1)
        k0 = first[0] >> _11
        for s, (bounds, cdf, values) in zip(sums, sides):
            v = values[_pick(cdf, first[1, np.flatnonzero(_in(k0, bounds))])]
            s[:] = _add_in_order(s[0], v), _add_in_order(s[1], v * v)
    (mean_f, se_f), (mean_b, se_b) = (_estimate(*s, trials) for s in sums)
    return (
        FlowEstimate(mean_f, se_f, _transport_mass(measure, i, j) / z, trials, seed),
        FlowEstimate(mean_b, se_b, _transport_mass(measure, j, i) / z, trials, seed),
    )
