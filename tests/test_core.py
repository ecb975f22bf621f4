import math
import random
from fractions import Fraction as F

import pytest

import gwrev.core as core
from gwrev.core import (
    CoordinateUnderflowError,
    GWSpec,
    InvalidDistributionError,
    PAIR,
    PLAIN,
    SpecError,
    SupportClass,
    bfs_forest,
    block_mismatches,
    candidate_support,
    class_forest,
    common_sum,
    decrement,
    degrees,
    increment,
    normalize,
    over_common_denominator,
    total,
    validate_dist,
    vector,
)

from .conftest import two_label_spec
from .oracles import active_labels, swap


def test_decrement():
    assert decrement((1, 1), 1) == (0, 1)
    assert decrement((2, 1), 2) == (2, 0)
    with pytest.raises(CoordinateUnderflowError):
        decrement((0, 3), 1)


def test_increment_and_swap():
    assert increment((0, 1), 1) == (1, 1)
    assert swap((1, 1), 1, 2) == (0, 2)
    assert swap((1, 1), 1, 1) == (1, 1)
    with pytest.raises(CoordinateUnderflowError):
        swap((0, 1), 1, 2)


def test_swap_is_increment_after_decrement():
    # the oracle's swap, against one unit moved by hand
    c = (2, 0, 3)
    for j in (1, 3):
        for k in (1, 2, 3):
            moved = list(c)
            moved[j - 1] -= 1
            moved[k - 1] += 1
            assert swap(c, j, k) == increment(decrement(c, j), k) == tuple(moved)


def test_decrement_increment_roundtrip():
    c = (3, 1, 0, 2)
    for j in (1, 2, 4):
        assert decrement(increment(c, j), j) == c
        assert increment(decrement(c, j), j) == c


def test_active_labels():
    spec = two_label_spec()
    assert active_labels(spec.offspring[(1, 1)]) == {1, 2}
    assert active_labels(spec.offspring[(1, 2)]) == {2}
    assert active_labels({(0, 0): F(1)}) == set()


def test_degrees():
    spec = two_label_spec()
    assert degrees(spec.offspring[(2, 2)]) == {2, 1}
    assert degrees({(1, 1): F(1)}) == {2}
    with pytest.raises(InvalidDistributionError):
        degrees({})


def test_candidate_support():
    spec = two_label_spec()
    assert candidate_support(spec, 1) == {(1, 1), (2, 1)}
    assert candidate_support(spec, 2) == {(0, 3), (1, 1)}
    for i in (1, 2):
        assert all(total(c) >= 1 for c in candidate_support(spec, i))


def test_candidate_support_empty_for_unmentioned_label():
    spec = GWSpec(n=2, mode=PAIR, offspring={(1, 1): {(1, 0): F(1)}})
    assert candidate_support(spec, 2) == set()


def test_vector_rejects_negative():
    with pytest.raises(ValueError):
        vector([1, -1])


def test_validate_dist_rules():
    validate_dist({(1, 0): F(1, 2), (0, 1): F(1, 2)}, 2)
    with pytest.raises(InvalidDistributionError):
        validate_dist({(1, 0): F(1, 2)}, 2)  # does not sum to 1
    with pytest.raises(InvalidDistributionError):
        validate_dist({(1, 0): F(1, 2), (0, 1): 0.5}, 2)  # float crept in
    with pytest.raises(InvalidDistributionError):
        validate_dist({(1,): F(1)}, 2)  # wrong length
    with pytest.raises(InvalidDistributionError):
        validate_dist({(0, 0): F(1)}, 2, min_total=1)


def test_exact_arithmetic_is_associative_bit_for_bit():
    vals = [F(3, 7), F(4, 7), F(2, 5), F(1, 3), F(5, 8)]
    left = ((vals[0] + vals[1]) + vals[2]) + (vals[3] + vals[4])
    right = vals[0] + (vals[1] + (vals[2] + (vals[3] + vals[4])))
    assert left == right
    assert left.numerator == right.numerator
    assert left.denominator == right.denominator
    # normalization is idempotent
    assert F(left.numerator, left.denominator) == left


def test_spec_validation_catches_missing_child_law():
    with pytest.raises(SpecError):
        GWSpec(n=2, mode=PAIR, offspring={
            (1, 1): {(0, 1): F(1)},  # produces (1, 2) children, no law
        })


@pytest.mark.parametrize("mode, key, witness", [(PAIR, (1, 1), (1, 2)), (PLAIN, 1, 2)])
def test_missing_child_law_witness_is_the_least_missing_label(mode, key, witness):
    # the law lists its entry with label-3 children first; the witness is
    # still label 2, the least child label without a law
    with pytest.raises(SpecError) as error:
        GWSpec(n=3, mode=mode, offspring={key: {(0, 0, 1): F(1, 2), (0, 1, 0): F(1, 2)}})
    assert str(error.value) == (f"law for {key} produces children of type {witness}, "
                                "which has no offspring law")


def test_spec_validation_catches_bad_mode_and_empty():
    with pytest.raises(SpecError):
        GWSpec(n=2, mode="other", offspring={(1, 1): {(1, 0): F(1)}})
    with pytest.raises(SpecError):
        GWSpec(n=2, mode=PAIR, offspring={})


def test_bfs_forest_order_and_parents():
    # two components; neighbours are appended in the order they are yielded,
    # and a start already discovered opens no tree
    adjacency = {1: [3, 2], 2: [1], 3: [1, 4], 4: [3], 5: []}
    order, parent = bfs_forest([4, 1, 5, 2], adjacency.__getitem__)
    assert order == [4, 3, 1, 2, 5]
    assert parent == {4: None, 3: 4, 1: 3, 2: 1, 5: None}


def test_class_forest_joins_the_two_sides_of_each_label_pair():
    a, b = SupportClass(1, (1, 1)), SupportClass(1, (2, 0))
    c, d = SupportClass(2, (1, 0)), SupportClass(2, (0, 3))
    side, order, parent = class_forest([a, b, c, d])
    assert side == {(1, 1): [a, b], (1, 2): [a], (2, 1): [c], (2, 2): [d]}
    # a sees S(1, 1) = [a, b] and S(2, 1) = [c]; d only its own clique
    assert order == [a, b, c, d]
    assert parent == {a: None, b: a, c: a, d: None}


# ---------------------------------------------------------------------------
# The one normalization
# ---------------------------------------------------------------------------

def pairs(weights):
    return {key: (w.numerator, w.denominator) for key, w in weights.items()}


def assert_normalizes(weights):
    """`normalize` against w / sum(w) and sum(w) in Fractions: the same
    reduced values in the same key order, and the unreduced sum (S, L)
    over the lcm L of the denominators."""
    law, (num, common) = normalize(pairs(weights))
    grand = sum(weights.values(), F(0))
    expected = {key: w / grand for key, w in weights.items()}
    assert list(law.items()) == list(expected.items())
    assert all(type(p) is F for p in law.values())
    assert F(num, common) == grand
    assert common == math.lcm(*[w.denominator for w in weights.values()])


def random_weights(rng, count, denominator=None):
    return {(k, rng.randint(0, 9)): F(rng.randint(1, 10**6),
                                      denominator or rng.randint(1, 10**6))
            for k in range(count)}


def test_normalize_matches_fractions_on_random_weights():
    rng = random.Random(23)
    for _ in range(300):
        assert_normalizes(random_weights(rng, rng.randint(1, 12)))


def test_normalize_integer_weights():
    # the degree masses of a lifted cover
    weights = {1: F(6), 2: F(4), 3: F(2)}
    assert_normalizes(weights)
    law, total_ = normalize(pairs(weights))
    assert law == {1: F(1, 2), 2: F(1, 3), 3: F(1, 6)} and total_ == (12, 1)


def test_normalize_a_single_weight():
    for w in (F(1), F(3, 7), F(10**40 + 1, 3)):
        law, total_ = normalize({"only": (w.numerator, w.denominator)})
        assert law == {"only": F(1)}
        assert total_ == (w.numerator, w.denominator)


def test_normalize_weights_sharing_a_denominator():
    rng = random.Random(29)
    for _ in range(100):
        weights = random_weights(rng, rng.randint(2, 8), denominator=rng.randint(1, 10**6))
        assert_normalizes(weights)
    # the common denominator of pairs that share one is that one, unreduced
    law, total_ = normalize({1: (2, 6), 2: (3, 6), 3: (1, 6)})
    assert law == {1: F(1, 3), 2: F(1, 2), 3: F(1, 6)} and total_ == (6, 6)


def test_over_common_denominator_matches_common_sum():
    rng = random.Random(31)
    for _ in range(300):
        terms = [(rng.randint(0, 10**9), rng.randint(1, 10**4))
                 for _ in range(rng.randint(1, 10))]
        nums, common = over_common_denominator(terms)
        assert common == math.lcm(*[den for _, den in terms])
        assert [F(x, common) for x in nums] == [F(num, den) for num, den in terms]
        assert (sum(nums), common) == common_sum(terms)


# ---------------------------------------------------------------------------
# block_mismatches against an all-pairs loop
# ---------------------------------------------------------------------------

def all_pairs_mismatches(a, b, ka, kb, scale):
    """Every (u, v) of a x b, u before v when `a is b`, whose keys differ as
    Fractions, ka[u] * p / q != kb[v], None equal only to None."""
    p, q = scale
    out = []
    for x, (u, key) in enumerate(zip(a, ka)):
        left = None if key is None else F(key[0] * p, key[1] * q)
        for y, (v, other) in enumerate(zip(b, kb)):
            if a is b and y <= x:
                continue
            if left != (None if other is None else F(*other)):
                out.append((u, v))
    return out


def random_keys(rng, size, values, constant):
    """`size` unreduced keys drawn from `values` (None among them), one
    value throughout when `constant`."""
    if constant:
        values = [rng.choice(values)]
    out = []
    for _ in range(size):
        value = rng.choice(values)
        m = rng.randint(1, 9)
        out.append(None if value is None else (value.numerator * m, value.denominator * m))
    return out


def random_block(rng):
    """(a, b, ka, kb, scale): sides of 1-6 sorted members, keys from a pool
    of 1-3 values and None, a and b each constant one time in three, and
    the clique S(i, i) one time in four."""
    p, q = rng.choice([(1, 1), (3, 3), (2, 5), (7, 4)])
    pool = [F(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    pool += [None] * rng.randint(0, 1)
    # the keys of a, scaled by p / q, meet the pool of b
    a_pool = [None if x is None else x * q / p for x in pool]
    a = [("u", x) for x in range(rng.randint(1, 6))]
    ka = random_keys(rng, len(a), a_pool, rng.random() < 1 / 3)
    if rng.random() < 1 / 4:
        return a, a, ka, ka, (p, q)
    b = [("v", y) for y in range(rng.randint(1, 6))]
    return a, b, ka, random_keys(rng, len(b), pool, rng.random() < 1 / 3), (p, q)


def test_block_mismatches_matches_all_pairs():
    rng = random.Random(24)
    seen = {"clique": 0, "agree": 0, "mixed": 0, "none": 0}
    for _ in range(3000):
        a, b, ka, kb, scale = random_block(rng)
        expected = all_pairs_mismatches(a, b, ka, kb, scale)
        assert list(block_mismatches(a, b, ka, kb, scale)) == expected
        assert next(block_mismatches(a, b, ka, kb, scale), None) == (
            min(expected) if expected else None)
        seen["clique"] += a is b
        seen["agree"] += not expected
        seen["mixed"] += 0 < len(expected) < len(a) * len(b)
        seen["none"] += None in ka + kb
    assert min(seen.values()) > 200, seen


def test_block_mismatches_first_pair_is_linear(monkeypatch):
    # a block that agrees, or its first mismatch, costs at most
    # |a| + |b| + 1 key comparisons
    calls = []
    same_key = core.same_key

    def counted(x, y):
        calls.append(1)
        return same_key(x, y)

    monkeypatch.setattr(core, "same_key", counted)
    rng = random.Random(25)
    for _ in range(3000):
        a, b, ka, kb, scale = random_block(rng)
        calls.clear()
        next(block_mismatches(a, b, ka, kb, scale), None)
        assert len(calls) <= len(a) + len(b) + 1
    # sides of 100 members, the one differing key last in a or in b: an
    # all-pairs scan would make 9,901 or 100 comparisons
    a, b = list(range(100)), list(range(100, 200))
    for ka, kb, first in (([(1, 2)] * 99 + [(1, 3)], [(2, 4)] * 100, (99, 100)),
                          ([(1, 2)] * 100, [(2, 4)] * 99 + [(1, 3)], (0, 199))):
        calls.clear()
        assert next(block_mismatches(a, b, ka, kb, (1, 1))) == first
        assert len(calls) <= 201


def test_block_mismatches_constant_sides():
    a, b = ["u1", "u2", "u3"], ["v1", "v2"]
    # both constant and equal under the scale: nothing differs
    assert list(block_mismatches(a, b, [(1, 2)] * 3, [(3, 1)] * 2, (6, 1))) == []
    # both constant and unequal: every pair
    assert list(block_mismatches(a, b, [(1, 2)] * 3, [(3, 1)] * 2, (1, 1))) == [
        (u, v) for u in a for v in b]
    # b constant: only the members of a whose key differs
    assert list(block_mismatches(a, b, [(1, 2), (2, 1), (2, 4)], [(1, 2)] * 2, (1, 1))) == [
        ("u2", "v1"), ("u2", "v2")]
    # a constant, b not: every u against the v that differ
    assert list(block_mismatches(a, b, [None] * 3, [None, (1, 1)], (1, 1))) == [
        (u, "v2") for u in a]
    # the clique lists each pair once, u before v
    assert list(block_mismatches(a, a, [(1, 1), (2, 2), (1, 3)], [(1, 1), (2, 2), (1, 3)],
                                 (1, 1))) == [("u1", "u3"), ("u2", "u3")]
