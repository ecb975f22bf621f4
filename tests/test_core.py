import math
import random
from fractions import Fraction as F

import pytest

from gwrev.core import (
    CoordinateUnderflowError,
    GWSpec,
    InvalidDistributionError,
    PAIR,
    SpecError,
    SupportClass,
    bfs_forest,
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
