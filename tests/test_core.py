from fractions import Fraction as F

import pytest

from gwrev.core import (
    CoordinateUnderflowError,
    GWSpec,
    InvalidDistributionError,
    PAIR,
    SpecError,
    SupportClass,
    active_labels,
    bfs_forest,
    candidate_support,
    class_forest,
    decrement,
    degrees,
    increment,
    swap,
    total,
    validate_dist,
    vector,
)

from .conftest import two_label_spec


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
    c = (2, 0, 3)
    for j in (1, 3):
        for k in (1, 2, 3):
            assert swap(c, j, k) == increment(decrement(c, j), k)


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
