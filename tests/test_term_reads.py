"""Each term of a law or a weight table is read once.

The exact pipeline's per-term loops read a Fraction's numerator and
denominator with one `as_integer_ratio()` call, not with the two Python
properties.  These tests count the property reads made from gwrev's own
modules while the whole pipeline runs on a dense grid, and the ratio reads
the two range-and-sum checks make per term.
"""

import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from gwrev import core
from gwrev.checker import run_checks
from gwrev.constructor import construct_measure, verify_reversibility
from gwrev.parametrizer import assemble_measure

from .conftest import dense_grid


def caller() -> str:
    """"module:function:line" of the frame that made the counted read, two
    levels up, or "" when that frame is outside gwrev."""
    frame = sys._getframe(2)
    module = frame.f_globals.get("__name__", "")
    if module != "gwrev" and not module.startswith("gwrev."):
        return ""
    return f"{module}:{frame.f_code.co_name}:{frame.f_lineno}"


@pytest.fixture
def property_reads(monkeypatch):
    """Counter of the `Fraction.numerator` and `Fraction.denominator` reads
    made from a gwrev module, by the site that made them."""
    reads = Counter()
    for name in ("numerator", "denominator"):
        original = getattr(F, name)

        def counted(self, original=original, name=name):
            site = caller()
            if site:
                reads[f"{name} at {site}"] += 1
            return original.__get__(self, F)

        monkeypatch.setattr(F, name, property(counted))
    return reads


@pytest.fixture
def ratio_reads(monkeypatch):
    """Counter of the `Fraction.as_integer_ratio` calls made from a gwrev
    module, by function."""
    reads = Counter()
    original = F.as_integer_ratio

    def counted(self):
        site = caller()
        if site:
            reads[site.rsplit(":", 1)[0]] += 1
        return original(self)

    monkeypatch.setattr(F, "as_integer_ratio", counted)
    return reads


def test_the_pipeline_reads_no_fraction_property(property_reads):
    template, weights = dense_grid(6, seed=3, bits=16)
    measure = assemble_measure(template, weights)
    report = run_checks(measure.descendants)
    assert report.ok()
    assert construct_measure(measure.descendants) == measure
    assert verify_reversibility(measure) == []
    assert not property_reads, dict(property_reads)


def test_the_counting_property_sees_a_read(property_reads):
    # the counter is live: a read from a gwrev frame is counted, another not
    exec("F(3, 4).numerator", {"__name__": "gwrev.core", "F": F})
    exec("F(3, 4).denominator", {"__name__": "tests", "F": F})
    assert sum(property_reads.values()) == 1


def test_validate_dist_reads_each_ratio_once(ratio_reads):
    dist = {(k, 3 - k): F(1, 4) for k in range(4)}
    core.validate_dist(dist, 2)
    assert ratio_reads == {"gwrev.core:validate_dist": 4}


@pytest.mark.parametrize("zero", [False, True])
def test_check_weights_reads_each_ratio_once(ratio_reads, zero):
    weights = {k: F(k, 15) for k in range(1, 6)}
    core.check_weights(weights, "w", zero=zero)
    assert ratio_reads == {"gwrev.core:check_weights": 5}
