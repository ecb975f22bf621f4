"""Differential tests: the integer normalizations of `_forced_laws` and
`construct_measure` against their Fraction references in `oracles`.

Both sum each normalizer in integers over one common denominator and form
one Fraction per stored value; the laws, flows, neighbor and root weights
and the written documents must equal the step-by-step Fraction results
exactly.
"""

import math
import random
from fractions import Fraction as F

import pytest

from gwrev import fileformats as ff
from gwrev.checker import run_checks
from gwrev.constructor import _normalize, construct_measure
from gwrev.core import GWSpec, PAIR, RootMeasure, SpecError, SupportClass
from gwrev.parametrizer import (
    InconsistentRatiosError,
    SupportTemplate,
    _forced_laws,
    _root_weights,
    assemble_measure,
    validate_template,
)

from .conftest import dense_grid
from .oracles import (
    assert_support_consistency,
    fraction_forced_laws,
    fraction_normalize,
    random_template_candidate,
    random_template_weights,
)


def template_corpus(seed, count=300):
    """(template, weights) pairs over 1..5 labels, valid or not."""
    rng = random.Random(seed)
    for _ in range(count):
        template = random_template_candidate(rng, rng.randint(1, 5), max_classes=8)
        yield template, random_template_weights(rng, template)


SIDE_12 = [(3, 2), (7, 5), (13, 11), (19, 17), (29, 23)]
SIDE_21 = [(31, 37), (41, 43), (47, 53), (59, 61), (67, 71)]


def coprime_template():
    """A two-label template whose sides S(1, 2) and S(2, 1) hold classes of
    weight 1/p and total q, all of the p and q distinct primes (`SIDE_12`,
    `SIDE_21`), so the common denominator of each side's terms is the
    product of every den(w) * |c|, the largest it can be.  The rest of each
    label's weight sits on one class outside the side, next to the side's
    first class, which also counts its own label; so the spec is
    admissible."""
    weights = {}
    for label, pairs in [(1, SIDE_12), (2, SIDE_21)]:
        for k, (p, q) in enumerate(pairs):
            own, other = (1, q - 1) if k == 0 else (0, q)
            vector = (own, other) if label == 1 else (other, own)
            weights[SupportClass(label, vector)] = F(1, p)
        rest = (1, 0) if label == 1 else (0, 1)
        weights[SupportClass(label, rest)] = 1 - sum(F(1, p) for p, _ in pairs)
    return SupportTemplate(n=2, classes=tuple(weights)), weights


def measure_doc(measure):
    return ff.measure_json(measure)


def reference_assembled(template, weights):
    """`assemble_measure` with the Fraction laws and flows."""
    laws, flow = fraction_forced_laws(template, weights)
    by_label = template.by_label()
    return RootMeasure(
        n=template.n, root_dist=_root_weights(template.n, flow),
        neighbor_dist={i: {cls.vector: weights[cls] for cls in by_label[i]}
                       for i in range(1, template.n + 1)},
        descendants=GWSpec(n=template.n, mode=PAIR, offspring=laws))


def reference_constructed(spec):
    """`construct_measure` with the Fraction normalization."""
    neighbor, root = fraction_normalize(spec.n, run_checks(spec).potentials)
    return RootMeasure(n=spec.n, root_dist=root, neighbor_dist=neighbor, descendants=spec)


def items(dist_of):
    """Every stored value in order, nested dicts flattened."""
    return [(k, items(v) if isinstance(v, dict) else v) for k, v in dist_of.items()]


def assert_normalizations_match(template, weights):
    """Laws and flows always; the assembled measure when the template is
    valid and closes; the normalization and the constructed measure when its
    spec also passes the checks.  Returns whether a measure was
    constructed."""
    laws, flow = _forced_laws(template, weights)
    ref_laws, ref_flow = fraction_forced_laws(template, weights)
    assert items(laws) == items(ref_laws)
    assert items(flow) == items(ref_flow)
    if not validate_template(template)[0]:
        return False
    try:
        assembled = assemble_measure(template, weights)
    except (InconsistentRatiosError, SpecError):
        return False
    assert measure_doc(assembled) == measure_doc(reference_assembled(template, weights))
    spec = assembled.descendants
    report = run_checks(spec)
    if not report.ok():
        return False
    neighbor, root = _normalize(spec.n, report.potentials)
    ref_neighbor, ref_root = fraction_normalize(spec.n, report.potentials)
    assert items(neighbor) == items(ref_neighbor)
    assert items(root) == items(ref_root)
    constructed = construct_measure(spec)
    assert_support_consistency(constructed)
    assert measure_doc(constructed) == measure_doc(reference_constructed(spec))
    # the constructed measure is the assembled one
    assert measure_doc(constructed) == measure_doc(assembled)
    return True


def test_normalizations_match_fractions_on_random_templates():
    built = sum(assert_normalizations_match(t, w) for t, w in template_corpus(7))
    assert built > 50


@pytest.mark.parametrize("k", [4, 8, 10])
def test_normalizations_match_fractions_on_64_bit_grids(k):
    template, weights = dense_grid(k, seed=k, bits=64)
    assert assert_normalizations_match(template, weights)


def test_normalizations_match_fractions_on_coprime_denominators():
    template, weights = coprime_template()
    for pairs in (SIDE_12, SIDE_21):
        scales = [p * q for p, q in pairs]
        assert math.lcm(*scales) == math.prod(scales)
    assert assert_normalizations_match(template, weights)


def test_normalizations_use_no_fraction_arithmetic(monkeypatch):
    template, weights = dense_grid(6, seed=6, bits=64)
    spec = assemble_measure(template, weights).descendants
    potentials = run_checks(spec).potentials
    expected = (_forced_laws(template, weights), _normalize(spec.n, potentials))

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in an integer normalization")

    for name in ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"]:
        monkeypatch.setattr(F, name, forbidden)
    assert (_forced_laws(template, weights), _normalize(spec.n, potentials)) == expected
