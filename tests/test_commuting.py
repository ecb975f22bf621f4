"""One commuting diagram for the four constructors.

gwrev builds a measure four ways: `construct_measure`,
`construct_plain_measure`, `assemble_measure` and `lift_measure`.  Each
builds the unique reversible measure with its descendant laws, and the
plain regime is the theorem with labels as types, so where their inputs
meet their answers must be equal:

* plain is pair on labels: the pair spec whose law (j, i) is the plain law
  of label i, wherever i is a child label of law j, gets the plain verdict,
  and where both pass both constructors give the same root and neighbor
  laws;
* construct, then parametrize: `assemble_measure` on the support and
  neighbor weights of `construct_measure(spec)` returns that measure;
* lift, then construct: `construct_measure` of a lift's descendant laws
  returns the lift, wherever `run_checks` passes them.

Verdicts and measures are compared, never failure names, which differ by
regime by design.  Inputs come from the seeded generators of `oracles`.
"""

import itertools
import random

import pytest

from gwrev.checker import run_checks
from gwrev.constructor import construct_measure, verify_reversibility
from gwrev.core import GWSpec, PAIR, PLAIN, ChecksFailedError
from gwrev.covers import FiniteGraph, label_vertices, lift_measure
from gwrev.norelabel import construct_plain_measure, expand_plain_spec, run_plain_checks
from gwrev.parametrizer import SupportTemplate, assemble_measure

from .oracles import (
    normalized_weights,
    random_connected_graph,
    random_plain_spec,
    random_template_candidate,
    random_template_weights,
    redrawn_rows,
    solve_offspring,
    support_classes,
)


def pair_on_labels(spec: GWSpec) -> GWSpec:
    """The pair spec of an explicit plain spec: law (j, i) is the plain law
    of label i wherever i is a child label of law j."""
    return GWSpec(n=spec.n, mode=PAIR, offspring={
        (j, i): spec.offspring[i] for j in spec.offspring for i in spec.child_labels[j]})


def random_plain_laws(rng: random.Random) -> GWSpec:
    """An explicit plain spec, n <= 3 and degree <= 2, whose laws are drawn
    with no regard to the multinomial form: most are not multinomial."""
    n = rng.randint(1, 3)
    vectors = [c for c in itertools.product(range(3), repeat=n) if 0 < sum(c) <= 2]
    offspring = {}
    for i in range(1, n + 1):
        support = rng.sample(vectors, rng.randint(1, min(3, len(vectors))))
        offspring[i] = dict(zip(support, normalized_weights(rng, len(support))))
    return GWSpec(n=n, mode=PLAIN, offspring=offspring)


def plain_cases():
    """The direct specs, each with its rows redrawn, and their explicit
    laws, then random explicit laws; each as (plain spec, its explicit laws)."""
    rng = random.Random(5)
    for _ in range(200):
        pspec = random_plain_spec(rng, rng.randint(1, 3))
        for direct in (pspec, redrawn_rows(rng, pspec)):
            yield direct, expand_plain_spec(direct)
    rng = random.Random(7)
    for _ in range(3000):
        spec = random_plain_laws(rng)
        yield spec, spec


def test_plain_is_pair_on_labels():
    verdicts = []
    for plain, explicit in plain_cases():
        report = run_plain_checks(plain)
        pair = pair_on_labels(explicit)
        assert report.ok() == run_checks(pair).ok(), plain
        verdicts.append(report.ok())
        if report.ok():
            by_plain, by_pair = construct_plain_measure(plain), construct_measure(pair)
            assert by_plain.root_dist == by_pair.root_dist, plain
            assert by_plain.neighbor_dist == by_pair.neighbor_dist, plain
    # both verdicts, each many times
    assert min(verdicts.count(True), verdicts.count(False)) >= 50, verdicts.count(True)


def test_construct_then_parametrize():
    rng = random.Random(12)
    passed = 0
    for _ in range(300):
        template = random_template_candidate(rng, rng.randint(1, 4))
        spec = solve_offspring(template, random_template_weights(rng, template))
        if not run_checks(spec).ok():
            with pytest.raises(ChecksFailedError):
                construct_measure(spec)
            continue
        passed += 1
        measure = construct_measure(spec)
        classes = support_classes(measure)
        weights = {cls: measure.neighbor_dist[cls.label][cls.vector] for cls in classes}
        assert assemble_measure(SupportTemplate(spec.n, tuple(classes)), weights) == measure
    assert passed >= 50, passed


def test_lift_then_construct():
    rng = random.Random(12)
    passed = 0
    for _ in range(60):
        graph = FiniteGraph.from_edges(random_connected_graph(rng))
        lift = lift_measure(graph, label_vertices(graph))
        assert verify_reversibility(lift) == []
        if run_checks(lift.descendants).ok():
            passed += 1
            assert construct_measure(lift.descendants) == lift
    assert passed >= 20, passed
