"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see the
lines on passing runs).

Every tolerance is pinned here: exact rational equality everywhere except
the Monte Carlo criterion, which uses a four-standard-error band at a fixed
seed.

Expected outcome: every criterion passes except `test_criterion_2b`, which
asserts recorded closed-form targets for the parametrized family that are
mutually inconsistent with exact detailed balance away from the midpoint
parameters (test_parametrizer.py pins the corrected forms, which do hold).
That test fails by design and documents the discrepancy.
"""

import random
import time
from fractions import Fraction as F

import pytest

from gwrev import fileformats as ff
from gwrev.checker import run_checks
from gwrev.constructor import construct_measure, verify_reversibility
from gwrev.core import ChecksFailedError, GWSpec, PAIR, SupportClass, degrees
from gwrev.covers import FiniteGraph, label_vertices, lift_measure
from gwrev.norelabel import (
    NotMultinomialError,
    construct_plain_measure,
    extract_plain_spec,
    run_plain_checks,
)
from gwrev.parametrizer import assemble_measure
from gwrev.simulator import estimate_flow, mass_transport_check

from .conftest import (
    A,
    B,
    D,
    break_condition_i,
    break_condition_ii,
    three_label_plain,
    two_label_spec,
    two_label_template,
    two_label_weights,
)
from .oracles import (
    balance_violations,
    build_balance_graph,
    cycle_product,
    random_admissible_instance,
    random_connected_graph,
    random_fraction,
    random_plain_spec,
    random_single_type_law,
    template_of_measure,
)

CORPUS_SEED = 20110331
MC_SEED = 31415926


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def pair_corpus():
    """>= 70 randomized admissible pair-mode instances (supports of size
    <= 6, n <= 4), shared by the balance and round-trip criteria."""
    rng = random.Random(CORPUS_SEED)
    return [random_admissible_instance(rng, rng.randint(1, 4)) for _ in range(70)]


def test_criterion_1_worked_instance_exact():
    started = time.perf_counter()
    mu = construct_measure(two_label_spec())
    elapsed = time.perf_counter() - started
    ok = (
        mu.neighbor_dist[1] == {A: F(1, 2), B: F(1, 2)}
        and mu.neighbor_dist[2] == {D: F(1, 2), A: F(1, 2)}
        and mu.root_dist == {1: F(3, 8), 2: F(5, 8)}
        and elapsed < 1.0
    )
    report("1", ok, f"exact class weights and root weights in {elapsed:.3f}s")
    assert ok


def test_criterion_2a_midpoint_byte_identical():
    constructed = construct_measure(two_label_spec())
    assembled = assemble_measure(
        two_label_template(), two_label_weights(F(1, 2), F(1, 2))
    )
    bytes_a = ff.measure_json(constructed).encode()
    bytes_b = ff.measure_json(assembled).encode()
    ok = bytes_a == bytes_b
    report("2a", ok, f"midpoint parametrization emits {len(bytes_a)} identical bytes")
    assert ok


def test_criterion_2b_recorded_closed_forms():
    # Recorded reference targets for the parametrized family:
    #   law(1,1)(0,1) = 3s/(4-s)      law(2,1)(2,0) = 2s/(3-s)
    #   law(2,2)(0,2) = 2t/(2-t)      root(1)       = (3-3s)/(6-4s)
    # The first is correct; the other three contradict exact detailed
    # balance except at s = t = 1/2 (and the pinned corrected forms in
    # test_parametrizer.py), so this criterion cannot pass as recorded.
    rng = random.Random(CORPUS_SEED)
    mismatches = []
    for _ in range(10):
        s, t = random_fraction(rng), random_fraction(rng)
        mu = assemble_measure(two_label_template(), two_label_weights(s, t))
        nu = mu.descendants
        targets = [
            ("law(1,1)(0,1)", nu.offspring[(1, 1)][(0, 1)], 3 * s / (4 - s)),
            ("law(2,1)(2,0)", nu.offspring[(2, 1)][(2, 0)], 2 * s / (3 - s)),
            ("law(2,2)(0,2)", nu.offspring[(2, 2)][(0, 2)], 2 * t / (2 - t)),
            ("root(1)", mu.root_dist[1], (3 - 3 * s) / (6 - 4 * s)),
        ]
        for name, got, want in targets:
            if got != want:
                mismatches.append((name, s, t, got, want))
    ok = not mismatches
    report(
        "2b",
        ok,
        f"{len(mismatches)} mismatches against the recorded closed forms "
        "(known discrepancy; corrected forms hold, see test_parametrizer)",
    )
    assert ok, mismatches[:4]


def test_criterion_3_exact_balance_everywhere(pair_corpus):
    started = time.perf_counter()
    checked = 0

    def must_balance(measure):
        nonlocal checked
        assert verify_reversibility(measure) == []
        assert balance_violations(measure) == []
        checked += 1

    for template, weights in pair_corpus:
        assembled = assemble_measure(template, weights)
        must_balance(assembled)  # parametrizer output
        must_balance(construct_measure(assembled.descendants))  # constructor output

    rng = random.Random(CORPUS_SEED + 1)
    for _ in range(20):
        must_balance(construct_plain_measure(random_plain_spec(rng, rng.randint(1, 4))))

    for edges in (
        [(0, 1), (1, 2), (0, 2)],
        [(0, 1), (1, 2)],
        [(1, 0), (1, 2), (1, 3)],
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
    ):
        g = FiniteGraph.from_edges(edges)
        must_balance(lift_measure(g, label_vertices(g)))
    for _ in range(6):
        g = FiniteGraph.from_edges(random_connected_graph(rng))
        must_balance(lift_measure(g, label_vertices(g)))

    elapsed = time.perf_counter() - started
    ok = checked >= 100 and elapsed < 60.0
    report("3", ok, f"{checked} measures balanced exactly in {elapsed:.1f}s")
    assert ok


def test_criterion_4_round_trip(pair_corpus):
    for template, weights in pair_corpus:
        mu = assemble_measure(template, weights)
        rebuilt = construct_measure(mu.descendants)
        template2, weights2 = template_of_measure(rebuilt)
        assert rebuilt.root_dist == mu.root_dist
        assert template2.classes == template.classes
        assert weights2 == weights
        assert rebuilt.descendants.offspring == mu.descendants.offspring
    report("4", True, f"{len(pair_corpus)} exact round trips")


def test_criterion_5_single_type_degree_shift():
    rng = random.Random(CORPUS_SEED + 2)
    for _ in range(10):
        law = random_single_type_law(rng)
        spec = GWSpec(
            n=1, mode=PAIR, offspring={(1, 1): {(k,): p for k, p in law.items()}}
        )
        mu = construct_measure(spec)
        assert mu.neighbor_dist[1] == {(k + 1,): p for k, p in law.items()}
        assert verify_reversibility(mu) == []
    report("5", True, "10 single-type laws shift degrees by one, exactly")


def test_criterion_6_plain_regime():
    # derive the forced third row from the cycle identity plus normalization
    p12, p13 = F(1, 3), F(1, 3)
    p21, p23 = F(1, 2), F(1, 2)
    p31 = p21 * p13 / (p12 * p23 + p21 * p13)
    p32 = 1 - p31
    assert (p31, p32) == (F(1, 2), F(1, 2))

    pspec = three_label_plain(p31=p31, p32=p32)
    assert run_plain_checks(pspec).cycles is True
    mu = construct_plain_measure(pspec)
    assert mu.root_dist == {1: F(3, 7), 2: F(2, 7), 3: F(2, 7)}
    for i in (1, 2, 3):
        assert degrees(mu.neighbor_dist[i]) == {
            d + 1 for d in degrees(mu.descendants.offspring[i])
        }

    # non-multinomial inputs carry the right diagnostic
    from gwrev.core import PLAIN

    bad = GWSpec(n=2, mode=PLAIN, offspring={
        1: {(2, 0): F(1, 2), (0, 2): F(1, 2)},
        2: {(1, 0): F(1)},
    })
    try:
        extract_plain_spec(bad)
        rejected = False
    except NotMultinomialError as err:
        rejected = err.witness == (1, 2, (0, 2))
    assert rejected
    report("6", True, "forced row (1/2, 1/2), roots (3/7, 2/7, 2/7), shift holds")


def test_criterion_7_negative_suite():
    spec = two_label_spec()

    broken_i = break_condition_i(spec)
    report_i = run_checks(broken_i)
    assert "condition_i" in report_i.failed_names()
    assert report_i.condition_i_counterexample == (1, 1, 2, (1, 1))
    with pytest.raises(ChecksFailedError):
        construct_measure(broken_i)

    broken_ii = break_condition_ii(spec)
    report_ii = run_checks(broken_ii)
    assert "condition_ii" in report_ii.failed_names()
    cycle = report_ii.violating_cycle
    assert cycle is not None and cycle[0] == cycle[-1]
    product = cycle_product(build_balance_graph(broken_ii), cycle)
    assert product != 1
    with pytest.raises(ChecksFailedError):
        construct_measure(broken_ii)
    report("7", True, f"both rejections named; replayed cycle product {product}")


def test_criterion_8_monte_carlo():
    started = time.perf_counter()
    mu = construct_measure(two_label_spec())
    trials = 100000
    fwd, bwd = estimate_flow(
        mu, SupportClass(1, A), SupportClass(2, A), trials=trials, seed=MC_SEED
    )
    assert fwd.exact == F(3, 32) and bwd.exact == F(3, 32)
    assert fwd.within(4.0) and bwd.within(4.0)

    sent, received = mass_transport_check(mu, 1, 2, trials=trials, seed=MC_SEED)
    assert sent.exact == received.exact  # exact agreement of the references
    assert sent.within(4.0) and received.within(4.0)
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report(
        "8",
        ok,
        f"flows {fwd.empirical_mean:.5f}/{bwd.empirical_mean:.5f} vs 3/32, "
        f"transport {sent.empirical_mean:.5f}/{received.empirical_mean:.5f} "
        f"vs {sent.exact}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_graph_lifts():
    named = {
        "triangle": [(0, 1), (1, 2), (0, 2)],
        "path": [(0, 1), (1, 2)],
        "star": [(1, 0), (1, 2), (1, 3)],
        "biclique": [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
    }
    for name, edges in named.items():
        g = FiniteGraph.from_edges(edges)
        mu = lift_measure(g, label_vertices(g))
        assert verify_reversibility(mu) == [], name
        assert balance_violations(mu) == [], name
    star = FiniteGraph.from_edges(named["star"])
    mu = lift_measure(star, label_vertices(star))
    assert mu.root_dist == {1: F(1, 2), 2: F(1, 2)}
    report("9", True, "triangle, path, star, biclique lift to exact balance")
