import random
from fractions import Fraction as F

from gwrev.checker import (
    build_balance_graph,
    check_condition_i,
    check_condition_ii,
    check_strong_connectivity,
    cycle_product,
    labels_realized,
    propagate_potentials,
    run_checks,
)
from gwrev.core import GWSpec, PAIR, SupportClass
from gwrev.parametrizer import assemble_measure

from .conftest import A, B, D, break_condition_i, break_condition_ii
from .oracles import (
    cycle_identity_product,
    enumerate_closed_walks,
    random_admissible_instance,
    random_closed_walks,
    strongly_connected_bruteforce,
)


# ---------------------------------------------------------------------------
# Strong connectivity
# ---------------------------------------------------------------------------

def test_strong_connectivity_on_worked_instance(pair_spec):
    ok, witness = check_strong_connectivity(pair_spec)
    assert ok and witness is None
    assert strongly_connected_bruteforce(pair_spec)


def test_strong_connectivity_single_self_loop():
    spec = GWSpec(n=2, mode=PAIR, offspring={(1, 1): {(1, 0): F(1)}})
    ok, witness = check_strong_connectivity(spec)
    assert ok and witness is None
    # but label 2 is globally absent, so the full pipeline must reject
    realized, missing = labels_realized(spec)
    assert not realized and missing == 2
    assert not run_checks(spec).ok()
    assert "labels_realized" in run_checks(spec).failed_names()


def test_strong_connectivity_two_components():
    spec = GWSpec(n=2, mode=PAIR, offspring={
        (1, 1): {(1, 0): F(1)},
        (2, 2): {(0, 1): F(1)},
    })
    ok, witness = check_strong_connectivity(spec)
    assert not ok
    assert witness == ((1, 1), (2, 2))
    assert not strongly_connected_bruteforce(spec)


# ---------------------------------------------------------------------------
# Condition i
# ---------------------------------------------------------------------------

def test_condition_i_on_worked_instance(pair_spec):
    ok, counterexample = check_condition_i(pair_spec)
    assert ok and counterexample is None


def test_condition_i_counterexample(pair_spec):
    broken = break_condition_i(pair_spec)
    ok, counterexample = check_condition_i(broken)
    assert not ok
    assert counterexample == (1, 1, 2, (1, 1))


def test_condition_i_point_masses_pass():
    spec = GWSpec(n=1, mode=PAIR, offspring={(1, 1): {(2,): F(1)}})
    ok, _ = check_condition_i(spec)
    assert ok


# ---------------------------------------------------------------------------
# Balance graph
# ---------------------------------------------------------------------------

def test_balance_graph_nodes_and_edges(pair_spec):
    graph = build_balance_graph(pair_spec)
    assert graph.nodes == [
        SupportClass(1, A),
        SupportClass(1, B),
        SupportClass(2, D),
        SupportClass(2, A),
    ]
    edges = graph.edges()
    assert (SupportClass(1, A), SupportClass(1, B)) in edges
    assert (SupportClass(1, A), SupportClass(2, A)) in edges
    assert (SupportClass(1, B), SupportClass(2, A)) in edges
    assert (SupportClass(2, D), SupportClass(2, A)) in edges or (
        SupportClass(2, A), SupportClass(2, D)) in edges
    # the (0, 3) class has no label-1 slot, so no edge to label-1 classes
    assert not any(
        {u, v} == {SupportClass(1, A), SupportClass(2, D)} for (u, v) in edges
    )
    assert len(edges) == 4


def test_balance_graph_single_type_ratio():
    spec = GWSpec(n=1, mode=PAIR, offspring={
        (1, 1): {(1,): F(1, 2), (2,): F(1, 2)},
    })
    graph = build_balance_graph(spec)
    assert graph.nodes == [SupportClass(1, (2,)), SupportClass(1, (3,))]
    assert graph.ratio[(SupportClass(1, (2,)), SupportClass(1, (3,)))] == F(
        F(1, 2) * 3 * 2, F(1, 2) * 2 * 3
    )
    assert len(graph.edges()) == 1


def test_balance_graph_connected_for_worked_instance(pair_spec):
    graph = build_balance_graph(pair_spec)
    assert len(graph.components()) == 1


def test_edge_ratio_antisymmetry(pair_spec):
    graph = build_balance_graph(pair_spec)
    for (u, v) in graph.edges():
        assert graph.ratio[(u, v)] * graph.ratio[(v, u)] == 1


# ---------------------------------------------------------------------------
# Condition ii
# ---------------------------------------------------------------------------

def test_condition_ii_on_worked_instance(pair_spec):
    ok, cycle = check_condition_ii(pair_spec)
    assert ok and cycle is None


def test_condition_ii_violating_cycle(pair_spec):
    broken = break_condition_ii(pair_spec)
    ok, cycle = check_condition_ii(broken)
    assert not ok
    assert cycle[0] == cycle[-1]
    graph = build_balance_graph(broken)
    assert cycle_product(graph, cycle) != 1
    # the ratio-form transcription agrees that the cycle is unbalanced
    walk = [(cls.label, cls.vector) for cls in cycle]
    assert cycle_identity_product(broken, walk) != 1
    # both classes of label 1 take part, as forced by the flattened law
    labels_on_cycle = {cls for cls in cycle}
    assert SupportClass(1, A) in labels_on_cycle
    assert SupportClass(1, B) in labels_on_cycle


def test_condition_ii_tree_graph_vacuous():
    # two point-mass laws give a two-node balance graph with one edge
    spec = GWSpec(n=2, mode=PAIR, offspring={
        (1, 2): {(1, 0): F(1)},
        (2, 1): {(0, 1): F(1)},
    })
    graph = build_balance_graph(spec)
    assert len(graph.edges()) == len(graph.nodes) - 1
    assert check_condition_ii(spec) == (True, None)
    assert propagate_potentials(graph)[1] is None


def test_condition_ii_invariant_under_entry_reordering(pair_spec):
    reordered = GWSpec(
        n=2,
        mode=PAIR,
        offspring={
            key: dict(sorted(dist.items(), reverse=True))
            for key, dist in reversed(list(pair_spec.offspring.items()))
        },
    )
    assert check_condition_ii(reordered) == check_condition_ii(pair_spec)


def test_worked_instance_specific_cycle_balances(pair_spec):
    # the alternating four-step walk through (1,A), (2,A), (2,A), (1,B)
    graph = build_balance_graph(pair_spec)
    walk = [
        SupportClass(1, A),
        SupportClass(2, A),
        SupportClass(2, A),
        SupportClass(1, B),
        SupportClass(1, A),
    ]
    assert cycle_product(graph, walk) == 1
    assert cycle_identity_product(
        pair_spec, [(cls.label, cls.vector) for cls in walk]
    ) == 1


# ---------------------------------------------------------------------------
# Properties over randomized accepted specs
# ---------------------------------------------------------------------------

def test_every_cycle_balances_on_accepted_specs():
    rng = random.Random(20110)
    for _ in range(25):
        template, weights = random_admissible_instance(rng, rng.randint(1, 4))
        spec = assemble_measure(template, weights).descendants
        report = run_checks(spec)
        assert report.ok(), report.failed_names()
        graph = build_balance_graph(spec)
        for walk in random_closed_walks(graph.nodes, rng, 12):
            assert cycle_product(graph, walk) == 1
            assert cycle_identity_product(
                spec, [(cls.label, cls.vector) for cls in walk]
            ) == 1
        for (u, v) in graph.edges():
            assert graph.ratio[(u, v)] * graph.ratio[(v, u)] == 1


def test_exhaustive_short_cycles_on_worked_instance(pair_spec):
    graph = build_balance_graph(pair_spec)
    walks = enumerate_closed_walks(
        [(cls.label, cls.vector) for cls in graph.nodes], max_len=5
    )
    assert walks, "expected at least one closed walk"
    for walk in walks:
        assert cycle_identity_product(pair_spec, walk) == 1


def test_potentials_match_worked_instance(pair_spec):
    graph = build_balance_graph(pair_spec)
    potentials, cycle = propagate_potentials(graph)
    assert cycle is None
    # relative weights within each label are equal
    assert potentials[SupportClass(1, A)] == potentials[SupportClass(1, B)]
    assert potentials[SupportClass(2, D)] == potentials[SupportClass(2, A)]
