import random
import tracemalloc
from fractions import Fraction as F

import pytest

from gwrev.checker import run_checks
from gwrev.cli import main
from gwrev.constructor import verify_reversibility
from gwrev.covers import (
    FiniteGraph,
    GraphTooLargeError,
    IllDefinedLabelingError,
    label_vertices,
    lift_measure,
    load_graph,
    pair_digraph,
    rooted_isomorphic,
)

from .oracles import balance_violations, random_connected_graph

TRIANGLE = [(0, 1), (1, 2), (0, 2)]
P3 = [(0, 1), (1, 2)]
STAR = [(1, 0), (1, 2), (1, 3)]  # center is vertex 1, so leaves are label 1
K23 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]


def graph(edges):
    return FiniteGraph.from_edges(edges)


# ---------------------------------------------------------------------------
# Labeling
# ---------------------------------------------------------------------------

def test_triangle_single_class():
    labels = label_vertices(graph(TRIANGLE))
    assert set(labels.values()) == {1}


def test_star_center_differs_from_leaves():
    labels = label_vertices(graph(STAR))
    assert labels[0] == labels[2] == labels[3] == 1
    assert labels[1] == 2


def test_path_endpoints_share_a_class():
    labels = label_vertices(graph(P3))
    assert labels[0] == labels[2] == 1
    assert labels[1] == 2


def test_labeling_is_isomorphism_invariant():
    rng = random.Random(13)
    for _ in range(8):
        edges = random_connected_graph(rng)
        g = graph(edges)
        labels = label_vertices(g)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        permuted = FiniteGraph.from_edges(
            [(perm[u], perm[v]) for (u, v) in edges],
            vertex_count=g.vertex_count,
        )
        relabels = label_vertices(permuted)
        # same partition up to renaming of label ids
        partition = {}
        for v in range(g.vertex_count):
            partition.setdefault(labels[v], set()).add(perm[v])
        repartition = {}
        for v in range(g.vertex_count):
            repartition.setdefault(relabels[v], set()).add(v)
        assert sorted(map(sorted, partition.values())) == sorted(
            map(sorted, repartition.values())
        )


def test_rooted_isomorphic_basics():
    g = graph(P3)
    assert rooted_isomorphic(g, 0, 2)
    assert not rooted_isomorphic(g, 0, 1)


def test_graph_too_large():
    path11 = [(k, k + 1) for k in range(10)]
    with pytest.raises(GraphTooLargeError):
        label_vertices(graph(path11))
    assert len(set(label_vertices(graph(path11), max_vertices=11).values())) == 6


def test_large_vertex_id_is_rejected_without_allocating_per_id(capsys, tmp_path):
    # one edge to id 300000 declares 300001 vertices; only the three that
    # occur in an edge get adjacency, the rest are isolated
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 300000\n")
    g = load_graph(path)
    assert g.vertex_count == 300001
    assert g.neighbors(1) == [0, 300000] and g.neighbors(5) == [] and g.degree(5) == 0
    assert not g.connected()
    tracemalloc.start()
    try:
        code = main(["cover", str(path), str(tmp_path / "out.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "exceeds the bound 10" in capsys.readouterr().err
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# Pair digraph
# ---------------------------------------------------------------------------

def test_triangle_pair_digraph_self_loop():
    g = graph(TRIANGLE)
    digraph = pair_digraph(g, label_vertices(g))
    assert digraph.nodes == [(1, 1)]
    assert digraph.multiplicity == {((1, 1), (1, 1)): 1}


def test_star_pair_digraph():
    g = graph(STAR)
    digraph = pair_digraph(g, label_vertices(g))
    assert digraph.nodes == [(1, 2), (2, 1)]
    # the center entered from a leaf branches into the two other leaves;
    # a leaf entered from the center is a dead end
    assert digraph.multiplicity == {((1, 2), (2, 1)): 2}


def test_path_pair_digraph():
    g = graph(P3)
    digraph = pair_digraph(g, label_vertices(g))
    assert digraph.multiplicity == {((1, 2), (2, 1)): 1}
    assert (2, 1) in digraph.nodes


def test_outgoing_multiplicity_is_degree_minus_one():
    rng = random.Random(29)
    for _ in range(8):
        g = graph(random_connected_graph(rng))
        labels = label_vertices(g)
        digraph = pair_digraph(g, labels)
        degree_of_label = {labels[v]: g.degree(v) for v in range(g.vertex_count)}
        outgoing = {}
        for ((src, dst), m) in digraph.multiplicity.items():
            outgoing[src] = outgoing.get(src, 0) + m
        for (j, i) in digraph.nodes:
            assert outgoing.get((j, i), 0) == degree_of_label[i] - 1


def test_ill_defined_labeling_rejected():
    # the all-ones labeling of the path collapses distinct neighborhoods
    g = graph(P3)
    with pytest.raises(IllDefinedLabelingError):
        pair_digraph(g, {0: 1, 1: 1, 2: 1})
    with pytest.raises(IllDefinedLabelingError):
        lift_measure(g, {0: 1, 1: 1, 2: 1})


def test_dot_export_mentions_multiplicity():
    g = graph(STAR)
    dot = pair_digraph(g, label_vertices(g)).to_dot()
    assert dot.startswith("digraph")
    assert 'label="2"' in dot


# ---------------------------------------------------------------------------
# Lifted measures
# ---------------------------------------------------------------------------

def test_star_lift():
    g = graph(STAR)
    mu = lift_measure(g, label_vertices(g))
    assert mu.root_dist == {1: F(1, 2), 2: F(1, 2)}
    assert mu.neighbor_dist[2] == {(3, 0): F(1)}
    assert mu.neighbor_dist[1] == {(0, 1): F(1)}
    # a leaf entered from the center has no children at all
    assert mu.descendants.offspring[(2, 1)] == {(0, 0): F(1)}
    assert verify_reversibility(mu) == []


def test_triangle_lift():
    g = graph(TRIANGLE)
    mu = lift_measure(g, label_vertices(g))
    assert mu.root_dist == {1: F(1)}
    assert mu.neighbor_dist[1] == {(2,): F(1)}
    assert verify_reversibility(mu) == []


def test_k23_lift_balances_degree_mass():
    g = graph(K23)
    mu = lift_measure(g, label_vertices(g))
    assert sorted(mu.root_dist.values()) == [F(1, 2), F(1, 2)]
    assert verify_reversibility(mu) == []


def test_lifts_pass_existence_conditions():
    for edges in (TRIANGLE, P3, STAR, K23):
        g = graph(edges)
        mu = lift_measure(g, label_vertices(g))
        report = run_checks(mu.descendants)
        assert report.condition_i, edges
        assert report.condition_ii is True, edges
        assert report.connected_support is True, edges
        assert balance_violations(mu) == []


def test_random_graph_lifts_are_reversible():
    rng = random.Random(41)
    for _ in range(10):
        g = graph(random_connected_graph(rng))
        mu = lift_measure(g, label_vertices(g))
        assert verify_reversibility(mu) == []
        assert balance_violations(mu) == []


def test_load_graph(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a star\n1 0\n1 2\n\n1 3\n")
    g = load_graph(path)
    assert g.vertex_count == 4
    assert g.degree(1) == 3
