import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from gwrev.checker import run_checks
from gwrev.cli import main
from gwrev.constructor import verify_reversibility
from gwrev.core import GWSpec, PAIR, RootMeasure
from gwrev.covers import (
    FiniteGraph,
    GraphTooLargeError,
    IllDefinedLabelingError,
    label_vertices,
    lift_measure,
    load_graph,
    pair_digraph,
)

from .oracles import (
    backtracking_label_vertices,
    backtracking_rooted_isomorphic,
    balance_violations,
    graph_pair_digraph,
    permute_measure,
    random_circulant,
    random_connected_graph,
    random_cubic_graph,
)

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


def test_lift_is_renumbering_invariant():
    """Renumbering the vertices by sigma renames the labels by the
    permutation sigma induces, and the lift by the same permutation."""
    rng = random.Random(17)
    for _ in range(40):
        edges = random_connected_graph(rng, 9)
        g = graph(edges)
        labels = label_vertices(g)
        sigma = list(range(g.vertex_count))
        rng.shuffle(sigma)
        renumbered = FiniteGraph.from_edges(
            [(sigma[u], sigma[v]) for (u, v) in edges], vertex_count=g.vertex_count
        )
        relabels = label_vertices(renumbered)
        tau = {}
        for v in range(g.vertex_count):
            assert tau.setdefault(labels[v], relabels[sigma[v]]) == relabels[sigma[v]]
        assert sorted(tau.values()) == sorted(tau)
        assert lift_measure(renumbered, relabels) == permute_measure(lift_measure(g, labels), tau)


def test_rooted_isomorphic_basics():
    labels = label_vertices(graph(P3))
    assert labels[0] == labels[2]
    assert labels[0] != labels[1]


# ---------------------------------------------------------------------------
# Orbits against the backtracking search
# ---------------------------------------------------------------------------

def petersen():
    return ([(k, (k + 1) % 5) for k in range(5)] + [(k, k + 5) for k in range(5)]
            + [(5 + k, 5 + (k + 2) % 5) for k in range(5)])


def prism(m, twist=False):
    """Two m-cycles joined rung by rung, or the Moebius ladder when twisted."""
    edges = [(k, k + 1) for k in range(m - 1)] + [(m + k, m + k + 1) for k in range(m - 1)]
    edges += [(k, m + k) for k in range(m)]
    return edges + ([(m - 1, m), (0, 2 * m - 1)] if twist else [(m - 1, 0), (2 * m - 1, m)])


def complete_bipartite(m, n):
    return [(u, m + v) for u in range(m) for v in range(n)]


def hexagon_and_triangles():
    """Hubs 1 and 2 share neighbor 0; hub 1 also sees a hexagon, hub 2 two
    triangles.  Colour refinement cannot tell a hexagon from two triangles,
    so the hubs have equal traces but lie in different orbits."""
    rings = [(3 + k, 3 + (k + 1) % 6) for k in range(6)]
    rings += [(9 + k, 9 + (k + 1) % 3) for k in range(3)]
    rings += [(12 + k, 12 + (k + 1) % 3) for k in range(3)]
    return [(0, 1), (0, 2)] + [(1, v) for v in range(3, 9)] + [(2, v) for v in range(9, 15)] + rings


def hub_gadgets():
    """Two copies of `hexagon_and_triangles` with their shared neighbors
    joined, the second numbered with its triangle hub first.  Mapping one
    shared neighbor onto the other, the search first tries the hexagon hub
    on the triangle hub: the traces agree there, the branch fails deeper,
    and the search has to come back for the other hub."""
    first = hexagon_and_triangles()
    swap = {1: 2, 2: 1}
    second = [(15 + swap.get(u, u), 15 + swap.get(v, v)) for (u, v) in first]
    return first + second + [(0, 15)]


NAMED_GRAPHS = [
    petersen(),
    [(u, u ^ (1 << k)) for u in range(8) for k in range(3) if u < u ^ (1 << k)],  # Q3
    complete_bipartite(3, 3),
    complete_bipartite(4, 4),
    complete_bipartite(2, 5),
    complete_bipartite(1, 6),  # a star
    [(u, v) for u in range(5) for v in range(u + 1, 5)],  # K5
    prism(5),  # a ladder closed into a ring
    prism(4, twist=True),
    *[[(k, k + 1) for k in range(m - 1)] for m in range(2, 11)],  # paths
    *[[(k, (k + 1) % m) for k in range(m)] for m in range(3, 11)],  # cycles
]


def assert_orbits_match_the_oracle(edges, max_vertices=10):
    g = graph(edges)
    if not g.connected():
        with pytest.raises(ValueError, match="graph must be connected"):
            label_vertices(g, max_vertices)
        return
    labels = label_vertices(g, max_vertices)
    assert labels == backtracking_label_vertices(g, max_vertices)
    for x in range(g.vertex_count):
        for y in range(g.vertex_count):
            same = labels[x] == labels[y]
            assert same == backtracking_rooted_isomorphic(g, x, y), (x, y)


@pytest.mark.parametrize("edges", NAMED_GRAPHS)
def test_named_graph_orbits_match_the_backtracking_search(edges):
    assert_orbits_match_the_oracle(edges)


def test_equal_traces_in_different_orbits():
    edges = hexagon_and_triangles()
    assert_orbits_match_the_oracle(edges, max_vertices=15)
    labels = label_vertices(graph(edges), max_vertices=15)
    assert labels[1] != labels[2] and labels[3] != labels[9]
    assert len(set(labels.values())) == 5


def test_search_backtracks_past_an_image_with_an_equal_trace():
    g = graph(hub_gadgets())
    labels = label_vertices(g, max_vertices=30)
    assert labels == backtracking_label_vertices(g, max_vertices=30)
    assert (labels[0], labels[1], labels[2]) == (labels[15], labels[17], labels[16])
    assert labels[1] != labels[16]
    assert len(set(labels.values())) == 5


def test_search_is_exact_without_trace_pruning(monkeypatch):
    """With every trace blanked, the search tries every same-coloured image
    and only the edge-by-edge check at a discrete colouring decides."""
    from gwrev import covers

    refine = covers._refine
    monkeypatch.setattr(covers, "_refine", lambda adj, colour: (refine(adj, colour)[0], []))
    assert_orbits_match_the_oracle(hexagon_and_triangles(), max_vertices=15)
    rng = random.Random(67)
    for _ in range(60):
        assert_orbits_match_the_oracle(random_connected_graph(rng, 8))


def test_random_graph_orbits_match_the_backtracking_search():
    rng = random.Random(53)
    for _ in range(150):
        assert_orbits_match_the_oracle(random_connected_graph(rng, 10))


def test_circulant_orbits_match_the_backtracking_search():
    rng = random.Random(59)
    for _ in range(40):
        assert_orbits_match_the_oracle(random_circulant(rng), max_vertices=12)


def test_large_symmetric_cubic_graphs_are_one_orbit():
    for edges in (prism(12), prism(12, twist=True)):
        labels = label_vertices(graph(edges), max_vertices=24)
        assert set(labels.values()) == {1}


def test_cubic_graph_orbits_match_the_backtracking_search():
    rng = random.Random(61)
    for vertices in (16, 18, 20, 24):
        assert_orbits_match_the_oracle(random_cubic_graph(rng, vertices), max_vertices=24)


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


def test_vertex_id_beyond_the_digit_limit_is_refused_before_conversion(capsys, tmp_path):
    # converting a 300,000-digit id takes seconds, and the cap's message would
    # print it in full; ids are read under Python's default 4,300-digit limit
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 " + "9" * 300_000 + "\n")
    start = time.perf_counter()
    code = main(["cover", str(path), str(tmp_path / "out.json")])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "line 2" in captured.err and "4300 digits" in captured.err
    assert "set_int_max_str_digits" not in captured.err and len(captured.err) < 1000
    assert elapsed < 0.5, f"cover took {elapsed:.2f} s"
    assert not (tmp_path / "out.json").exists()
    # an id of 4,300 digits is read, and the vertex cap refuses the graph
    path.write_text("0 1\n1 " + "9" * 4300 + "\n")
    assert load_graph(path).vertex_count == 10**4300
    assert main(["cover", str(path), str(tmp_path / "out.json")]) == 2
    assert "exceeds the bound 10" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["1 2 " + "9" * 300_000, "1 " + "x" * 300_000])
def test_bad_edge_line_is_named_not_echoed(capsys, tmp_path, line):
    # a line of three fields, or an id that is not an integer, is named by
    # its number and a short prefix
    path = tmp_path / "g.txt"
    path.write_text("0 1\n" + line + "\n")
    assert main(["cover", str(path), str(tmp_path / "out.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "line 2: " in captured.err and len(captured.err) < 1000
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# Pair digraph
# ---------------------------------------------------------------------------

def lifted_digraph(g, labels=None):
    return pair_digraph(lift_measure(g, labels or label_vertices(g)))


def test_triangle_pair_digraph_self_loop():
    g = graph(TRIANGLE)
    digraph = lifted_digraph(g)
    assert digraph.nodes == [(1, 1)]
    assert digraph.multiplicity == {((1, 1), (1, 1)): 1}


def test_star_pair_digraph():
    g = graph(STAR)
    digraph = lifted_digraph(g)
    assert digraph.nodes == [(1, 2), (2, 1)]
    # the center entered from a leaf branches into the two other leaves;
    # a leaf entered from the center is a dead end
    assert digraph.multiplicity == {((1, 2), (2, 1)): 2}


def test_path_pair_digraph():
    g = graph(P3)
    digraph = lifted_digraph(g)
    assert digraph.multiplicity == {((1, 2), (2, 1)): 1}
    assert (2, 1) in digraph.nodes


def test_outgoing_multiplicity_is_degree_minus_one():
    rng = random.Random(29)
    for _ in range(8):
        g = graph(random_connected_graph(rng))
        labels = label_vertices(g)
        digraph = lifted_digraph(g, labels)
        degree_of_label = {labels[v]: g.degree(v) for v in range(g.vertex_count)}
        outgoing = {}
        for ((src, dst), m) in digraph.multiplicity.items():
            outgoing[src] = outgoing.get(src, 0) + m
        for (j, i) in digraph.nodes:
            assert outgoing.get((j, i), 0) == degree_of_label[i] - 1


def test_ill_defined_labeling_rejected():
    # the all-ones labeling of the path collapses distinct neighborhoods,
    # and so does one label for the star's center and a leaf; the lift,
    # which `pair_digraph` reads, refuses both
    with pytest.raises(IllDefinedLabelingError, match="label 1 vertices disagree"):
        lift_measure(graph(P3), {0: 1, 1: 1, 2: 1})
    with pytest.raises(IllDefinedLabelingError, match="label 1 vertices disagree"):
        lift_measure(graph(STAR), {0: 1, 1: 1, 2: 2, 3: 2})


@pytest.mark.parametrize("edges, message", [
    # numbered from 1: vertex 0 has no edge, and the refusal names it
    ([(1, 2), (2, 3)], "graph must be connected: vertex 0 has no edge "
                       "(vertices are numbered 0..3)"),
    ([(0, 1), (2, 3)], "graph must be connected"),
])
def test_lift_refuses_a_disconnected_graph(edges, message):
    # `cover` refuses these in `label_vertices` first; the lift refuses them
    # on its own
    g = graph(edges)
    with pytest.raises(ValueError) as err:
        lift_measure(g, {v: 1 for v in range(g.vertex_count)})
    assert str(err.value) == message


def test_pair_digraph_matches_the_graph_derivation():
    # the digraph read off the lift writes the DOT bytes of the derivation
    # from the graph and its labels
    rng = random.Random(43)
    graphs = [random_connected_graph(rng) for _ in range(40)]
    graphs += [random_cubic_graph(rng, 2 * rng.randint(2, 5)) for _ in range(20)]
    graphs += [random_circulant(rng, 10) for _ in range(40)]
    compared = 0
    for edges in graphs:
        g = graph(edges)
        if not g.connected():
            continue
        labels = label_vertices(g)
        assert lifted_digraph(g, labels).to_dot() == graph_pair_digraph(g, labels).to_dot()
        compared += 1
    assert compared > 80


def test_pair_digraph_refuses_a_law_that_is_not_a_point_mass():
    spec = GWSpec(n=1, mode=PAIR, offspring={(1, 1): {(1,): F(1, 2), (3,): F(1, 2)}})
    measure = RootMeasure(n=1, root_dist={1: F(1)}, neighbor_dist={1: {(2,): F(1)}},
                          descendants=spec)
    with pytest.raises(ValueError, match="not a point mass"):
        pair_digraph(measure)


def test_dot_export_mentions_multiplicity():
    g = graph(STAR)
    dot = lifted_digraph(g).to_dot()
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


@pytest.mark.parametrize("text", ["", "# only comments\n\n  # and blanks\n"])
def test_edgeless_graph_file_is_rejected(capsys, tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="graph has no edges"):
        load_graph(path)
    assert main(["cover", str(path), str(tmp_path / "out.json")]) == 2
    assert "graph has no edges" in capsys.readouterr().err


def test_load_graph(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a star\n1 0\n1 2\n\n1 3\n")
    g = load_graph(path)
    assert g.vertex_count == 4
    assert g.degree(1) == 3
