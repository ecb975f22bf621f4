"""Deterministic instances lifted from small graphs.

Vertices of a finite connected graph are labeled by rooted-isomorphism
class; the degree-biased uniform measure on vertices lifts to a reversible
measure on rooted trees of non-backtracking paths.  The descendant laws are
point masses, so every check is decidable by inspection.
"""

from gwrev import (
    FiniteGraph,
    label_vertices,
    lift_measure,
    pair_digraph,
    run_checks,
    verify_reversibility,
)

GRAPHS = {
    "triangle": [(0, 1), (1, 2), (0, 2)],
    "path on three vertices": [(0, 1), (1, 2)],
    "star with three leaves": [(1, 0), (1, 2), (1, 3)],
    "complete bipartite 2x3": [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
}

for name, edges in GRAPHS.items():
    graph = FiniteGraph.from_edges(edges)
    labels = label_vertices(graph)
    measure = lift_measure(graph, labels)
    report = run_checks(measure.descendants)
    print(f"{name}")
    print(f"  labels by vertex: {[labels[v] for v in sorted(labels)]}")
    print(f"  root-label weights: {measure.root_dist}")
    print(f"  balance violations: {len(verify_reversibility(measure))}")
    print(f"  support closure: {report.condition_i}, "
          f"cycles: {report.condition_ii}, "
          f"pair types strongly connected: {report.strongly_connected}")
    # tree-shaped graphs have leaf classes, so some pair type is a sink and
    # strong connectivity fails even though the lift is exactly reversible
    print()

print("pair digraph of the star, in DOT form:")
graph = FiniteGraph.from_edges(GRAPHS["star with three leaves"])
print(pair_digraph(lift_measure(graph, label_vertices(graph))).to_dot())
