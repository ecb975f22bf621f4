"""Deterministic instances lifted from finite graphs.

Vertices of a finite connected simple graph are labeled by their
rooted-isomorphism class (two vertices share a label exactly when some
automorphism maps one to the other).  The degree-biased uniform measure on
the vertices then lifts to a reversible measure on rooted trees of
non-backtracking paths, whose descendant laws are deterministic: a vertex
that entered from a j-labeled neighbor branches into its remaining
neighbors' labels, always the same way.

These lifts double as golden inputs for the exact pipeline: point-mass laws
make every check trivially decidable by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import (
    GWSpec,
    GwrevError,
    PAIR,
    PairKey,
    RootMeasure,
    Vector,
    bfs_forest,
)


class GraphTooLargeError(GwrevError):
    """The exhaustive labeling is only meant for desk-scale graphs."""


class IllDefinedLabelingError(GwrevError):
    """Same-labeled vertices disagree on their neighborhood label counts."""


@dataclass
class FiniteGraph:
    """Undirected simple graph on vertices 0 .. vertex_count-1."""

    vertex_count: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for (u, v) in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            if u == v:
                raise ValueError(f"self-loop at {u} not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        self.edges = tuple(sorted(seen))
        # only the vertices of some edge: a large isolated id costs nothing
        adj: Dict[int, List[int]] = {}
        for (u, v) in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        self._adj = {v: sorted(ws) for v, ws in adj.items()}

    @classmethod
    def from_edges(cls, edges, vertex_count: Optional[int] = None) -> "FiniteGraph":
        edges = [(int(u), int(v)) for (u, v) in edges]
        if vertex_count is None:
            vertex_count = 1 + max(max(e) for e in edges) if edges else 1
        return cls(vertex_count=vertex_count, edges=tuple(edges))

    def neighbors(self, v: int) -> List[int]:
        return self._adj.get(v, [])

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def connected(self) -> bool:
        if self.vertex_count == 0:
            return False
        return len(bfs_forest([0], self.neighbors)[0]) == self.vertex_count


def load_graph(path) -> FiniteGraph:
    """Read an undirected edge list: one `u v` pair per line, `#` comments."""
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line: {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    return FiniteGraph.from_edges(edges)


# ---------------------------------------------------------------------------
# Rooted-isomorphism labeling
# ---------------------------------------------------------------------------

def rooted_isomorphic(graph: FiniteGraph, x: int, y: int) -> bool:
    """Is there an automorphism of the graph mapping x to y?

    Exhaustive backtracking over vertex images, pruned by degree and by
    adjacency to already-placed vertices.
    """
    if graph.degree(x) != graph.degree(y):
        return False
    # breadth-first from x, then any disconnected leftovers
    order, _ = bfs_forest([x, *range(graph.vertex_count)], graph.neighbors)
    # neighbour lists fetched once: the search below tests them many times
    adj = [graph.neighbors(v) for v in range(graph.vertex_count)]
    degree = [len(a) for a in adj]
    image: Dict[int, int] = {}
    used = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for w in range(graph.vertex_count):
            if w in used or degree[w] != degree[v]:
                continue
            if v == x and w != y:
                continue
            ok = True
            for u in adj[v]:
                if u in image and image[u] not in adj[w]:
                    ok = False
                    break
            if ok:
                # non-neighbors must stay non-neighbors
                for u, wu in image.items():
                    if u not in adj[v] and wu in adj[w]:
                        ok = False
                        break
            if ok:
                image[v] = w
                used.add(w)
                if extend(k + 1):
                    return True
                del image[v]
                used.remove(w)
        return False

    return extend(0)


def label_vertices(graph: FiniteGraph, max_vertices: int = 10) -> Dict[int, int]:
    """Partition the vertices into rooted-isomorphism classes.

    Labels are 1..n in order of first appearance over the vertex numbering.
    """
    if graph.vertex_count > max_vertices:
        raise GraphTooLargeError(
            f"{graph.vertex_count} vertices exceeds the bound {max_vertices}"
        )
    if not graph.connected():
        raise ValueError("graph must be connected")
    labels: Dict[int, int] = {}
    reps: List[int] = []
    for v in range(graph.vertex_count):
        for rep in reps:
            if rooted_isomorphic(graph, rep, v):
                labels[v] = labels[rep]
                break
        else:
            reps.append(v)
            labels[v] = len(reps)
    return labels


# ---------------------------------------------------------------------------
# Pair digraph and measure lift
# ---------------------------------------------------------------------------

def _neighbor_counts(graph: FiniteGraph, labels: Dict[int, int], v: int, n: int) -> Vector:
    counts = [0] * n
    for w in graph.neighbors(v):
        counts[labels[w] - 1] += 1
    return tuple(counts)


@dataclass
class PairDigraph:
    """Directed multigraph on realized (parent label, own label) pairs."""

    nodes: List[PairKey]
    multiplicity: Dict[Tuple[PairKey, PairKey], int]

    def to_dot(self) -> str:
        lines = ["digraph pairs {"]
        for (i, j) in self.nodes:
            lines.append(f'  "{i},{j}";')
        for ((src, dst), m) in sorted(self.multiplicity.items()):
            lines.append(
                f'  "{src[0]},{src[1]}" -> "{dst[0]},{dst[1]}" [label="{m}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def pair_digraph(graph: FiniteGraph, labels: Dict[int, int]) -> PairDigraph:
    """Build the directed pair-label graph.

    Node (j, i) stands for "an i vertex entered from a j neighbor"; it sends
    m edges to (i, k) when such a vertex has m other neighbors labeled k.
    All realizations of (j, i) must agree on those counts.
    """
    n = max(labels.values())
    rest_of: Dict[PairKey, Vector] = {}
    for v in range(graph.vertex_count):
        i = labels[v]
        counts = _neighbor_counts(graph, labels, v, n)
        for j in sorted({labels[w] for w in graph.neighbors(v)}):
            rest = counts[: j - 1] + (counts[j - 1] - 1,) + counts[j:]
            key = (j, i)
            if key in rest_of and rest_of[key] != rest:
                raise IllDefinedLabelingError(
                    f"vertices of pair {key} disagree on their remaining "
                    f"neighbor counts: {rest_of[key]} vs {rest}"
                )
            rest_of[key] = rest
    nodes = sorted(rest_of)
    multiplicity = {}
    for (j, i), rest in rest_of.items():
        for k, m in enumerate(rest, start=1):
            if m > 0:
                multiplicity[((j, i), (i, k))] = m
    return PairDigraph(nodes=nodes, multiplicity=multiplicity)


def lift_measure(graph: FiniteGraph, labels: Dict[int, int]) -> RootMeasure:
    """Lift the degree-biased uniform vertex measure to rooted trees.

    The root label is i with probability proportional to the total degree of
    the i-labeled vertices; given that, the neighbor vector is the common
    neighbor-count vector of those vertices; every descendant law is a point
    mass on the remaining-neighbor counts of its pair type.
    """
    if not graph.connected():
        raise ValueError("graph must be connected")
    n = max(labels.values())

    class_counts: Dict[int, Vector] = {}
    degree_mass: Dict[int, int] = {i: 0 for i in range(1, n + 1)}
    for v in range(graph.vertex_count):
        i = labels[v]
        counts = _neighbor_counts(graph, labels, v, n)
        if i in class_counts and class_counts[i] != counts:
            raise IllDefinedLabelingError(
                f"label {i} vertices disagree on neighbor counts: "
                f"{class_counts[i]} vs {counts}"
            )
        class_counts[i] = counts
        degree_mass[i] += graph.degree(v)

    digraph = pair_digraph(graph, labels)
    offspring = {}
    for (j, i) in digraph.nodes:
        counts = class_counts[i]
        rest = counts[: j - 1] + (counts[j - 1] - 1,) + counts[j:]
        offspring[(j, i)] = {rest: Fraction(1)}

    grand = sum(degree_mass.values())
    return RootMeasure(
        n=n,
        root_dist={i: Fraction(degree_mass[i], grand) for i in range(1, n + 1)},
        neighbor_dist={i: {class_counts[i]: Fraction(1)} for i in range(1, n + 1)},
        descendants=GWSpec(n=n, mode=PAIR, offspring=offspring),
    )
