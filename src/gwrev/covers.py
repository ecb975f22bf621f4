"""Deterministic instances lifted from finite graphs.

Vertices of a finite connected simple graph are labeled by their
rooted-isomorphism class (two vertices share a label exactly when some
automorphism maps one to the other).  The classes are found by
individualization-refinement (McKay and Piperno, "Practical graph
isomorphism, II", 2014): canonical colour refinement separates vertices no
automorphism can exchange, the trace of refining after individualizing a
vertex is a further invariant, and a search between vertices with equal
traces finds automorphisms, each of which merges whole orbits.

The degree-biased uniform measure on the vertices then lifts to a
reversible measure on rooted trees of non-backtracking paths, whose
descendant laws are deterministic: a vertex that entered from a j-labeled
neighbor branches into its remaining neighbors' labels, always the same
way.

These lifts double as golden inputs for the exact pipeline: point-mass laws
make every check trivially decidable by hand.
"""

from __future__ import annotations

import functools
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
    decrement,
    normalize,
)
from .fileformats import int_limit


class GraphTooLargeError(GwrevError):
    """The graph has more vertices than the labeling's cap (`max_vertices`,
    10 by default, which stays the contract of `cover`)."""


class IllDefinedLabelingError(GwrevError):
    """Same-labeled vertices disagree on their neighborhood label counts."""


@dataclass
class FiniteGraph:
    """Undirected simple graph on vertices 0 .. vertex_count-1."""

    vertex_count: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("graph has no edges")
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
        return len(bfs_forest([0], self.neighbors)[0]) == self.vertex_count

    def isolated_note(self) -> str:
        """Names the smallest vertex with no edge, found from the ids that
        occur in edges, or "" when every vertex has one: an edge list
        numbered from 1 leaves vertex 0 without an edge."""
        ids = sorted(self._adj)
        v = next((k for k, x in enumerate(ids) if k != x), len(ids))
        if v == self.vertex_count:
            return ""
        return f": vertex {v} has no edge (vertices are numbered 0..{self.vertex_count - 1})"


def load_graph(path) -> FiniteGraph:
    """Read an undirected edge list: one `u v` pair per line, `#` comments.
    Vertex ids are converted under `fileformats.int_limit(4300)`, so an id
    of more than 4300 digits is malformed.  A refused line is named by its
    number and at most its first 40 characters."""
    edges = []
    with open(path) as fh, int_limit(4300):
        for number, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                u, v = line.split()
                edges.append((int(u), int(v)))
            except ValueError:
                shown = line if len(line) <= 40 else line[:40] + "..."
                raise ValueError(f"{path}: line {number}: bad edge line {shown!r}, not two "
                                 "integer vertex ids of at most 4300 digits") from None
    return FiniteGraph.from_edges(edges)


# ---------------------------------------------------------------------------
# Rooted-isomorphism labeling
# ---------------------------------------------------------------------------

def _refine(adj: List[List[int]], colour: List[int]) -> Tuple[List[int], list]:
    """Canonical colour refinement (1-WL) of a vertex colouring.

    Each round gives every vertex the signature (colour, sorted neighbour
    colours) and renames colours by the rank of their signature, never by
    the order of discovery, so an automorphism that maps one colouring onto
    another maps their refinements onto each other too.  Stops at the first
    round that splits no cell or leaves every cell a singleton.  Returns the
    colouring, with colours 0..cells-1, and the trace: each round's sorted
    signature list.  Equal traces are necessary for such an automorphism to
    exist.
    """
    cells = len(set(colour))
    trace = []
    while True:
        of = colour.__getitem__
        signatures = [(colour[v], tuple(sorted(map(of, ws)))) for v, ws in enumerate(adj)]
        ranked = sorted(signatures)
        trace.append(ranked)
        rank = {s: r for r, s in enumerate(dict.fromkeys(ranked))}
        colour = [rank[s] for s in signatures]
        if len(rank) in (cells, len(adj)):  # stable, or discrete and so stable
            return colour, trace
        cells = len(rank)


def _individualize(adj: List[List[int]], colour: List[int], v: int) -> Tuple[List[int], list]:
    """Give v a colour of its own, then refine."""
    colour = list(colour)
    colour[v] = len(adj)  # above every colour in use
    return _refine(adj, colour)


def _automorphism(adj, pairs, left: List[int], right: List[int]) -> Optional[List[int]]:
    """An automorphism mapping each left colour class onto the right class
    of the same colour, as the list of vertex images, or None.

    Both colourings are refined and have equal traces.  The first vertex of
    the first non-singleton left cell is individualized against every
    vertex of the same right cell, and the search recurses wherever the two
    refinements still have equal traces.  A discrete colouring leaves one
    candidate, checked edge by edge (`pairs` holds both orientations).
    """
    n = len(adj)
    if len(set(left)) == n:
        at = [0] * n
        for v, c in enumerate(right):
            at[c] = v
        sigma = [at[c] for c in left]
        if all((sigma[u], sigma[w]) in pairs for (u, w) in pairs):
            return sigma
        return None
    first: Dict[int, int] = {}
    for v, c in enumerate(left):
        if c in first:
            break
        first[c] = v
    sub, trace = _individualize(adj, left, first[c])
    for b, cb in enumerate(right):
        if cb == c:
            image, image_trace = _individualize(adj, right, b)
            if image_trace == trace:
                sigma = _automorphism(adj, pairs, sub, image)
                if sigma is not None:
                    return sigma
    return None


def _stable_colouring(graph: FiniteGraph):
    """Neighbour lists, the edges in both orientations, and the refinement
    of the degree colouring."""
    adj = [graph.neighbors(v) for v in range(graph.vertex_count)]
    pairs = {(u, w) for (u, w) in graph.edges} | {(w, u) for (u, w) in graph.edges}
    colour, _ = _refine(adj, [len(ws) for ws in adj])
    return adj, pairs, colour


def label_vertices(graph: FiniteGraph, max_vertices: int = 10) -> Dict[int, int]:
    """Partition the vertices into rooted-isomorphism classes (automorphism
    orbits) by individualization-refinement.

    One refinement of the whole graph separates vertices that no
    automorphism can exchange.  A vertex in a non-singleton cell is
    individualized and refined once, when first compared.  The search runs
    only between an orbit's representative (its smallest vertex) and a
    vertex with an equal trace, and every automorphism it finds merges u
    with its image for all u.  Labels are 1..n in order of first appearance
    over the vertex numbering.
    """
    if graph.vertex_count > max_vertices:
        raise GraphTooLargeError(
            f"{graph.vertex_count} vertices exceeds the bound {max_vertices}"
            + graph.isolated_note()
        )
    if not graph.connected():
        raise ValueError("graph must be connected" + graph.isolated_note())
    adj, pairs, colour = _stable_colouring(graph)
    # refined once per vertex, on its first comparison
    individualized = functools.cache(lambda v: _individualize(adj, colour, v))

    # union-find over the orbits found so far; a root is its set's smallest vertex
    root = list(range(graph.vertex_count))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    reps: Dict[int, List[int]] = {}  # the orbit representatives of each colour
    for v in range(graph.vertex_count):
        if find(v) < v:
            continue
        same_colour = reps.setdefault(colour[v], [])
        for rep in same_colour:
            (left, trace), (right, right_trace) = individualized(rep), individualized(v)
            if trace != right_trace:
                continue
            sigma = _automorphism(adj, pairs, left, right)
            if sigma is not None:
                for u, image in enumerate(sigma):
                    a, b = find(u), find(image)
                    root[max(a, b)] = min(a, b)
                break
        else:
            same_colour.append(v)
    orbit_label: Dict[int, int] = {}
    return {v: orbit_label.setdefault(find(v), len(orbit_label) + 1)
            for v in range(graph.vertex_count)}


# ---------------------------------------------------------------------------
# Pair digraph and measure lift
# ---------------------------------------------------------------------------

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


def pair_digraph(measure: RootMeasure) -> PairDigraph:
    """The directed pair-label graph of a lift, read off its laws.

    Node (j, i), a key of the lift's laws, stands for "an i vertex entered
    from a j neighbor"; it sends m edges to (i, k) when the one vector of
    its point-mass law has m children labeled k.  A law that is not a point
    mass raises ValueError.
    """
    offspring = measure.descendants.offspring
    multiplicity = {}
    for key, law in offspring.items():
        if len(law) != 1:
            raise ValueError(f"law {key} is not a point mass")
        (rest,) = law
        for k, m in enumerate(rest, start=1):
            if m > 0:
                multiplicity[(key, (key[1], k))] = m
    return PairDigraph(nodes=sorted(offspring), multiplicity=multiplicity)


def lift_measure(graph: FiniteGraph, labels: Dict[int, int]) -> RootMeasure:
    """Lift the degree-biased uniform vertex measure to rooted trees.

    The root label is i with probability proportional to the total degree of
    the i-labeled vertices; given that, the neighbor vector is the common
    neighbor-count vector of those vertices; every descendant law is a point
    mass on the remaining-neighbor counts of its pair type.
    """
    if not graph.connected():
        raise ValueError("graph must be connected" + graph.isolated_note())
    n = max(labels.values())

    class_counts: Dict[int, Vector] = {}
    degree_mass: Dict[int, int] = {i: 0 for i in range(1, n + 1)}
    for v in range(graph.vertex_count):
        i = labels[v]
        tally = [0] * n
        for w in graph.neighbors(v):
            tally[labels[w] - 1] += 1
        counts = tuple(tally)
        if i in class_counts and class_counts[i] != counts:
            raise IllDefinedLabelingError(
                f"label {i} vertices disagree on neighbor counts: "
                f"{class_counts[i]} vs {counts}"
            )
        class_counts[i] = counts
        degree_mass[i] += graph.degree(v)

    # an i vertex entered from a j neighbor has the rest of its class's
    # neighbors as children: the same counts at every such vertex
    offspring = {}
    for i, counts in sorted(class_counts.items()):
        for j, cj in enumerate(counts, start=1):
            if cj > 0:
                offspring[(j, i)] = {decrement(counts, j): Fraction(1)}

    return RootMeasure(
        n=n,
        root_dist=normalize({i: (degree_mass[i], 1) for i in range(1, n + 1)})[0],
        neighbor_dist={i: {class_counts[i]: Fraction(1)} for i in range(1, n + 1)},
        descendants=GWSpec(n=n, mode=PAIR, offspring=offspring),
    )
