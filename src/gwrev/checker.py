"""Decide whether a pair-mode spec admits a reversible root measure.

Three checks, all exact:

* strong connectivity of the directed graph on realized (parent, label)
  types, where (i, j) -> (j, k) whenever a (i, j) vertex can have a
  label-k child;
* condition i ("support closure"): whenever a root class (i, c) is forced
  into the support through one neighbor label, every other positive
  coordinate of c must force it too;
* condition ii ("cycle consistency"): the edge ratios of the balance graph
  multiply to exactly 1 around every cycle, checked by propagating node
  potentials over a spanning forest and comparing the non-tree edges.

The balance graph has one node per candidate root class (i, c), an edge
between (i, c) and (j, d) whenever c has a j-neighbor and d an i-neighbor,
and on that edge the exact ratio that detailed balance forces between the
two classes' unnormalized weights.  That ratio factors per label pair:

    ratio((i, c), (j, d)) = h((i, c), j) / h((j, d), i),
    h((i, c), j) = p(j,i)(c - e_j) * |c| / c_j,

so the edges between labels i and j form a complete bipartite block (a
clique when i = j) that is consistent exactly when pot / h is constant on
it.  `solve_potentials` works on these blocks and never materializes the
graph: with N classes and n labels it does O(N * n) exact operations plus
the sort.  It returns the same potentials, the same spanning forest and the
same violating cycle as `build_balance_graph` + `propagate_potentials`,
which materialize every edge in O(N^2) and stay as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import (
    GWSpec,
    GwrevError,
    PairKey,
    SupportClass,
    Vector,
    candidate_support,
    decrement,
    increment,
    total,
)


class MissingOffspringTermError(GwrevError):
    """A balance-graph edge needs an offspring probability that is absent.

    Cannot happen once condition i has been verified."""


# ---------------------------------------------------------------------------
# Strong connectivity on realized pair types
# ---------------------------------------------------------------------------

def check_strong_connectivity(spec: GWSpec) -> Tuple[bool, Optional[Tuple[PairKey, PairKey]]]:
    """Strong connectivity of the realized pair-type graph.

    Returns (True, None) on success, else (False, (source, target)) for the
    first ordered pair of realized types with no directed path.
    """
    keys = sorted(spec.offspring)
    succ = {key: set() for key in keys}
    for (i, j) in keys:
        for c in spec.offspring[(i, j)]:
            for k, ck in enumerate(c, start=1):
                if ck > 0 and (j, k) in succ:
                    succ[(i, j)].add((j, k))
    for src in keys:
        seen = {src}
        stack = [src]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        for tgt in keys:
            if tgt not in seen:
                return False, (src, tgt)
    return True, None


def labels_realized(spec: GWSpec) -> Tuple[bool, Optional[int]]:
    """Every label in [n] must occur as the own-label of some realized pair
    type, otherwise no measure can give it positive root weight."""
    present = {j for (_, j) in spec.offspring}
    for i in range(1, spec.n + 1):
        if i not in present:
            return False, i
    return True, None


# ---------------------------------------------------------------------------
# Condition i: support closure
# ---------------------------------------------------------------------------

def check_condition_i(spec: GWSpec) -> Tuple[bool, Optional[Tuple[int, int, int, Vector]]]:
    """For every class vector c forced into F_i by neighbor label j, every
    other positive coordinate k of c must carry positive mass as well.

    Returns (True, None) or (False, (i, j, k, c)) for the first violation in
    sorted iteration order.
    """
    # stored keys (j, i) in (i, j) order: the order of a loop over all
    # label pairs, without touching the pairs that hold no law
    for (j, i) in sorted(spec.offspring, key=lambda key: (key[1], key[0])):
        dist = spec.offspring[(j, i)]
        for e in sorted(dist):
            c = increment(e, j)
            for k, ck in enumerate(c, start=1):
                if ck == 0:
                    continue
                if spec.pair_prob(k, i, decrement(c, k)) == 0:
                    return False, (i, j, k, c)
    return True, None


# ---------------------------------------------------------------------------
# Balance graph
# ---------------------------------------------------------------------------

@dataclass
class BalanceGraph:
    """Candidate root classes with exact detailed-balance edge ratios.

    ``ratio[(u, v)]`` is the forced ratio weight(u) / weight(v); both
    orientations are stored and are exact reciprocals.
    """

    nodes: List[SupportClass]
    ratio: Dict[Tuple[SupportClass, SupportClass], Fraction]
    adjacency: Dict[SupportClass, List[SupportClass]] = field(default=None)

    def __post_init__(self):
        if self.adjacency is None:
            adj = {u: [] for u in self.nodes}
            for (u, v) in self.ratio:
                adj[u].append(v)
            for u in adj:
                adj[u] = sorted(set(adj[u]))
            self.adjacency = adj

    def edges(self) -> List[Tuple[SupportClass, SupportClass]]:
        return sorted((u, v) for (u, v) in self.ratio if u < v)

    def components(self) -> List[List[SupportClass]]:
        out, seen = [], set()
        for start in self.nodes:
            if start in seen:
                continue
            comp, stack = [], [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self.adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            out.append(sorted(comp))
        return out


def edge_ratio(spec: GWSpec, u: SupportClass, v: SupportClass) -> Fraction:
    """Exact weight ratio forced between adjacent classes u = (i, c) and
    v = (j, d): [p(j,i)(c-j) * d_i * |c|] / [p(i,j)(d-i) * c_j * |d|]."""
    i, c = u
    j, d = v
    num = spec.pair_prob(j, i, decrement(c, j))
    den = spec.pair_prob(i, j, decrement(d, i))
    if num == 0 or den == 0:
        raise MissingOffspringTermError(
            f"edge {u} -- {v} needs an unstored offspring probability"
        )
    return Fraction(num * d[i - 1] * total(c), den * c[j - 1] * total(d))


def build_balance_graph(spec: GWSpec) -> BalanceGraph:
    """Assemble the balance graph over all candidate classes, deterministically.

    Requires condition i to hold (otherwise an edge may reference an unstored
    offspring probability and MissingOffspringTermError is raised).
    """
    nodes = [
        SupportClass(i, c)
        for i in range(1, spec.n + 1)
        for c in sorted(candidate_support(spec, i))
    ]
    nodes.sort()
    ratio: Dict[Tuple[SupportClass, SupportClass], Fraction] = {}
    for a in range(len(nodes)):
        u = nodes[a]
        for b in range(a + 1, len(nodes)):
            v = nodes[b]
            if u.vector[v.label - 1] > 0 and v.vector[u.label - 1] > 0:
                r = edge_ratio(spec, u, v)
                ratio[(u, v)] = r
                ratio[(v, u)] = 1 / r
    return BalanceGraph(nodes=nodes, ratio=ratio)


def propagate_potentials(
    graph: BalanceGraph,
) -> Tuple[Dict[SupportClass, Fraction], Optional[List[SupportClass]]]:
    """BFS a spanning forest, set each root's potential to 1, and push
    potentials along tree edges.  Every non-tree edge is then compared with
    the potentials; the first inconsistent one yields a violating cycle
    (closed node walk whose ratio product is not 1).

    Returns (potentials, None) on success or (potentials, cycle) on failure;
    potentials are still returned in full so callers can replay the cycle.
    """
    pot: Dict[SupportClass, Fraction] = {}
    parent: Dict[SupportClass, Optional[SupportClass]] = {}
    for start in graph.nodes:
        if start in pot:
            continue
        pot[start] = Fraction(1)
        parent[start] = None
        queue = [start]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in graph.adjacency[u]:
                if v not in pot:
                    # ratio(u, v) = pot(u) / pot(v)
                    pot[v] = pot[u] / graph.ratio[(u, v)]
                    parent[v] = u
                    queue.append(v)
    for (u, v) in graph.edges():
        if graph.ratio[(u, v)] != pot[u] / pot[v]:
            return pot, _cycle_through(parent, u, v)
    return pot, None


def _cycle_through(parent, u, v) -> list:
    """Closed walk u -> ... -> v -> u using tree paths plus the edge (v, u)."""
    anc_u, x = [u], u
    while parent[x] is not None:
        x = parent[x]
        anc_u.append(x)
    anc_v, x = [v], v
    index_u = {node: k for k, node in enumerate(anc_u)}
    while x not in index_u:
        x = parent[x]
        anc_v.append(x)
    meet = anc_v[-1]
    up = anc_u[: index_u[meet] + 1]  # u ... meet
    down = anc_v[:-1][::-1]  # meet-child ... v
    return up + down + [u]


def label_potentials(
    n: int, ratio: Dict[Tuple[int, int], Fraction]
) -> Tuple[Dict[int, Fraction], Optional[List[int]], int]:
    """Potentials on the labels 1..n from the forced ratios
    ``ratio[(i, j)] = weight(i) / weight(j)``, i < j, one per label-graph edge.

    The BFS starts from the labels in order and visits neighbours in sorted
    order; the cycle runs through the first inconsistent edge (i, j) in sorted
    order and ends ..., j, i.  Returns (potentials, cycle or None, number of
    connected components).  The plain regime and the template parametrizer
    both solve their root-label weights here.
    """
    # built from the sorted edges, so every neighbour list comes out sorted
    adjacency: Dict[int, List[int]] = {i: [] for i in range(1, n + 1)}
    for i, j in sorted(ratio):
        adjacency[i].append(j)
        adjacency[j].append(i)
    pot: Dict[int, Fraction] = {}
    parent: Dict[int, Optional[int]] = {}
    components = 0
    for start in range(1, n + 1):
        if start in pot:
            continue
        components += 1
        pot[start] = Fraction(1)
        parent[start] = None
        queue = [start]
        for u in queue:
            for v in adjacency[u]:
                if v not in pot:
                    # ratio(u, v) = pot(u) / pot(v)
                    pot[v] = pot[u] / ratio[(u, v)] if u < v else pot[u] * ratio[(v, u)]
                    parent[v] = u
                    queue.append(v)
    for i, j in sorted(ratio):
        if ratio[(i, j)] != pot[i] / pot[j]:
            return pot, _cycle_through(parent, i, j), components
    return pot, None, components


def cycle_product(graph: BalanceGraph, cycle: List[SupportClass]) -> Fraction:
    """Replay a closed node walk, multiplying edge ratios.  Consecutive
    repeats contribute a factor 1.  Equals 1 exactly iff the cycle is
    consistent."""
    if cycle[0] != cycle[-1]:
        raise ValueError("cycle must start and end at the same class")
    prod = Fraction(1)
    for u, v in zip(cycle, cycle[1:]):
        if u == v:
            continue
        prod *= graph.ratio[(u, v)]
    return prod


def solve_potentials(
    spec: GWSpec,
) -> Tuple[List[SupportClass], Dict[SupportClass, Fraction], Optional[List[SupportClass]], int]:
    """Balance-graph potentials, worked per label pair in O(N * n).

    Returns (nodes, potentials, cycle, components): the sorted candidate
    classes, their potentials, a violating cycle or None, and the number of
    connected components.  Every value equals what `propagate_potentials`
    gives on `build_balance_graph(spec)`:

    * the BFS starts from the nodes in sorted order and appends each node's
      undiscovered neighbours in sorted order; the neighbours of (i, c) are
      the sides S(j, i) (label-j classes with d_i > 0) for c_j > 0, so a side
      is scanned once, after which all of it is discovered;
    * the violating cycle runs through the first inconsistent edge (u, v) in
      sorted order.  With g = pot / h on each side, the edge (u, v) between
      S(i, j) and S(j, i) is inconsistent iff g(u) != g(v), so the first one
      of each label pair is read off the two sides in linear time.

    Requires condition i (MissingOffspringTermError otherwise).
    """
    # the candidate classes of every label, read off the stored laws only
    nodes = sorted({
        SupportClass(i, increment(e, j))
        for (j, i), dist in spec.offspring.items()
        for e in dist
    })
    side: Dict[PairKey, List[SupportClass]] = {}
    for u in nodes:
        for j, cj in enumerate(u.vector, start=1):
            if cj > 0:
                side.setdefault((u.label, j), []).append(u)

    cache: Dict[Tuple[SupportClass, int], Fraction] = {}

    def h(u: SupportClass, j: int) -> Fraction:
        # h((i, c), j) = p(j,i)(c - e_j) * |c| / c_j
        value = cache.get((u, j))
        if value is None:
            i, c = u
            p = spec.pair_prob(j, i, decrement(c, j))
            if p == 0:
                raise MissingOffspringTermError(
                    f"class {u} needs an unstored offspring probability for parent {j}"
                )
            value = cache[(u, j)] = p * total(c) / c[j - 1]
        return value

    pot: Dict[SupportClass, Fraction] = {}
    parent: Dict[SupportClass, Optional[SupportClass]] = {}
    scanned = set()
    components = 0
    for start in nodes:
        if start in pot:
            continue
        components += 1
        pot[start] = Fraction(1)
        parent[start] = None
        queue = [start]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            i = u.label
            for j, cj in enumerate(u.vector, start=1):
                key = (j, i)
                if cj == 0 or key in scanned or key not in side:
                    continue
                scanned.add(key)
                base = pot[u] / h(u, j)
                for v in side[key]:
                    if v not in pot:
                        # ratio(u, v) = pot(u) / pot(v) = h(u, j) / h(v, i)
                        pot[v] = base * h(v, i)
                        parent[v] = u
                        queue.append(v)

    def g(u: SupportClass, j: int) -> Fraction:
        # (u, v) across sides S(i, j), S(j, i) is consistent iff g(u, j) == g(v, i)
        return pot[u] / h(u, j)

    first = None
    for (i, j), a_side in side.items():
        if i > j:
            continue
        if i == j:
            if len(a_side) < 2:
                continue
            g0 = g(a_side[0], i)
            edge = next(((a_side[0], q) for q in a_side[1:] if g(q, i) != g0), None)
        else:
            b_side = side.get((j, i))
            if not b_side:
                continue
            gb = [g(v, i) for v in b_side]
            if any(x != gb[0] for x in gb):
                g0 = g(a_side[0], j)
                edge = next((a_side[0], v) for v, x in zip(b_side, gb) if x != g0)
            else:
                edge = next(((u, b_side[0]) for u in a_side if g(u, j) != gb[0]), None)
        if edge is not None and (first is None or edge < first):
            first = edge
    cycle = None if first is None else _cycle_through(parent, *first)
    return nodes, pot, cycle, components


def check_condition_ii(
    spec: GWSpec, graph: Optional[BalanceGraph] = None
) -> Tuple[bool, Optional[List[SupportClass]]]:
    """Exact cycle consistency of the balance graph: per label pair through
    `solve_potentials`, or edge by edge on a `graph` already built."""
    if graph is None:
        cycle = solve_potentials(spec)[2]
    else:
        _, cycle = propagate_potentials(graph)
    return (cycle is None), cycle


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    """Outcome of every admissibility check on a pair-mode spec.

    ``condition_ii`` and ``connected_support`` stay None when condition i
    already failed (the balance graph is not well defined then).
    """

    labels_realized: bool
    missing_label: Optional[int]
    strongly_connected: bool
    unreachable_pair: Optional[Tuple[PairKey, PairKey]]
    condition_i: bool
    condition_i_counterexample: Optional[Tuple[int, int, int, Vector]]
    condition_ii: Optional[bool]
    violating_cycle: Optional[List[SupportClass]]
    connected_support: Optional[bool]
    # the balance-graph potentials of every candidate class, kept for the
    # constructor; None when condition i failed
    potentials: Optional[Dict[SupportClass, Fraction]] = field(
        default=None, repr=False, compare=False
    )

    def ok(self) -> bool:
        return (
            self.labels_realized
            and self.strongly_connected
            and self.condition_i
            and self.condition_ii is True
            and self.connected_support is True
        )

    def failed_names(self) -> List[str]:
        out = []
        if not self.labels_realized:
            out.append("labels_realized")
        if not self.strongly_connected:
            out.append("strongly_connected")
        if not self.condition_i:
            out.append("condition_i")
        if self.condition_ii is False:
            out.append("condition_ii")
        if self.connected_support is False:
            out.append("connected_support")
        return out


def run_checks(spec: GWSpec) -> CheckReport:
    """Run every admissibility check in order and collect the results."""
    realized, missing = labels_realized(spec)
    strong, witness = check_strong_connectivity(spec)
    cond_i, counterexample = check_condition_i(spec)
    cond_ii = None
    cycle = None
    connected = None
    potentials = None
    if cond_i:
        _, potentials, cycle, components = solve_potentials(spec)
        cond_ii = cycle is None
        connected = components == 1
    return CheckReport(
        labels_realized=realized,
        missing_label=missing,
        strongly_connected=strong,
        unreachable_pair=witness,
        condition_i=cond_i,
        condition_i_counterexample=counterexample,
        condition_ii=cond_ii,
        violating_cycle=cycle,
        connected_support=connected,
        potentials=potentials,
    )
