"""Decide whether a pair-mode spec admits a reversible root measure.

Three checks, all exact:

* strong connectivity of the directed graph on realized (parent, label)
  types, where (i, j) -> (j, k) whenever a (i, j) vertex can have a
  label-k child: forward and backward reachability from the least type,
  two breadth-first passes in O(P + E) for P types and E type edges;
* condition i ("support closure"): whenever a root class (i, c) is forced
  into the support through one neighbor label, every other positive
  coordinate of c must force it too;
* condition ii ("cycle consistency"): the edge ratios of the balance graph
  multiply to exactly 1 around every cycle, checked by propagating node
  potentials over a spanning forest and comparing the non-tree edges.

Conditions i and ii are statements about the same balance factors
h((i, c), j) = p(j,i)(c - e_j) * |c| / c_j of the candidate classes, one
per label j with c_j > 0: condition i says every factor is nonzero,
condition ii that the balance graph's edge ratios h((i, c), j) / h((j, d), i)
close around every cycle.  Both read one table (`factor_table`) of the
inverse factors, filled side by side in O(N * n) for N classes and n
labels.  Condition i holds when no entry is missing; the table is built in
full either way, so condition i has no early exit.  The edges between
labels i and j form a complete bipartite block S(i, j) x S(j, i) of the
sides of `core.class_sides` (a clique when i = j), consistent exactly when
the key pot / h is constant on it; `_potentials` walks these blocks
with `core.class_forest` and never materializes the graph, and reads each
block's first inconsistent edge off `core.block_mismatches`, as `verify`
does.  Keys are unreduced integer pairs compared by cross-multiplication;
only the potentials, which `construct` writes, are Fractions.  The graph
built edge by edge in O(N^2), the same walk in Fractions and the condition-i
loop over the laws are kept only as the test suite's references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import (
    ONE,
    GWSpec,
    PairKey,
    SupportClass,
    Vector,
    bfs_forest,
    block_mismatches,
    class_forest,
    increment,
    side_key,
)


# ---------------------------------------------------------------------------
# Strong connectivity on realized pair types
# ---------------------------------------------------------------------------

def check_strong_connectivity(spec: GWSpec) -> Tuple[bool, Optional[Tuple[PairKey, PairKey]]]:
    """Strong connectivity of the realized pair-type graph, by forward and
    backward reachability from the least type: two breadth-first passes,
    O(P + E) for P types and E type edges once the edges are read off the
    stored laws.

    Returns (True, None) on success, else (False, (source, target)) for the
    first ordered pair of realized types, in sorted order, with no directed
    path.  With `first` the least type, a type t that `first` misses gives
    (first, t), the least such t.  Otherwise `first` reaches every type, so
    a source reaches every type exactly when it reaches `first`: the least
    source outside the backward reach of `first` fails, and its least
    unreached target is `first` itself.
    """
    keys = sorted(spec.offspring)
    succ: Dict[PairKey, List[PairKey]] = {key: [] for key in keys}
    pred: Dict[PairKey, List[PairKey]] = {key: [] for key in keys}
    for (i, j) in keys:
        for k in spec.child_labels[(i, j)]:
            succ[(i, j)].append((j, k))
            pred[(j, k)].append((i, j))
    first = keys[0]
    for edges in (succ, pred):
        _, seen = bfs_forest([first], edges.__getitem__)
        missed = next((key for key in keys if key not in seen), None)
        if missed is not None:
            return False, (first, missed) if edges is succ else (missed, first)
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
# The factor table, and condition i read off it
# ---------------------------------------------------------------------------

def factor_table(spec: GWSpec) -> tuple:
    """(nodes, side, order, parent, inv, absent): the sorted candidate
    classes, their sides and BFS forest (`core.class_forest`),
    inv[(u, j)] = 1 / h(u, j), the `core.side_key` of weight 1 read from the
    one law p(j, i) of side S(i, j), and each class's least missing label."""
    # the candidate classes of every label, read off the stored laws only
    nodes = sorted({SupportClass(i, increment(e, j))
                    for (j, i), dist in spec.offspring.items() for e in dist})
    side, order, parent = class_forest(nodes)
    inv, absent = {}, {}
    for (i, j), members in side.items():
        law = spec.offspring.get((j, i), {})
        for u in members:
            key = side_key(law, u, j, ONE)
            if key is None:
                absent[u] = min(j, absent.get(u, j))
            else:
                inv[(u, j)] = key
    return nodes, side, order, parent, inv, absent


def _condition_i(table: tuple) -> Tuple[bool, Optional[Tuple[int, int, int, Vector]]]:
    """Condition i read off a built table: (True, None), or (False,
    (i, j, k, c)) for the first violation of a loop over the laws (j, i) in
    (i, j) order and their sorted entries e, c = e + e_j, k the least label
    c lacks a term for: over the classes with a missing entry, the least
    (i, j, c - e_j), j the least label whose entry is present."""
    *_, inv, absent = table
    firsts = []
    for u, k in absent.items():
        # the least label forcing u, whose entry is present
        j = next(j for j, cj in enumerate(u.vector, start=1) if cj and (u, j) in inv)
        firsts.append((u.label, j, k, u.vector))
    # for a fixed j, c - e_j orders as c does
    witness = min(firsts, key=lambda w: (w[0], w[1], w[3]), default=None)
    return witness is None, witness


# ---------------------------------------------------------------------------
# Potentials on the class graph and on the label graph
# ---------------------------------------------------------------------------

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
    order, parent = bfs_forest(range(1, n + 1), adjacency.__getitem__)
    pot: Dict[int, Fraction] = {}
    components = 0
    for v in order:
        u = parent[v]
        if u is None:
            components += 1
            pot[v] = ONE
        else:
            # ratio(u, v) = pot(u) / pot(v)
            pot[v] = pot[u] / ratio[(u, v)] if u < v else pot[u] * ratio[(v, u)]
    for i, j in sorted(ratio):
        if ratio[(i, j)] != pot[i] / pot[j]:
            return pot, _cycle_through(parent, i, j), components
    return pot, None, components


def _potentials(
    table: tuple,
) -> Tuple[List[SupportClass], Dict[SupportClass, Fraction], Optional[List[SupportClass]], int]:
    """Balance-graph potentials on a built table on which condition i holds,
    worked per label pair in O(N * n).

    Returns (nodes, potentials, cycle, components): the sorted candidate
    classes, their potentials, a violating cycle or None, and the number of
    connected components.  Every value equals what a BFS over the
    materialized balance graph gives, edge by edge:

    * the BFS (`class_forest`) starts from the nodes in sorted order and
      appends each node's undiscovered neighbours in sorted order;
    * the violating cycle runs through the first inconsistent edge (u, v) in
      sorted order.  With g = pot / h on each side, the edge (u, v) between
      S(i, j) and S(j, i) is inconsistent iff g(u) != g(v), so the first one
      of each label pair is the first pair of `core.block_mismatches` on
      the two sides' keys, found in linear time.
    """
    nodes, side, order, parent, inv, _ = table
    pot: Dict[SupportClass, Fraction] = {}
    components = 0
    for v in order:
        u = parent[v]
        if u is None:
            components += 1
            pot[v] = ONE
        else:
            # ratio(u, v) = pot(u) / pot(v) = h(u, j) / h(v, i), u = (i, c), v = (j, d),
            # so pot(v) = pot(u) * inv(u, j) / inv(v, i)
            a, b = inv[(u, v.label)]
            x, y = inv[(v, u.label)]
            p, q = pot[u].as_integer_ratio()
            pot[v] = Fraction(p * a * y, q * b * x)

    # g(u, j) = pot(u) / h(u, j) over each side S(i, j); (u, v) across
    # S(i, j), S(j, i) is consistent iff g(u, j) == g(v, i)
    g = {}
    for (i, j), members in side.items():
        g[(i, j)] = keys = []
        for u in members:
            a, b = inv[(u, j)]
            p, q = pot[u].as_integer_ratio()
            keys.append((p * a, q * b))
    # the first inconsistent edge of each block, and the least of them
    edges = [next(block_mismatches(members, side[(j, i)], g[(i, j)], g[(j, i)], (1, 1)), None)
             for (i, j), members in side.items() if i <= j and (j, i) in side]
    first = min((edge for edge in edges if edge is not None), default=None)
    cycle = None if first is None else _cycle_through(parent, *first)
    return nodes, pot, cycle, components


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
        return not self.failed_names()

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
    table = factor_table(spec)
    cond_i, counterexample = _condition_i(table)
    cond_ii = None
    cycle = None
    connected = None
    potentials = None
    if cond_i:
        _, potentials, cycle, components = _potentials(table)
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
