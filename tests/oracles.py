"""Independent oracles and random instance generators for the test suite.

Everything here recomputes expected values from first principles (direct
transcription of the defining identities, exhaustive enumeration, or
brute-force search) without reusing the library code paths under test.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from gwrev import fileformats
from gwrev.checker import _cycle_through, run_checks
from gwrev.constructor import Violation, construct_measure
from gwrev.core import (
    ONE,
    GWSpec,
    GwrevError,
    InvalidDistributionError,
    PAIR,
    PLAIN,
    RootMeasure,
    SpecError,
    SupportClass,
    Vector,
    bfs_forest,
    candidate_support,
    class_forest,
    class_sides,
    decrement,
    exact_flow,
    increment,
    total,
)
from gwrev.covers import (
    FiniteGraph,
    GraphTooLargeError,
    IllDefinedLabelingError,
    PairDigraph,
    label_vertices,
    lift_measure,
)
from gwrev.norelabel import (
    DegreeDependentParametersError,
    NotMultinomialError,
    PlainSpec,
    construct_plain_measure,
    run_plain_checks,
)
from gwrev.parametrizer import SupportTemplate, _forced_laws, assemble_measure


class MissingOffspringTermError(GwrevError):
    """A candidate class lacks the offspring term of a balance factor:
    condition i fails, and the balance graph is not defined."""


# ---------------------------------------------------------------------------
# Detailed balance, transcribed directly
# ---------------------------------------------------------------------------

def balance_violations(measure: RootMeasure):
    """Every ordered pair of support classes, checked with raw arithmetic."""
    spec = measure.descendants
    out = []
    classes = [
        (i, c)
        for i in measure.neighbor_dist
        for c in measure.neighbor_dist[i]
    ]
    for (i, c) in classes:
        for (j, d) in classes:
            if c[j - 1] == 0 or d[i - 1] == 0:
                continue
            key_ij = (i, j) if spec.mode == PAIR else j
            key_ji = (j, i) if spec.mode == PAIR else i
            d_minus = d[: i - 1] + (d[i - 1] - 1,) + d[i:]
            c_minus = c[: j - 1] + (c[j - 1] - 1,) + c[j:]
            lhs = (
                measure.root_dist[i]
                * measure.neighbor_dist[i][c]
                * spec.offspring.get(key_ij, {}).get(d_minus, Fraction(0))
                * Fraction(c[j - 1], sum(c))
            )
            rhs = (
                measure.root_dist[j]
                * measure.neighbor_dist[j][d]
                * spec.offspring.get(key_ji, {}).get(c_minus, Fraction(0))
                * Fraction(d[i - 1], sum(d))
            )
            if lhs != rhs:
                out.append(((i, c), (j, d), lhs, rhs))
    # every step of the walk out of the support: the neighbor of an (i, c)
    # root with children e has class (j, e + e_i), of mass 0 when unlisted
    for (i, c) in classes:
        for j in range(1, measure.n + 1):
            if c[j - 1] == 0:
                continue
            key_ij = (i, j) if spec.mode == PAIR else j
            for e, p in spec.offspring.get(key_ij, {}).items():
                d = e[: i - 1] + (e[i - 1] + 1,) + e[i:]
                if d not in measure.neighbor_dist[j]:
                    lhs = (measure.root_dist[i] * measure.neighbor_dist[i][c] * p
                           * Fraction(c[j - 1], sum(c)))
                    out.append(((i, c), (j, d), lhs, Fraction(0)))
    return out


def support_classes(measure: RootMeasure) -> List[SupportClass]:
    """All (label, vector) classes carrying positive mass, sorted."""
    return [SupportClass(i, c) for i in sorted(measure.neighbor_dist)
            for c in sorted(measure.neighbor_dist[i])]


def listed_violations(measure: RootMeasure):
    """`balance_violations` as `verify_reversibility` lists them, sorted:
    each failing pair of support classes once, first < second, and every
    step out of the support as (source, target)."""
    support = set(support_classes(measure))
    return sorted(x for x in balance_violations(measure) if x[0] < x[1] or x[1] not in support)


def assert_support_consistency(measure: RootMeasure) -> None:
    # Stationarity forces: every positive coordinate j of a supported class
    # (i, c) corresponds to a stored offspring probability for (j, i).
    spec = measure.descendants
    for cls in support_classes(measure):
        i, c = cls
        for j, cj in enumerate(c, start=1):
            if cj > 0 and spec.pair_prob(j, i, decrement(c, j)) == 0:
                raise AssertionError(
                    f"constructed class {cls} lacks the offspring term for parent {j}"
                )


# ---------------------------------------------------------------------------
# Cycle identity, transcribed in ratio form (no degree totals)
# ---------------------------------------------------------------------------

def cycle_identity_product(spec: GWSpec, walk) -> Fraction:
    """Product over consecutive classes (i, c) -> (j, d) of

        [p(i,j)(d - i) / p(j,i)(c - j)] * [c_j / d_i]

    around a closed class walk; equals 1 exactly when the walk is balanced.
    """
    assert walk[0] == walk[-1]
    prod = Fraction(1)
    for (u, v) in zip(walk, walk[1:]):
        if u == v:
            continue
        i, c = u
        j, d = v
        d_minus = d[: i - 1] + (d[i - 1] - 1,) + d[i:]
        c_minus = c[: j - 1] + (c[j - 1] - 1,) + c[j:]
        num = spec.offspring[(i, j)][d_minus]
        den = spec.offspring[(j, i)][c_minus]
        prod *= Fraction(num, den) * Fraction(c[j - 1], d[i - 1])
    return prod


def class_adjacent(u, v) -> bool:
    (i, c), (j, d) = u, v
    return u != v and c[j - 1] > 0 and d[i - 1] > 0


def enumerate_closed_walks(nodes, max_len):
    """All closed walks (as class tuples) of length 3..max_len, by DFS."""
    out = []

    def extend(walk):
        if len(walk) > max_len:
            return
        for v in nodes:
            if class_adjacent(walk[-1], v):
                if v == walk[0] and len(walk) >= 3:
                    out.append(walk + [v])
                extend(walk + [v])

    for start in nodes:
        extend([start])
    return out


def random_closed_walks(nodes, rng, count, max_len=8):
    """Random closed walks through the class adjacency, rejection-sampled."""
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        walk = [rng.choice(nodes)]
        for _ in range(rng.randint(2, max_len)):
            nxt = [v for v in nodes if class_adjacent(walk[-1], v)]
            if not nxt:
                break
            walk.append(rng.choice(nxt))
        if len(walk) >= 3 and class_adjacent(walk[-1], walk[0]):
            out.append(walk + [walk[0]])
    return out


# ---------------------------------------------------------------------------
# The balance graph, materialized edge by edge in O(N^2): the reference of
# `checker._potentials`
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


# ---------------------------------------------------------------------------
# Detailed balance per label-pair side in Fractions: the reference of the
# integer balance keys of `checker._potentials` and
# `constructor.verify_reversibility`
# ---------------------------------------------------------------------------

def balance_factor(spec: GWSpec, u: SupportClass, j: int) -> Fraction:
    """h((i, c), j) = p(j,i)(c - e_j) * |c| / c_j for c_j > 0; zero exactly
    when the offspring term is unstored.  Divided by their offspring terms,
    the two flows between u = (i, c) and v = (j, d) are equal iff
    weight(u) / h(u, j) == weight(v) / h(v, i)."""
    i, c = u
    return spec.offspring_prob(j, i, decrement(c, j)) * total(c) / c[j - 1]


def fraction_solve_potentials(
    spec: GWSpec,
) -> Tuple[List[SupportClass], Dict[SupportClass, Fraction], Optional[List[SupportClass]], int]:
    """Balance-graph potentials, worked per label pair in O(N * n).

    Returns (nodes, potentials, cycle, components): the sorted candidate
    classes, their potentials, a violating cycle or None, and the number of
    connected components.  Every value equals what a BFS over the
    materialized balance graph gives, edge by edge:

    * the BFS (`class_forest`) starts from the nodes in sorted order and
      appends each node's undiscovered neighbours in sorted order;
    * the violating cycle runs through the first inconsistent edge (u, v) in
      sorted order.  With g = pot / h on each side, the edge (u, v) between
      S(i, j) and S(j, i) is inconsistent iff g(u) != g(v), so the first one
      of each label pair is read off the two sides in linear time.

    Requires condition i: every balance factor is read before the walk, in
    the order of `every_visit_condition_i`, and the first zero one raises
    MissingOffspringTermError for the report's witness class and label.
    """
    # h(u, j) for every class u of a law and every j with c_j > 0
    h: Dict[Tuple[SupportClass, int], Fraction] = {}
    for (j, i) in sorted(spec.offspring, key=lambda key: (key[1], key[0])):
        for e in sorted(spec.offspring[(j, i)]):
            u = SupportClass(i, increment(e, j))
            for k, ck in enumerate(u.vector, start=1):
                if ck > 0 and (u, k) not in h:
                    h[(u, k)] = balance_factor(spec, u, k)
                    if h[(u, k)] == 0:
                        raise MissingOffspringTermError(
                            f"class {u} needs an unstored offspring probability for parent {k}"
                        )
    # the candidate classes of every label, read off the stored laws only
    nodes = sorted({u for u, _ in h})
    side, order, parent = class_forest(nodes)

    @cache
    def g(u: SupportClass, j: int) -> Fraction:
        # (u, v) across sides S(i, j), S(j, i) is consistent iff g(u, j) == g(v, i);
        # called only once pot[u] is set
        return pot[u] / h[(u, j)]

    pot: Dict[SupportClass, Fraction] = {}
    components = 0
    for v in order:
        u = parent[v]
        if u is None:
            components += 1
            pot[v] = ONE
        else:
            # ratio(u, v) = pot(u) / pot(v) = h(u, j) / h(v, i), u = (i, c), v = (j, d)
            pot[v] = g(u, v.label) * h[(v, u.label)]

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


def _balance_key(measure: RootMeasure, u: SupportClass, j: int) -> Optional[Fraction]:
    """k(u, j) = w(u) / h(u, j), h the balance factor, or None when h is zero."""
    f = balance_factor(measure.descendants, u, j)
    return None if f == 0 else measure.class_prob(u) / f


def fraction_verify_reversibility(measure: RootMeasure) -> List[Violation]:
    """Exact detailed-balance check over every admissible pair of support
    classes.

    Classes u = (i, c) and v = (j, d) with c_j > 0 and d_i > 0 balance when
    `exact_flow(measure, u, v) == exact_flow(measure, v, u)`, the identity
    written out in `core` (in plain mode the parent label is ignored).
    Returns all failing pairs with both flows, ordered by (first, second)
    with first < second; an empty list means the measure is exactly
    reversible.

    Every step of the walk out of the support fails too: for u in S(i, j)
    and e in the law p(i, j) whose target (j, e + e_i) is not a support
    class, (u, target) is listed with flows lhs > 0 and rhs = 0.

    Dividing both flows by the two offspring terms, the pair balances iff
    k(u, j) == k(v, i) with k(u, j) = w(u) / h(u, j), h the
    `balance_factor`, a zero term being a value of its own (both zero:
    0 == 0).  The admissible pairs of labels i and j are all pairs across
    the two sides S(i, j) and S(j, i) of `class_sides` (label-i classes with
    c_j > 0, label-j classes with d_i > 0), so the measure is reversible iff
    k takes one value on each label pair: O(N * n) work for N classes and n
    labels.  Violations can only lie in a block whose keys disagree, and
    only those blocks are listed pair by pair.
    """
    side = class_sides(support_classes(measure))
    keys = {
        (i, j): [_balance_key(measure, u, j) for u in members]
        for (i, j), members in side.items()
    }
    violations: List[Violation] = []
    for (i, j), members in side.items():
        for e in measure.descendants.offspring_law(i, j):
            v = SupportClass(j, increment(e, i))
            if v.vector not in measure.neighbor_dist[j]:
                violations += [(u, v, exact_flow(measure, u, v), Fraction(0)) for u in members]
        if i > j or (j, i) not in side:
            continue
        values = keys[(i, j)] if i == j else keys[(i, j)] + keys[(j, i)]
        if all(k == values[0] for k in values):
            continue
        for u in members:
            for v in side[(j, i)]:
                if i == j and not u < v:
                    continue
                lhs, rhs = exact_flow(measure, u, v), exact_flow(measure, v, u)
                if lhs != rhs:
                    violations.append((u, v, lhs, rhs))
    return sorted(violations)


# ---------------------------------------------------------------------------
# The theorem at depth 1, by linear algebra
# ---------------------------------------------------------------------------

def kernel_basis(rows: List[List[Fraction]], width: int) -> List[List[Fraction]]:
    """A basis of {w : row . w = 0 for every row}, by Gauss-Jordan
    elimination over Fractions: one vector per free column, 1 there and 0
    at the other free columns."""
    rows = [list(row) for row in rows]
    pivots: List[int] = []
    for col in range(width):
        r = len(pivots)
        lead = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if lead is None:
            continue
        rows[r], rows[lead] = rows[lead], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for k, row in enumerate(rows):
            if k != r and row[col]:
                factor = row[col]
                rows[k] = [x - factor * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    basis = []
    for free in (col for col in range(width) if col not in pivots):
        w = [Fraction(0)] * width
        w[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            w[col] = -row[free]
        basis.append(w)
    return basis


def depth_one_kernel(spec: GWSpec) -> Tuple[List[SupportClass], List[List[Fraction]]]:
    """The candidate classes of a pair spec and a basis of the class weights
    w that balance every one-step flow: for every adjacent pair u = (i, c),
    v = (j, d) (c_j > 0, d_i > 0), w(u) p(i,j)(d - e_i) c_j / |c| =
    w(v) p(j,i)(c - e_j) d_i / |d|, the two flows of `core.exact_flow`.

    No ratio, potential or spanning tree is formed, so the kernel decides
    on its own whether a reversible measure exists, and whether it is
    unique."""
    classes = sorted(SupportClass(i, c) for i in range(1, spec.n + 1)
                     for c in candidate_support(spec, i))
    column = {u: k for k, u in enumerate(classes)}
    rows = []
    for u, v in itertools.combinations(classes, 2):
        (i, c), (j, d) = u, v
        if c[j - 1] and d[i - 1]:
            row = [Fraction(0)] * len(classes)
            row[column[u]] = spec.pair_prob(i, j, decrement(d, i)) * Fraction(c[j - 1], total(c))
            row[column[v]] = -spec.pair_prob(j, i, decrement(c, j)) * Fraction(d[i - 1], total(d))
            if any(row):
                rows.append(row)
    return classes, kernel_basis(rows, len(classes))


# ---------------------------------------------------------------------------
# Normalizations in Fractions: the references of `parametrizer._forced_laws`
# and `constructor._normalize`, which sum in integers over one common
# denominator
# ---------------------------------------------------------------------------

def solve_offspring(template: SupportTemplate, weights) -> GWSpec:
    """The pair spec of the offspring laws that `assemble_measure` forces
    from the class weights."""
    return GWSpec(n=template.n, mode=PAIR, offspring=_forced_laws(template, weights)[0])


def fraction_forced_laws(template: SupportTemplate, weights):
    """The offspring laws forced by the class weights, keyed (i, j), and
    their normalizers, the label flows flow(i, j), one Fraction operator at
    a time."""
    side = template.forest[0]
    laws: Dict[Tuple[int, int], Dict] = {}
    flow: Dict[Tuple[int, int], Fraction] = {}
    # the sides S(j, i) in (i, j) order
    for (j, i) in sorted(side, key=lambda key: (key[1], key[0])):
        raw = {
            decrement(cls.vector, i): weights[cls]
            * Fraction(cls.vector[i - 1], total(cls.vector))
            for cls in side[(j, i)]
        }
        flow[(i, j)] = norm = sum(raw.values())
        laws[(i, j)] = {c: w / norm for c, w in raw.items()}
    return laws, flow


def fraction_normalize(n: int, potentials: Dict[SupportClass, Fraction]):
    """(neighbor_dist, root_dist) of the class potentials: each label's
    potentials over their sum, and the label sums over their total."""
    nodes = sorted(potentials)
    label_sum = {i: Fraction(0) for i in range(1, n + 1)}
    for node in nodes:
        label_sum[node.label] += potentials[node]
    grand = sum(label_sum.values())
    neighbor_dist = {i: {} for i in range(1, n + 1)}
    for node in nodes:
        neighbor_dist[node.label][node.vector] = potentials[node] / label_sum[node.label]
    root_dist = {i: label_sum[i] / grand for i in range(1, n + 1)}
    return neighbor_dist, root_dist


# ---------------------------------------------------------------------------
# Reachability (strong connectivity oracle)
# ---------------------------------------------------------------------------

def strongly_connected_bruteforce(spec: GWSpec) -> bool:
    """Warshall closure over realized pair types."""
    keys = sorted(spec.offspring)
    index = {k: a for a, k in enumerate(keys)}
    m = len(keys)
    reach = [[False] * m for _ in range(m)]
    for (i, j) in keys:
        for c in spec.offspring[(i, j)]:
            for k, ck in enumerate(c, start=1):
                if ck > 0 and (j, k) in index:
                    reach[index[(i, j)]][index[(j, k)]] = True
    for mid in range(m):
        for a in range(m):
            for b in range(m):
                reach[a][b] = reach[a][b] or (reach[a][mid] and reach[mid][b])
    return all(reach[a][b] for a in range(m) for b in range(m))


def unreachable_pair_bruteforce(spec: GWSpec):
    """(True, None), or (False, (source, target)) for the first ordered pair
    of realized pair types in sorted order with no directed path, every type
    reaching itself: Warshall closure from all sources at once."""
    keys = sorted(spec.offspring)
    index = {k: a for a, k in enumerate(keys)}
    m = len(keys)
    reach = [[a == b for b in range(m)] for a in range(m)]
    for (i, j) in keys:
        for c in spec.offspring[(i, j)]:
            for k, ck in enumerate(c, start=1):
                if ck > 0 and (j, k) in index:
                    reach[index[(i, j)]][index[(j, k)]] = True
    for mid in range(m):
        for a in range(m):
            for b in range(m):
                reach[a][b] = reach[a][b] or (reach[a][mid] and reach[mid][b])
    for a in range(m):
        for b in range(m):
            if not reach[a][b]:
                return False, (keys[a], keys[b])
    return True, None


def every_source_reachability(spec: GWSpec):
    """`checker.check_strong_connectivity` as first written: one BFS from
    every realized pair type in sorted order, O(P * E), the first target in
    sorted order that a source misses giving the witness."""
    keys = sorted(spec.offspring)
    succ = {key: set() for key in keys}
    for (i, j) in keys:
        for c in spec.offspring[(i, j)]:
            for k, ck in enumerate(c, start=1):
                if ck > 0 and (j, k) in succ:
                    succ[(i, j)].add((j, k))
    for src in keys:
        _, seen = bfs_forest([src], succ.__getitem__)
        for tgt in keys:
            if tgt not in seen:
                return False, (src, tgt)
    return True, None


# ---------------------------------------------------------------------------
# Label reads as first written: every column of a law and every coordinate
# of a class scanned where it is read
# ---------------------------------------------------------------------------

def column_child_labels(law) -> tuple:
    """`core.child_labels` as a column scan: label k when the k-th column
    of the law's vectors is not all 0."""
    return tuple(k for k, column in enumerate(zip(*law), start=1) if any(column))


def column_closure_error(n: int, mode: str, offspring) -> Optional[str]:
    """The message of `GWSpec`'s closure check, scanning every column of
    every law in sorted key order, or None when every child type has a
    law."""
    for key in sorted(offspring):
        child_of = key[1] if mode == PAIR else key
        for k, column in enumerate(zip(*offspring[key]), start=1):
            child_key = (child_of, k) if mode == PAIR else k
            if child_key not in offspring and any(column):
                return (f"law for {key} produces children of type {child_key}, "
                        "which has no offspring law")
    return None


def column_strong_connectivity(spec: GWSpec):
    """`checker.check_strong_connectivity` with each law's type edges read
    off its columns."""
    keys = sorted(spec.offspring)
    succ = {key: [] for key in keys}
    pred = {key: [] for key in keys}
    for (i, j) in keys:
        for k, column in enumerate(zip(*spec.offspring[(i, j)]), start=1):
            if any(column):
                succ[(i, j)].append((j, k))
                pred[(j, k)].append((i, j))
    first = keys[0]
    for edges in (succ, pred):
        _, seen = bfs_forest([first], edges.__getitem__)
        missed = next((key for key in keys if key not in seen), None)
        if missed is not None:
            return False, (first, missed) if edges is succ else (missed, first)
    return True, None


def column_root_law_error(neighbor_dist, descendants: GWSpec) -> Optional[str]:
    """The message of `RootMeasure`'s root-law check, scanning every column
    of every neighbor law, or None when each neighbor has a law."""
    for i, dist in neighbor_dist.items():
        for j, column in enumerate(zip(*dist), start=1):
            if any(column) and not descendants.offspring_law(i, j):
                return (f"label-{i} roots have label-{j} neighbors, but a label-{j} "
                        f"vertex with a label-{i} parent has no offspring law")
    return None


def scan_class_forest(classes):
    """`core.class_forest` with the sides built and each class's neighbours
    found by scanning all n coordinates of its vector."""
    side = {}
    for u in classes:
        for j, cj in enumerate(u.vector, start=1):
            if cj > 0:
                side.setdefault((u.label, j), []).append(u)
    scanned = set()

    def neighbours(u):
        out = []
        for j, cj in enumerate(u.vector, start=1):
            key = (j, u.label)
            if cj > 0 and key not in scanned and key in side:
                scanned.add(key)
                out += side[key]
        return out

    order, parent = bfs_forest(classes, neighbours)
    return side, order, parent


def pairwise_symmetry_reason(template: SupportTemplate) -> Optional[str]:
    """The support-symmetry reason of `validate_template`, from a loop over
    all n^2 label pairs, or None when support symmetry holds."""
    sides = {(cls.label, j) for cls in template.classes
             for j, cj in enumerate(cls.vector, start=1) if cj > 0}
    for i in range(1, template.n + 1):
        if all(cls.label != i for cls in template.classes):
            return f"support_symmetry: label {i} has no class"
    for i in range(1, template.n + 1):
        for j in range(1, template.n + 1):
            if ((i, j) in sides) != ((j, i) in sides):
                return (f"support_symmetry: labels ({i}, {j}) are adjacent from one "
                        "side only")
    return None


def dropped_entry(rng, spec):
    """Copy of the spec with one entry of a law of two or more entries
    dropped and the rest reweighted at random: a class that entry forced
    loses its mass, so condition i may fail; None when no law has two."""
    keys = [key for key in sorted(spec.offspring) if len(spec.offspring[key]) > 1]
    if not keys:
        return None
    offspring = dict(spec.offspring)
    key = rng.choice(keys)
    kept = sorted(offspring[key])
    kept.remove(rng.choice(kept))
    raw = {c: rng.randint(1, 9) for c in kept}
    offspring[key] = {c: Fraction(r, sum(raw.values())) for c, r in raw.items()}
    return GWSpec(n=spec.n, mode=PAIR, offspring=offspring)


def first_visit_condition_i(spec: GWSpec):
    """Condition i (`checker._condition_i`) as a loop over the laws: the stored keys
    (j, i) in (i, j) order, their sorted entries e, c = e + e_j, each class
    (i, c) checked at its first visit, every positive coordinate k of c
    looked up with `pair_prob`."""
    seen = set()
    for (j, i) in sorted(spec.offspring, key=lambda key: (key[1], key[0])):
        for e in sorted(spec.offspring[(j, i)]):
            c = increment(e, j)
            if (i, c) in seen:
                continue
            seen.add((i, c))
            for k, ck in enumerate(c, start=1):
                if ck > 0 and spec.pair_prob(k, i, decrement(c, k)) == 0:
                    return False, (i, j, k, c)
    return True, None


def every_visit_condition_i(spec: GWSpec):
    """Condition i (`checker._condition_i`) as a loop that re-checks a class (i, c)
    at every neighbor label j that forces it, each time over all of c's
    positive coordinates."""
    for (j, i) in sorted(spec.offspring, key=lambda key: (key[1], key[0])):
        for e in sorted(spec.offspring[(j, i)]):
            c = increment(e, j)
            for k, ck in enumerate(c, start=1):
                if ck > 0 and spec.pair_prob(k, i, decrement(c, k)) == 0:
                    return False, (i, j, k, c)
    return True, None


# ---------------------------------------------------------------------------
# Per-degree multinomial oracle (support completeness + swap identity)
# ---------------------------------------------------------------------------

def swap(c: Vector, j: int, k: int) -> Vector:
    """Move one unit from label j to label k: increment(decrement(c, j), k)."""
    return increment(decrement(c, j), k)


def active_labels(dist) -> set:
    """Labels that occur with positive count somewhere in the support."""
    if not dist:
        raise InvalidDistributionError("empty distribution")
    out = set()
    for c in dist:
        for j, cj in enumerate(c, start=1):
            if cj > 0:
                out.add(j)
    return out


def is_degree_multinomial(conditional, degree: int, n: int) -> bool:
    """Decide multinomiality of a conditional law at one degree without
    fitting parameters: the support must be all compositions of the degree
    over the active labels, and each label swap must shift mass by the
    characteristic occupancy ratio."""
    active = sorted(active_labels(conditional))
    if degree == 0:
        return list(conditional) == [(0,) * n]

    def compositions(d, slots):
        if slots == 1:
            yield (d,)
            return
        for first in range(d + 1):
            for rest in compositions(d - first, slots - 1):
                yield (first,) + rest

    support = set(conditional)
    expected_support = set()
    for comp in compositions(degree, len(active)):
        c = [0] * n
        for slot, cnt in zip(active, comp):
            c[slot - 1] = cnt
        expected_support.add(tuple(c))
    if support != expected_support:
        return False

    for c in conditional:
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if j == k or c[j - 1] == 0 or c[k - 1] == 0:
                    continue
                lhs = Fraction(c[j - 1], c[j - 1] + 1) * (
                    conditional[c] / conditional[swap(c, j, k)]
                )
                rhs = Fraction(c[k - 1] + 1, c[k - 1]) * (
                    conditional[swap(c, k, j)] / conditional[c]
                )
                if lhs != rhs:
                    return False
    return True


def conditional_by_degree(dist):
    """Split a law into exact conditionals keyed by total."""
    grouped = {}
    for c, p in dist.items():
        grouped.setdefault(sum(c), {})[c] = p
    return {
        d: {c: p / sum(sub.values()) for c, p in sub.items()}
        for d, sub in grouped.items()
    }


def plain_cycle_product(pspec: PlainSpec, cycle: List[int]) -> Fraction:
    """Replay a closed label walk: product of p(i, j) / p(j, i) steps."""
    if cycle[0] != cycle[-1]:
        raise ValueError("cycle must start and end at the same label")
    prod = Fraction(1)
    for i, j in zip(cycle, cycle[1:]):
        prod *= pspec.prob(i, j) / pspec.prob(j, i)
    return prod


def factorial_numerator(c: Vector, a: List[int]) -> int:
    """`norelabel._numerator` as first written: |c|! * prod a_k^c_k /
    prod c_k!, dividing by each c_k! in turn (each division is exact)."""
    num = math.factorial(total(c))
    for ck, ak in zip(c, a):
        if ck:
            num = num * ak ** ck // math.factorial(ck)
    return num


def combinations_numerators(degree: int, a: List[int]) -> Dict[Vector, int]:
    """`norelabel._numerators` as first written: one count vector per
    `combinations_with_replacement` draw of length `degree` from the labels
    with a_k > 0, so O(degree) work per vector."""
    active = [k for k in range(len(a)) if a[k] > 0]
    out: Dict[Vector, int] = {}
    for draw in itertools.combinations_with_replacement(active, degree):
        c = [0] * len(a)
        for k in draw:
            c[k] += 1
        out[tuple(c)] = factorial_numerator(tuple(c), a)
    return out


def multinomial_pmf_oracle(c, params) -> Fraction:
    out = Fraction(math.factorial(sum(c)))
    for ck, p in zip(c, params):
        out *= Fraction(p) ** ck / math.factorial(ck)
    return out


def fraction_mixture(pspec: PlainSpec, i: int, shift: int) -> Dict:
    """`norelabel`'s degree mixture as first written: each degree d of label
    i, with its weight, times every term of the multinomial law of degree
    d + shift on label i's row, one Fraction product per term."""
    row = pspec.params[i]
    active = [k for k, p in enumerate(row) if p > 0]
    dist = {}
    for d, pd in sorted(pspec.degree_dist[i].items()):
        for draw in itertools.combinations_with_replacement(active, d + shift):
            c = tuple(draw.count(k) for k in range(len(row)))
            dist[c] = pd * multinomial_pmf_oracle(c, row)
    return dist


def pmf_extract_plain_spec(spec: GWSpec) -> PlainSpec:
    """`norelabel.extract_plain_spec` as first written: every entry checked
    against its own multinomial probability, built term by term."""
    if spec.mode != PLAIN:
        raise SpecError("extract_plain_spec requires a plain-mode spec")
    for i in range(1, spec.n + 1):
        if i not in spec.offspring:
            raise SpecError(f"label {i} has no offspring law")

    degree_dist: Dict[int, Dict[int, Fraction]] = {}
    params: Dict[int, Tuple[Fraction, ...]] = {}
    for i in range(1, spec.n + 1):
        dist = spec.offspring[i]
        by_degree: Dict[int, dict] = {}
        for c in sorted(dist):
            by_degree.setdefault(total(c), {})[c] = dist[c]
        degree_dist[i] = {d: sum(sub.values()) for d, sub in sorted(by_degree.items())}

        row_of_degree: Dict[int, Tuple[Fraction, ...]] = {}
        for d in sorted(by_degree):
            if d == 0:
                continue  # a single empty vector; multinomial for any row
            sub = by_degree[d]
            mass = degree_dist[i][d]
            row = tuple(
                sum(p * c[j] for c, p in sub.items()) / (mass * d)
                for j in range(spec.n)
            )
            for c in sorted(sub):
                if sub[c] != mass * multinomial_pmf_oracle(c, row):
                    raise NotMultinomialError(i, d, c)
            row_of_degree[d] = row
        rows = [row_of_degree[d] for d in sorted(row_of_degree)]
        if not rows:
            raise SpecError(
                f"label {i} only ever has zero children; its parameter row "
                "is undefined"
            )
        for d, other in sorted(row_of_degree.items())[1:]:
            if other != rows[0]:
                raise DegreeDependentParametersError(i, sorted(row_of_degree)[0], d)
        params[i] = rows[0]
    return PlainSpec(n=spec.n, degree_dist=degree_dist, params=params)


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------

def random_fraction(rng: random.Random, den_max: int = 24) -> Fraction:
    den = rng.randint(2, den_max)
    return Fraction(rng.randint(1, den - 1), den)


def normalized_weights(rng: random.Random, count: int):
    raw = [rng.randint(1, 9) for _ in range(count)]
    s = sum(raw)
    return [Fraction(r, s) for r in raw]


def random_adjacency(rng: random.Random, n: int):
    """Random connected symmetric label relation, self-pairs allowed."""
    pairs = set()
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        pairs.add((a, b))
        pairs.add((b, a))
    if n == 1 or rng.random() < 0.6:
        i = rng.randint(1, n)
        pairs.add((i, i))
    for _ in range(rng.randint(0, n)):
        i, j = rng.randint(1, n), rng.randint(1, n)
        pairs.add((i, j))
        pairs.add((j, i))
    return pairs


def random_template_candidate(rng: random.Random, n: int,
                              max_classes: int = 6) -> SupportTemplate:
    """A structurally valid support template (symmetry + connectivity) whose
    class graph is connected.

    One base class per label covers the label's whole adjacency row (making
    the symmetry condition exact); optional extra classes use sub-rows.
    The forced ratio system need not close; see random_admissible_instance.
    """
    pairs = random_adjacency(rng, n)
    row = {i: sorted({j for (a, j) in pairs if a == i}) for i in range(1, n + 1)}
    classes = []
    for i in range(1, n + 1):
        c = [0] * n
        for j in row[i]:
            c[j - 1] = rng.randint(1, 2)
        classes.append(SupportClass(i, tuple(c)))
    extras = rng.randint(0, max_classes - n)
    for _ in range(extras):
        i = rng.randint(1, n)
        sub = [j for j in row[i] if rng.random() < 0.7] or row[i]
        c = [0] * n
        for j in sub:
            c[j - 1] = rng.randint(1, 3)
        cls = SupportClass(i, tuple(c))
        if cls not in classes:
            classes.append(cls)
    return SupportTemplate(n=n, classes=tuple(classes))


def random_assembled_instance(rng: random.Random, n: int, max_classes: int = 6):
    """Rejection-sample a (template, weights) pair whose forced ratio system
    closes, so a reversible measure exists.  The solved offspring laws need
    not pass the full admissibility gate (leaf-like classes break pair-type
    strong connectivity)."""
    from gwrev.parametrizer import (
        InconsistentRatiosError,
        assemble_measure,
    )

    while True:
        template = random_template_candidate(rng, n, max_classes)
        weights = random_template_weights(rng, template)
        try:
            measure = assemble_measure(template, weights)
        except InconsistentRatiosError:
            continue
        return template, weights, measure


def random_admissible_instance(rng: random.Random, n: int, max_classes: int = 6):
    """Rejection-sample a (template, weights) pair whose solved offspring
    laws pass every admissibility check, so the constructor accepts them.
    A dozen draws suffice in practice; a checker that never passes fails
    after 1,000 instead of looping."""
    from gwrev.checker import run_checks

    for _ in range(1000):
        template, weights, measure = random_assembled_instance(rng, n, max_classes)
        if run_checks(measure.descendants).ok():
            return template, weights
    raise AssertionError(f"no admissible instance on {n} labels in 1,000 draws")


def random_template_weights(rng: random.Random, template: SupportTemplate):
    weights = {}
    for i in range(1, template.n + 1):
        group = [cls for cls in template.classes if cls.label == i]
        for cls, w in zip(group, normalized_weights(rng, len(group))):
            weights[cls] = w
    return weights


def random_plain_spec(rng: random.Random, n: int) -> PlainSpec:
    """A PlainSpec satisfying the cycle identity by construction: edge
    weights w(i,j) = w(j,i) and label potentials phi combine into rows
    p(i, j) proportional to w(i,j) * phi(j)."""
    pairs = random_adjacency(rng, n)
    w = {}
    for (i, j) in pairs:
        key = (min(i, j), max(i, j))
        if key not in w:
            w[key] = rng.randint(1, 9)
    phi = {i: rng.randint(1, 9) for i in range(1, n + 1)}
    params = {}
    for i in range(1, n + 1):
        raw = [
            Fraction(w.get((min(i, j), max(i, j)), 0) * phi[j])
            for j in range(1, n + 1)
        ]
        s = sum(raw)
        params[i] = tuple(x / s for x in raw)
    degree_dist = {}
    for i in range(1, n + 1):
        degs = sorted(rng.sample(range(1, 5), rng.randint(1, 2)))
        if rng.random() < 0.3:
            degs = [0] + degs
        probs = normalized_weights(rng, len(degs))
        degree_dist[i] = dict(zip(degs, probs))
    return PlainSpec(n=n, degree_dist=degree_dist, params=params)


def redrawn_rows(rng: random.Random, pspec: PlainSpec) -> PlainSpec:
    """A copy of the plain spec with every parameter row redrawn on the same
    support: the cycle identity then fails wherever the label graph has a
    cycle."""
    params = {}
    for i, row in pspec.params.items():
        raw = [rng.randint(1, 9) if p > 0 else 0 for p in row]
        params[i] = tuple(Fraction(r, sum(raw)) for r in raw)
    return PlainSpec(n=pspec.n, degree_dist=pspec.degree_dist, params=params)


def random_single_type_law(rng: random.Random):
    """Finite offspring law for one label: {child count: probability}."""
    counts = sorted(rng.sample(range(0, 5), rng.randint(2, 4)))
    if all(k == 0 for k in counts):
        counts.append(1)
    return dict(zip(counts, normalized_weights(rng, len(counts))))


def random_connected_graph(rng: random.Random, max_vertices: int = 7):
    """Edge list of a random connected simple graph on >= 2 vertices."""
    m = rng.randint(2, max_vertices)
    vertices = list(range(m))
    rng.shuffle(vertices)
    edges = {tuple(sorted((vertices[k - 1], vertices[k]))) for k in range(1, m)}
    for _ in range(rng.randint(0, m)):
        u, v = rng.sample(range(m), 2)
        edges.add(tuple(sorted((u, v))))
    return sorted(edges)


def random_cubic_graph(rng: random.Random, vertices: int):
    """Edge list of a random connected simple 3-regular graph: the pairing
    model, drawn again until simple and connected."""
    while True:
        points = [v for v in range(vertices) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == len(points) // 2 and all(a != b for a, b in edges):
            graph = FiniteGraph.from_edges(sorted(edges))
            if graph.connected():
                return sorted(edges)


def random_circulant(rng: random.Random, max_vertices: int = 12):
    """Edge list of a random circulant graph C_m(S), S a nonempty set of
    jumps in 1..m/2; it is vertex-transitive, and disconnected when the jumps
    share a factor with m."""
    m = rng.randint(3, max_vertices)
    jumps = rng.sample(range(1, m // 2 + 1), rng.randint(1, m // 2))
    return sorted({(min(v, (v + s) % m), max(v, (v + s) % m))
                   for v in range(m) for s in jumps})


def random_corpus():
    """The documents of the random corpora, as object trees for
    `canonical_json` or as measures for `measure_json`: constructed,
    assembled, plain and lifted measures."""
    rng = random.Random(12)
    for _ in range(150):
        template = random_template_candidate(rng, rng.randint(1, 4))
        weights = random_template_weights(rng, template)
        spec = solve_offspring(template, weights)
        report = run_checks(spec)
        yield template_to_obj(template)
        yield weights_to_obj(weights)
        yield spec_to_obj(spec)
        yield fileformats.report_to_obj(report)
        if report.ok():
            yield construct_measure(spec)
    for _ in range(60):
        template, weights = random_admissible_instance(rng, rng.randint(1, 4))
        yield assemble_measure(template, weights)
    for _ in range(60):
        pspec = random_plain_spec(rng, rng.randint(1, 4))
        report = run_plain_checks(pspec)
        yield plain_spec_to_obj(pspec)
        yield fileformats.plain_report_to_obj(report)
        if report.ok():
            yield construct_plain_measure(pspec)
    for _ in range(40):
        graph = FiniteGraph.from_edges(random_connected_graph(rng))
        yield lift_measure(graph, label_vertices(graph))


def corpus_measures():
    """The measures of `random_corpus`."""
    return [doc for doc in random_corpus() if isinstance(doc, RootMeasure)]


def _permute_entries(row, tau) -> tuple:
    """A vector (or parameter row) indexed by labels, label j moved to tau[j]."""
    out = list(row)
    for j, x in enumerate(row, start=1):
        out[tau[j] - 1] = x
    return tuple(out)


def _permute_law(dist, tau) -> dict:
    return {_permute_entries(c, tau): p for c, p in dist.items()}


def permute_spec(spec, tau):
    """The spec (a GWSpec in either mode, or a PlainSpec) with every label i
    renamed tau[i]."""
    if isinstance(spec, PlainSpec):
        return PlainSpec(
            n=spec.n,
            degree_dist={tau[i]: dict(dd) for i, dd in spec.degree_dist.items()},
            params={tau[i]: _permute_entries(row, tau) for i, row in spec.params.items()},
        )
    offspring = {
        ((tau[key[0]], tau[key[1]]) if spec.mode == PAIR else tau[key]): _permute_law(dist, tau)
        for key, dist in spec.offspring.items()
    }
    return GWSpec(n=spec.n, mode=spec.mode, offspring=offspring)


def permute_class(cls: SupportClass, tau) -> SupportClass:
    """The class with every label i renamed tau[i]."""
    return SupportClass(tau[cls.label], _permute_entries(cls.vector, tau))


def permute_measure(measure: RootMeasure, tau) -> RootMeasure:
    """The measure with every label i renamed tau[i]."""
    return RootMeasure(
        n=measure.n,
        root_dist={tau[i]: p for i, p in measure.root_dist.items()},
        neighbor_dist={tau[i]: _permute_law(dist, tau)
                       for i, dist in measure.neighbor_dist.items()},
        descendants=permute_spec(measure.descendants, tau),
    )


# ---------------------------------------------------------------------------
# Pairwise template checks, transcribed class pair by class pair
# ---------------------------------------------------------------------------

def _neighbors(u, v) -> bool:
    """Classes (i, c), (j, d) can sit next to each other: c_j > 0 and d_i > 0."""
    (i, c), (j, d) = u, v
    return c[j - 1] > 0 and d[i - 1] > 0


def pairwise_validate_template(template: SupportTemplate):
    """(ok, reason) of support symmetry and chain connectivity, with the
    chains found by joining every neighboring class pair."""
    n = template.n
    classes = list(template.classes)
    for i in range(1, n + 1):
        if not any(cls.label == i for cls in classes):
            return False, f"support_symmetry: label {i} has no class"
    sees = {(cls.label, j) for cls in classes for j in range(1, n + 1) if cls.vector[j - 1] > 0}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if ((i, j) in sees) != ((j, i) in sees):
                return False, (
                    f"support_symmetry: labels ({i}, {j}) are adjacent from one "
                    "side only"
                )
    comp = list(range(len(classes)))
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            if _neighbors(classes[a], classes[b]) and comp[a] != comp[b]:
                old, new = comp[b], comp[a]
                comp = [new if x == old else x for x in comp]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ci = {comp[k] for k, cls in enumerate(classes) if cls.label == i}
            cj = {comp[k] for k, cls in enumerate(classes) if cls.label == j}
            if not ci & cj:
                return False, f"connectivity: no class chain links labels {i} and {j}"
    return True, None


def pairwise_root_weights(template: SupportTemplate, weights, offspring: GWSpec):
    """Root-label weights propagated from label 1 by BFS over the label
    graph, each ratio read off the first admissible class pair, then checked
    against every admissible class pair.  Returns the weights, or the label
    pair (i, j) of the first mismatch in sorted order."""
    n = template.n
    adjacent = {
        i: sorted({
            j for cls in template.classes for j in range(1, n + 1)
            if j != i and ((cls.label == i and cls.vector[j - 1] > 0)
                           or (cls.label == j and cls.vector[i - 1] > 0))
        })
        for i in range(1, n + 1)
    }

    def ratio(i, j, d, e):
        # weight(i) / weight(j) from d of label j (d_i > 0), e of label i (e_j > 0)
        (_, dv), (_, ev) = d, e
        d_minus = dv[: i - 1] + (dv[i - 1] - 1,) + dv[i:]
        e_minus = ev[: j - 1] + (ev[j - 1] - 1,) + ev[j:]
        num = weights[d] * offspring.offspring[(j, i)][e_minus] * Fraction(dv[i - 1], sum(dv))
        den = weights[e] * offspring.offspring[(i, j)][d_minus] * Fraction(ev[j - 1], sum(ev))
        return num / den

    def pairs(i, j):
        ds = [d for d in template.classes if d.label == j and d.vector[i - 1] > 0]
        es = [e for e in template.classes if e.label == i and e.vector[j - 1] > 0]
        return ds, es

    potential = {1: Fraction(1)}
    queue = [1]
    for i in queue:
        for j in adjacent[i]:
            if j not in potential:
                ds, es = pairs(i, j)
                potential[j] = potential[i] / ratio(i, j, ds[0], es[0])
                queue.append(j)
    for i in range(1, n + 1):
        for j in adjacent[i]:
            ds, es = pairs(i, j)
            if any(ratio(i, j, d, e) != potential[i] / potential[j] for d in ds for e in es):
                return (i, j)
    grand = sum(potential.values())
    return {i: potential[i] / grand for i in range(1, n + 1)}


def random_template(rng: random.Random, n: int, max_classes: int = 6) -> SupportTemplate:
    """A template of random classes with entries in {0, 1, 2}; most fail
    support symmetry or chain connectivity."""
    classes = set()
    for _ in range(rng.randint(1, max_classes)):
        c = tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
        if sum(c):
            classes.add(SupportClass(rng.randint(1, n), c))
    if not classes:
        classes.add(SupportClass(1, (1,) + (0,) * (n - 1)))
    return SupportTemplate(n=n, classes=tuple(classes))


def template_of_measure(measure: RootMeasure):
    """Read the support template and class weights back off a measure."""
    classes = tuple(support_classes(measure))
    weights = {
        cls: measure.neighbor_dist[cls.label][cls.vector] for cls in classes
    }
    return SupportTemplate(n=measure.n, classes=classes), weights


# ---------------------------------------------------------------------------
# The per-trial sampler: one generator per trial, trees and walks
# ---------------------------------------------------------------------------

_TWO64 = 1 << 64


class TruncationExceededError(GwrevError):
    """A walk longer than the sampled depth could leave the truncation."""


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Fresh generator for one trial; see `simulator.GENERATOR` for the
    derivation."""
    if not (0 <= seed < _TWO64):
        raise ValueError("seed must fit in 64 bits")
    if not (0 <= trial < _TWO64):
        raise ValueError("trial index must fit in 64 bits")
    return np.random.Generator(np.random.Philox(key=(seed << 64) | trial))


def _draw(rng: np.random.Generator, dist: Dict):
    """Inverse-CDF draw over sorted outcomes (labels or vectors);
    Fraction-vs-float comparisons are exact in Python."""
    u = rng.random()
    acc = Fraction(0)
    items = sorted(dist.items())
    for outcome, p in items:
        acc += p
        if u < acc:
            return outcome
    return items[-1][0]


@dataclass(frozen=True)
class TreeNode:
    label: int
    children: Tuple["TreeNode", ...]


@dataclass(frozen=True)
class LabeledTree:
    """A rooted labeled tree truncated at `depth` levels below the root."""

    root: TreeNode
    depth: int
    n: int

    def node_at(self, path: Tuple[int, ...]) -> TreeNode:
        node = self.root
        for k in path:
            node = node.children[k]
        return node


def _label_counts(children: Tuple[TreeNode, ...], n: int) -> Vector:
    counts = [0] * n
    for child in children:
        counts[child.label - 1] += 1
    return tuple(counts)


def root_class(tree: LabeledTree) -> SupportClass:
    return SupportClass(tree.root.label, _label_counts(tree.root.children, tree.n))


def class_at(tree: LabeledTree, path: Tuple[int, ...]) -> SupportClass:
    """Root class of the tree re-rooted at `path` (its label together with
    all its neighbor labels, parent included)."""
    if len(path) >= tree.depth and path:
        raise TruncationExceededError(
            f"children of a depth-{len(path)} vertex were never sampled"
        )
    if not path:
        return root_class(tree)
    node = tree.node_at(path)
    parent = tree.node_at(path[:-1])
    counts = list(_label_counts(node.children, tree.n))
    counts[parent.label - 1] += 1
    return SupportClass(node.label, tuple(counts))


def _sample_subtree(measure, parent_label, label, remaining, rng) -> TreeNode:
    if remaining == 0:
        return TreeNode(label=label, children=())
    law = measure.descendants.offspring_law(parent_label, label)
    vec = _draw(rng, law)
    children = tuple(
        _sample_subtree(measure, label, j, remaining - 1, rng)
        for j, cj in enumerate(vec, start=1)
        for _ in range(cj)
    )
    return TreeNode(label=label, children=children)


def _sample(measure: RootMeasure, depth: int, rng) -> LabeledTree:
    label = _draw(rng, measure.root_dist)
    vec = _draw(rng, measure.neighbor_dist[label])
    children = tuple(
        _sample_subtree(measure, label, j, depth - 1, rng)
        for j, cj in enumerate(vec, start=1)
        for _ in range(cj)
    )
    return LabeledTree(root=TreeNode(label=label, children=children), depth=depth, n=measure.n)


def sample_tree(measure: RootMeasure, depth: int, seed: int, trial: int = 0) -> LabeledTree:
    """Draw one rooted tree: root label, neighbor vector, then independent
    descendant subtrees down to `depth` levels."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _sample(measure, depth, trial_generator(seed, trial))


def walk(tree: LabeledTree, steps: int, seed: int, trial: int = 0) -> List[Tuple[int, ...]]:
    """Simple random walk started at the root; returns the visited vertices
    as child-index paths, root first."""
    if steps > tree.depth:
        raise TruncationExceededError(
            f"{steps} steps may exit a depth-{tree.depth} truncation"
        )
    rng = trial_generator(seed, trial)
    path: Tuple[int, ...] = ()
    out = [path]
    for _ in range(steps):
        node = tree.node_at(path)
        options = [path[:-1]] if path else []
        options += [path + (k,) for k in range(len(node.children))]
        path = options[int(rng.integers(len(options)))]
        out.append(path)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo through one generator per trial
# ---------------------------------------------------------------------------

def reference_walks(measure: RootMeasure, trials: int, seed: int):
    """The root class and the class one uniform step away, (start, end),
    of each trial's depth-2 tree: the per-trial generator loop that
    `simulator.estimate_flow` replaced."""
    walks = []
    for t in range(trials):
        rng = trial_generator(seed, t)
        tree = _sample(measure, 2, rng)
        start = root_class(tree)
        k = int(rng.integers(total(start.vector)))
        walks.append((start, class_at(tree, (k,))))
    return walks


def flows_of_walks(measure: RootMeasure, source, target, walks, seed: int):
    """The two `FlowEstimate`s of `simulator.estimate_flow` counted over
    `reference_walks`: crossings source -> target and target -> source."""
    from gwrev.simulator import (
        ClassNotInSupportError,
        FlowEstimate,
        _estimate,
        _require_class,
        exact_flow,
    )

    _require_class(measure, source)
    _require_class(measure, target)
    i, c = source
    j, d = target
    if c[j - 1] == 0 or d[i - 1] == 0:
        raise ClassNotInSupportError(
            f"classes {source} and {target} cannot sit next to each other"
        )
    trials = len(walks)
    fwd = walks.count((source, target))
    bwd = walks.count((target, source))
    mean_f, se_f = _estimate(float(fwd), float(fwd), trials)
    mean_b, se_b = _estimate(float(bwd), float(bwd), trials)
    return (
        FlowEstimate(mean_f, se_f, exact_flow(measure, source, target), trials, seed),
        FlowEstimate(mean_b, se_b, exact_flow(measure, target, source), trials, seed),
    )


def reference_estimate_flow(measure: RootMeasure, source, target, trials: int, seed: int):
    """`simulator.estimate_flow` as a loop over per-trial generators, one
    tree and one step per trial, as it ran before the counter-based bulk
    path."""
    return flows_of_walks(measure, source, target, reference_walks(measure, trials, seed), seed)


def fraction_cdf(dist: Dict) -> Tuple[list, List[int]]:
    """The law's outcomes in sorted order and the thresholds
    ceil(acc * 2**53) of their cumulative sums acc, by the Fraction walk
    of `_draw`: the reference of `simulator._cdf`."""
    items = sorted(dist.items())
    acc = Fraction(0)
    thresholds = []
    for _, p in items:
        acc += p
        thresholds.append(math.ceil(acc * 2**53))
    return [outcome for outcome, _ in items], thresholds


def fraction_inverse_degree_mass(measure: RootMeasure) -> Fraction:
    """The mean of 1 / deg(root) under the measure, one Fraction addition
    per class: the reference of `simulator.inverse_degree_mass`."""
    out = Fraction(0)
    for i in sorted(measure.root_dist):
        for c, p in sorted(measure.neighbor_dist[i].items()):
            out += measure.root_dist[i] * p / total(c)
    return out


def fraction_transport_mass(measure: RootMeasure, i: int, j: int) -> Fraction:
    """The mean of (#j-neighbors / deg) on the i-labeled root event, one
    Fraction addition per class: the reference of
    `simulator._transport_mass`."""
    num = Fraction(0)
    for c, p in sorted(measure.neighbor_dist[i].items()):
        num += measure.root_dist[i] * p * Fraction(c[j - 1], total(c))
    return num


def loop_root_draws(measure, words: np.ndarray) -> np.ndarray:
    """`simulator._RootDraws` as a loop over the labels a block draws: each
    label's trials picked by a full-length mask and drawn by their own
    `searchsorted`, the body the bulk draw had before its one search.
    Class indices count the classes of `_RootDraws.classes`, label by label
    in sorted order."""
    from gwrev.simulator import _cdf, _pick

    labels, label_cdf = _cdf(measure.root_dist)
    first, vector_cdf, classes = [], [], 0
    for label in labels:
        _, cdf = _cdf(measure.neighbor_dist[label])
        first.append(classes)
        vector_cdf.append(cdf)
        classes += len(cdf)
    at = _pick(label_cdf, words[0])
    out = np.empty(len(at), dtype=np.int64)
    for a in np.flatnonzero(np.bincount(at, minlength=len(first))):
        mine = at == a
        out[mine] = first[a] + _pick(vector_cdf[a], words[1][mine])
    return out


def reference_mass_transport_check(measure: RootMeasure, i: int, j: int, trials: int, seed: int):
    """`simulator.mass_transport_check` as a loop over per-trial generators:
    the body it had before the counter-based bulk path, with the exact
    references from the Fraction loops above."""
    from gwrev.simulator import FlowEstimate, _estimate

    z = fraction_inverse_degree_mass(measure)
    z_f = float(z)
    sum_f = sq_f = sum_b = sq_b = 0.0
    for t in range(trials):
        rng = trial_generator(seed, t)
        label = _draw(rng, measure.root_dist)
        vec = _draw(rng, measure.neighbor_dist[label])
        deg = total(vec)
        if label == i:
            v = vec[j - 1] / deg / z_f
            sum_f += v
            sq_f += v * v
        if label == j:
            v = vec[i - 1] / deg / z_f
            sum_b += v
            sq_b += v * v
    mean_f, se_f = _estimate(sum_f, sq_f, trials)
    mean_b, se_b = _estimate(sum_b, sq_b, trials)
    return (
        FlowEstimate(mean_f, se_f, fraction_transport_mass(measure, i, j) / z, trials, seed),
        FlowEstimate(mean_b, se_b, fraction_transport_mass(measure, j, i) / z, trials, seed),
    )


def uint32_halves(words):
    """The 32-bit draws a numpy bit generator makes of 64-bit words: the low
    half of each word first, then its buffered high half."""
    for w in words:
        yield w & 0xFFFFFFFF
        yield w >> 32


def buffered_bounded_lemire_uint32(next_uint32, rng: int) -> int:
    """numpy's `buffered_bounded_lemire_uint32` (random/src/distributions/
    distributions.c): a uniform integer in [0, rng] for 0 < rng < 2**32 - 1,
    drawing 32-bit values from `next_uint32()` until one is accepted."""
    rng_excl = rng + 1
    m = next_uint32() * rng_excl
    leftover = m & 0xFFFFFFFF
    if leftover < rng_excl:
        threshold = (0xFFFFFFFF - rng) % rng_excl
        while leftover < threshold:
            m = next_uint32() * rng_excl
            leftover = m & 0xFFFFFFFF
    return m >> 32


def bounded_integer(words, m: int) -> int:
    """`Generator.integers(m)` for 1 <= m < 2**32 from the 64-bit words that
    follow: m == 1 draws nothing, as numpy's range-0 branch does."""
    if m == 1:
        return 0
    return buffered_bounded_lemire_uint32(uint32_halves(words).__next__, m - 1)


# ---------------------------------------------------------------------------
# Automorphism orbits by blind backtracking
# ---------------------------------------------------------------------------

def backtracking_rooted_isomorphic(graph: FiniteGraph, x: int, y: int) -> bool:
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


def backtracking_label_vertices(graph: FiniteGraph, max_vertices: int = 10) -> Dict[int, int]:
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
            if backtracking_rooted_isomorphic(graph, rep, v):
                labels[v] = labels[rep]
                break
        else:
            reps.append(v)
            labels[v] = len(reps)
    return labels


# ---------------------------------------------------------------------------
# The pair digraph from the graph and its labels
# ---------------------------------------------------------------------------

def graph_pair_digraph(graph: FiniteGraph, labels: Dict[int, int]) -> PairDigraph:
    """`covers.pair_digraph` as first written, from the graph instead of the
    lift: node (j, i) stands for "an i vertex entered from a j neighbor" and
    sends m edges to (i, k) when such a vertex has m other neighbors labeled
    k.  All realizations of (j, i) must agree on those counts."""
    n = max(labels.values())
    rest_of: Dict[Tuple[int, int], Vector] = {}
    for v in range(graph.vertex_count):
        i = labels[v]
        counts = [0] * n
        for w in graph.neighbors(v):
            counts[labels[w] - 1] += 1
        for j in sorted({labels[w] for w in graph.neighbors(v)}):
            rest = decrement(tuple(counts), j)
            key = (j, i)
            if key in rest_of and rest_of[key] != rest:
                raise IllDefinedLabelingError(
                    f"vertices of pair {key} disagree on their remaining "
                    f"neighbor counts: {rest_of[key]} vs {rest}"
                )
            rest_of[key] = rest
    multiplicity = {}
    for (j, i), rest in rest_of.items():
        for k, m in enumerate(rest, start=1):
            if m > 0:
                multiplicity[((j, i), (i, k))] = m
    return PairDigraph(nodes=sorted(rest_of), multiplicity=multiplicity)


# ---------------------------------------------------------------------------
# The document path as it was first written: json's own encoder, Fraction's
# own parser and the Fraction sum; and the writers of the input documents
# (specs, templates and weights), which the CLI only reads
# ---------------------------------------------------------------------------

def json_canonical(obj) -> str:
    """Canonical JSON by json.dumps: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dist_to_obj(dist) -> list:
    return [{"c": list(c), "p": str(p)} for c, p in sorted(dist.items())]


def spec_to_obj(spec: GWSpec) -> dict:
    """A spec document, as the CLI reads it."""
    entries = []
    for key in sorted(spec.offspring):
        dist = _dist_to_obj(spec.offspring[key])
        if spec.mode == PAIR:
            entries.append({"parent": key[0], "child": key[1], "dist": dist})
        else:
            entries.append({"type": key, "dist": dist})
    return {"n": spec.n, "mode": spec.mode, "offspring": entries}


def plain_spec_to_obj(pspec: PlainSpec) -> dict:
    """A spec document in the direct plain form: degree laws and the
    parameter matrix."""
    return {
        "n": pspec.n,
        "mode": PLAIN,
        "degree_dist": [
            {"type": i, "dist": [{"d": d, "p": str(p)}
                                 for d, p in sorted(pspec.degree_dist[i].items())]}
            for i in sorted(pspec.degree_dist)
        ],
        "params": [[str(p) for p in pspec.params[i]] for i in range(1, pspec.n + 1)],
    }


def template_to_obj(template: SupportTemplate) -> dict:
    return {
        "n": template.n,
        "classes": [{"label": cls.label, "c": list(cls.vector)} for cls in template.classes],
    }


def weights_to_obj(weights) -> dict:
    return {
        "weights": [{"label": cls.label, "c": list(cls.vector), "p": str(w)}
                    for cls, w in sorted(weights.items())]
    }


def measure_obj(measure: RootMeasure, verified: bool = True) -> dict:
    """A measure document as an object tree, for `json_canonical`; the
    reference for `fileformats.measure_json`."""
    def law(dist):
        return [{"c": list(c), "p": str(p)} for c, p in sorted(dist.items())]

    spec = measure.descendants
    if spec.mode == PAIR:
        offspring = [{"parent": i, "child": j, "dist": law(spec.offspring[(i, j)])}
                     for i, j in sorted(spec.offspring)]
    else:
        offspring = [{"type": i, "dist": law(spec.offspring[i])}
                     for i in sorted(spec.offspring)]
    return {
        "root": [{"label": i, "p": str(p)} for i, p in sorted(measure.root_dist.items())],
        "neighbors": [{"label": i, "dist": law(measure.neighbor_dist[i])}
                      for i in sorted(measure.neighbor_dist)],
        "descendants": {"n": spec.n, "mode": spec.mode, "offspring": offspring},
        "verified": bool(verified),
    }


_RATIONAL_LITERAL = re.compile(r"^-?\d+(/\d+)?$")


def fraction_parse(text) -> Fraction:
    """A rational literal checked by a regex, then parsed by Fraction."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_LITERAL.match(text.strip()):
        raise SpecError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise SpecError(f"zero denominator in {text!r}") from None


def summing_validate_dist(dist, n: int, *, min_total: int = 0) -> None:
    """`core.validate_dist` by Fraction comparisons and a Fraction sum."""
    if not dist:
        raise InvalidDistributionError("empty distribution")
    s = Fraction(0)
    for c, p in dist.items():
        if len(c) != n:
            raise InvalidDistributionError(f"vector {c} has length {len(c)}, expected {n}")
        if any(x < 0 for x in c):
            raise InvalidDistributionError(f"vector {c} has a negative count")
        if total(c) < min_total:
            raise InvalidDistributionError(f"vector {c} has total < {min_total}")
        if not isinstance(p, Fraction):
            raise InvalidDistributionError(f"probability of {c} is not a Fraction: {p!r}")
        if p <= 0 or p > 1:
            raise InvalidDistributionError(f"probability of {c} is {p}, outside (0, 1]")
        s += p
    if s != 1:
        raise InvalidDistributionError(f"probabilities sum to {s}, expected 1")
