"""Independent oracles and random instance generators for the test suite.

Everything here recomputes expected values from first principles (direct
transcription of the defining identities, exhaustive enumeration, or
brute-force search) without reusing the library code paths under test.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from gwrev.checker import MissingOffspringTermError, _cycle_through
from gwrev.core import (
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
    decrement,
    total,
)
from gwrev.covers import FiniteGraph, GraphTooLargeError
from gwrev.norelabel import (
    DegreeDependentParametersError,
    NotMultinomialError,
    PlainSpec,
)
from gwrev.parametrizer import SupportTemplate


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
    return out


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
# `checker.solve_potentials`
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


# ---------------------------------------------------------------------------
# Per-degree multinomial oracle (support completeness + swap identity)
# ---------------------------------------------------------------------------

def is_degree_multinomial(conditional, degree: int, n: int) -> bool:
    """Decide multinomiality of a conditional law at one degree without
    fitting parameters: the support must be all compositions of the degree
    over the active labels, and each label swap must shift mass by the
    characteristic occupancy ratio."""
    active = sorted(
        {j for c in conditional for j in range(1, n + 1) if c[j - 1] > 0}
    )
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
                c_jk = list(c)
                c_jk[j - 1] -= 1
                c_jk[k - 1] += 1
                c_kj = list(c)
                c_kj[k - 1] -= 1
                c_kj[j - 1] += 1
                lhs = Fraction(c[j - 1], c[j - 1] + 1) * (
                    conditional[c] / conditional[tuple(c_jk)]
                )
                rhs = Fraction(c[k - 1] + 1, c[k - 1]) * (
                    conditional[tuple(c_kj)] / conditional[c]
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


def multinomial_pmf_oracle(c, params) -> Fraction:
    out = Fraction(math.factorial(sum(c)))
    for ck, p in zip(c, params):
        out *= Fraction(p) ** ck / math.factorial(ck)
    return out


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
    laws pass every admissibility check, so the constructor accepts them."""
    from gwrev.checker import run_checks

    while True:
        template, weights, measure = random_assembled_instance(rng, n, max_classes)
        if run_checks(measure.descendants).ok():
            return template, weights


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

def reference_estimate_flow(measure: RootMeasure, source, target, trials: int, seed: int):
    """`simulator.estimate_flow` as a loop over per-trial generators: the
    body it had before the counter-based bulk path."""
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
    fwd = 0
    bwd = 0
    for t in range(trials):
        rng = trial_generator(seed, t)
        tree = _sample(measure, 2, rng)
        start = root_class(tree)
        if start != source and start != target:
            continue
        k = int(rng.integers(total(start.vector)))
        end = class_at(tree, (k,))
        if start == source and end == target:
            fwd += 1
        if start == target and end == source:
            bwd += 1
    mean_f, se_f = _estimate(float(fwd), float(fwd), trials)
    mean_b, se_b = _estimate(float(bwd), float(bwd), trials)
    return (
        FlowEstimate(mean_f, se_f, exact_flow(measure, source, target), trials, seed),
        FlowEstimate(mean_b, se_b, exact_flow(measure, target, source), trials, seed),
    )


def reference_mass_transport_check(measure: RootMeasure, i: int, j: int, trials: int, seed: int):
    """`simulator.mass_transport_check` as a loop over per-trial generators:
    the body it had before the counter-based bulk path."""
    from gwrev.simulator import (
        FlowEstimate,
        _estimate,
        exact_transport,
        inverse_degree_mass,
    )

    z = inverse_degree_mass(measure)
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
        FlowEstimate(mean_f, se_f, exact_transport(measure, i, j), trials, seed),
        FlowEstimate(mean_b, se_b, exact_transport(measure, j, i), trials, seed),
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
# The document path as it was first written: json's own encoder, Fraction's
# own parser and the Fraction sum
# ---------------------------------------------------------------------------

def json_canonical(obj) -> str:
    """Canonical JSON by json.dumps: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
