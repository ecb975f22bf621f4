"""Independent oracles and random instance generators for the test suite.

Everything here recomputes expected values from first principles (direct
transcription of the defining identities, exhaustive enumeration, or
brute-force search) without reusing the library code paths under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from gwrev.core import GWSpec, PAIR, RootMeasure, SupportClass
from gwrev.norelabel import PlainSpec
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
