"""Seeded instance generators for the benchmark workloads.

Nothing here imports gwrev: every input document, and every verdict the
benchmark expects for it, is derived from first principles, so changes to
the library or to its test suite cannot shift the workloads.

A class is a pair (label, vector) with 1-based labels; weights, laws and
measures are dicts of `Fraction`s.  Documents follow the gwrev JSON formats.
"""

from __future__ import annotations

import json
from fractions import Fraction


def dumps(obj) -> str:
    """Compact JSON; gwrev reads any layout, and the C encoder keeps set-up
    cheap."""
    return json.dumps(obj, sort_keys=True) + "\n"


def dec(c, j):
    """Vector c with one unit removed at label j."""
    return c[: j - 1] + (c[j - 1] - 1,) + c[j:]


# ---------------------------------------------------------------------------
# Pair mode: templates, the laws their weights force, and root weights
# ---------------------------------------------------------------------------

def _per_label(raw):
    sums = {}
    for (i, _), r in raw.items():
        sums[i] = sums.get(i, 0) + r
    return {cls: Fraction(r, sums[cls[0]]) for cls, r in raw.items()}


def random_weights(rng, classes, bits):
    """Random positive integer weight per class, normalized within each label."""
    return _per_label({cls: rng.randrange(1, 1 << bits) for cls in classes})


def heavy_weights(rng, classes, heavy, factor):
    """Weights within a factor 2 of each other, except the `heavy` classes,
    which are `factor` times heavier; normalized within each label."""
    return _per_label({cls: rng.randrange(1 << 15, 1 << 16) * (factor if cls in heavy else 1)
                       for cls in classes})


def forced_laws(n, weights):
    """Offspring laws forced by class weights, with their normalizers.

    Law (i, j) (parent label i, own label j) puts mass proportional to
    w(j, d) * d_i / |d| on d - e_i, over the label-j classes with d_i > 0;
    N[(i, j)] is the sum of those masses.
    """
    raw = {}
    for (j, d), w in weights.items():
        for i in range(1, n + 1):
            if d[i - 1] > 0:
                raw.setdefault((i, j), {})[dec(d, i)] = w * Fraction(d[i - 1], sum(d))
    norm = {key: sum(law.values()) for key, law in raw.items()}
    laws = {key: {e: p / norm[key] for e, p in law.items()} for key, law in raw.items()}
    return laws, norm


def label_potentials(n, norm):
    """Root-label weights forced by detailed balance: weight(i) / weight(j)
    = N(i, j) / N(j, i) for every adjacent label pair.  Returns (root, ok)
    where ok says whether the ratios close around every label cycle."""
    adj = {i: sorted({j for (a, j) in norm if a == i and j != i}) for i in range(1, n + 1)}
    pot = {1: Fraction(1)}
    queue = [1]
    for i in queue:
        for j in adj[i]:
            if j not in pot:
                pot[j] = pot[i] * norm[(j, i)] / norm[(i, j)]
                queue.append(j)
    ok = all(
        pot[i] / pot[j] == norm[(i, j)] / norm[(j, i)]
        for (i, j) in norm
        if i != j
    )
    grand = sum(pot.values())
    return {i: p / grand for i, p in pot.items()}, ok


def template_doc(n, classes):
    return {
        "n": n,
        "classes": [{"label": i, "c": list(c)} for (i, c) in sorted(classes)],
    }


def weights_doc(weights):
    return {
        "weights": [
            {"label": i, "c": list(c), "p": str(p)}
            for (i, c), p in sorted(weights.items())
        ]
    }


def dist_doc(dist):
    return [{"c": list(c), "p": str(p)} for c, p in sorted(dist.items())]


def pair_spec_doc(n, laws):
    return {
        "n": n,
        "mode": "pair",
        "offspring": [
            {"parent": i, "child": j, "dist": dist_doc(laws[(i, j)])}
            for (i, j) in sorted(laws)
        ],
    }


def measure_doc(n, root, weights, laws):
    neighbors = {}
    for (i, c), w in weights.items():
        neighbors.setdefault(i, {})[c] = w
    return {
        "root": [{"label": i, "p": str(root[i])} for i in sorted(root)],
        "neighbors": [
            {"label": i, "dist": dist_doc(neighbors[i])} for i in sorted(neighbors)
        ],
        "descendants": pair_spec_doc(n, laws),
        "verified": True,
    }


def grid_classes(k):
    """The dense two-label template: every (i, (a, b)) with 1 <= a, b <= k."""
    return [(i, (a, b)) for i in (1, 2) for a in range(1, k + 1) for b in range(1, k + 1)]


def flatten_law(laws, key):
    """Copy of the laws with law `key` replaced by the uniform law on its
    support; on a dense grid this breaks cycle consistency (condition ii)."""
    out = dict(laws)
    support = sorted(laws[key])
    out[key] = {e: Fraction(1, len(support)) for e in support}
    return out


def random_label_tree(rng, n):
    """Neighbor-label sets S_i of a random tree on the labels, each label
    with a self-loop at random (label 1 always has one when n = 1)."""
    nbrs = {i: set() for i in range(1, n + 1)}
    for i in range(2, n + 1):
        j = rng.randrange(1, i)
        nbrs[i].add(j)
        nbrs[j].add(i)
    for i in range(1, n + 1):
        if n == 1 or rng.random() < 0.4:
            nbrs[i].add(i)
    return nbrs


def hub_template(rng, n, nbrs, leaf=None):
    """Template over neighbor-label sets `nbrs`: each label gets a hub class
    with every allowed coordinate >= 2 (so the pair types are strongly
    connected and all classes chain together) plus up to two random
    classes.  With `leaf` = (j, i), label j instead has the single class
    e_i, a dead end for pair type (i, j)."""
    classes = set()
    for i in range(1, n + 1):
        allowed = sorted(nbrs[i])
        if leaf is not None and leaf[0] == i:
            classes.add((i, tuple(int(k == leaf[1]) for k in range(1, n + 1))))
            continue
        classes.add((i, tuple(rng.randrange(2, 4) if k in nbrs[i] else 0
                              for k in range(1, n + 1))))
        for _ in range(rng.randrange(0, 3)):
            c = tuple(rng.randrange(0, 3) if k in nbrs[i] else 0 for k in range(1, n + 1))
            if sum(c) == 0:
                c = tuple(int(k == allowed[0]) for k in range(1, n + 1))
            classes.add((i, c))
    return sorted(classes)


def ring_neighbors(n):
    """Labels 1..n on a cycle (n >= 3)."""
    return {i: {(i % n) + 1, ((i - 2) % n) + 1} for i in range(1, n + 1)}


# ---------------------------------------------------------------------------
# Plain mode
# ---------------------------------------------------------------------------

def plain_spec(rng, n, max_degree, reversible):
    """A direct-form plain spec on a sparse random connected label graph
    (a ring when `reversible` is false), with optional self-loops.

    Rows are p(i, j) = C(i, j) / sum_k C(i, k).  With symmetric C the
    cycle identity holds (weight(i) is proportional to the row sum);
    otherwise C is drawn independently per direction around a label cycle.
    Returns (doc, params) with params[i][j - 1] = p(i, j).
    """
    if reversible:
        edges = {(rng.randrange(max(1, i - 2), i), i) for i in range(2, n + 1)}
        if n >= 3 and rng.random() < 0.5:
            edges.add((1, n))
    else:
        edges = {(i, i % n + 1) if i < i % n + 1 else (i % n + 1, i) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        if n == 1 or rng.random() < 0.3:
            edges.add((i, i))
    cond = {}
    for (i, j) in edges:
        c = rng.randrange(1, 10)
        cond[(i, j)] = c
        cond[(j, i)] = c if reversible else rng.randrange(1, 10)
    params = {}
    for i in range(1, n + 1):
        row_sum = sum(cond.get((i, j), 0) for j in range(1, n + 1))
        params[i] = tuple(Fraction(cond.get((i, j), 0), row_sum) for j in range(1, n + 1))
    degree_dist = {}
    for i in range(1, n + 1):
        degs = sorted(rng.sample(range(0, max_degree + 1), rng.randrange(1, 3)))
        if degs == [0]:
            degs = [1]
        raw = [rng.randrange(1, 6) for _ in degs]
        degree_dist[i] = {d: Fraction(r, sum(raw)) for d, r in zip(degs, raw)}
    doc = {
        "n": n,
        "mode": "plain",
        "degree_dist": [
            {"type": i, "dist": [{"d": d, "p": str(p)} for d, p in sorted(dd.items())]}
            for i, dd in sorted(degree_dist.items())
        ],
        "params": [[str(p) for p in params[i]] for i in range(1, n + 1)],
    }
    return doc, params


def plain_cycle_consistent(n, params):
    """Does prod p(i, j) / p(j, i) equal 1 around every label cycle?"""
    pot = {1: Fraction(1)}
    queue = [1]
    for i in queue:
        for j in range(1, n + 1):
            if params[i][j - 1] > 0 and j not in pot:
                pot[j] = pot[i] * params[i][j - 1] / params[j][i - 1]
                queue.append(j)
    return all(
        pot[j] / pot[i] == params[i][j - 1] / params[j][i - 1]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if params[i][j - 1] > 0
    )


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def random_connected_graph(rng, vertices):
    """A random spanning tree plus a few extra edges."""
    edges = set()
    for v in range(1, vertices):
        u = rng.randrange(0, v)
        edges.add((u, v))
    for _ in range(rng.randrange(0, vertices)):
        u, v = rng.sample(range(vertices), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def random_cubic_graph(rng, vertices):
    """A connected simple 3-regular graph, by the pairing model with
    rejection."""
    while True:
        points = [v for v in range(vertices) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        ok = True
        for a, b in zip(points[::2], points[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                ok = False
                break
            edges.add(e)
        if ok and _connected(vertices, edges):
            return sorted(edges)


def _connected(vertices, edges):
    adj = {v: [] for v in range(vertices)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == vertices


def graph_text(edges):
    return "".join(f"{u} {v}\n" for u, v in edges)
