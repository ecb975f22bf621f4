"""The benchmark's own correctness checks on gwrev output documents.

Each identity is transcribed from its definition; none calls gwrev, so a
defect in a library routine cannot hide the same defect in its check.
"""

from __future__ import annotations

from fractions import Fraction

from gen import dec


def _dist(entries):
    return {tuple(e["c"]): Fraction(e["p"]) for e in entries}


def parse_laws(spec):
    """Offspring laws of a spec document, keyed (parent, child) in pair mode
    and by the vertex label in plain mode."""
    if spec["mode"] == "pair":
        return {(e["parent"], e["child"]): _dist(e["dist"]) for e in spec["offspring"]}
    return {e["type"]: _dist(e["dist"]) for e in spec["offspring"]}


def parse_measure(doc):
    """(n, pair_mode, class weights, laws) of a measure document, where a
    class weight is the unconditional probability of (label, vector)."""
    root = {e["label"]: Fraction(e["p"]) for e in doc["root"]}
    weights = {
        (e["label"], c): root[e["label"]] * p
        for e in doc["neighbors"]
        for c, p in _dist(e["dist"]).items()
    }
    spec = doc["descendants"]
    return spec["n"], spec["mode"] == "pair", weights, parse_laws(spec)


def _law(laws, pair, parent, label):
    return laws.get((parent, label) if pair else label, {})


def balance_violation(doc):
    """First pair of support classes breaking detailed balance

        w(i, c) p(i,j)(d - e_i) c_j / |c| == w(j, d) p(j,i)(c - e_j) d_i / |d|,

    or None when the measure is exactly reversible."""
    _, pair, weights, laws = parse_measure(doc)
    classes = sorted(weights)
    for a, (i, c) in enumerate(classes):
        for (j, d) in classes[a + 1:]:
            if c[j - 1] == 0 or d[i - 1] == 0:
                continue
            lhs = weights[(i, c)] * _law(laws, pair, i, j).get(dec(d, i), 0) * c[j - 1] * sum(d)
            rhs = weights[(j, d)] * _law(laws, pair, j, i).get(dec(c, j), 0) * d[i - 1] * sum(c)
            if lhs != rhs:
                return (i, c), (j, d)
    return None


def pair_cycle_product(laws, cycle):
    """Product of the forced weight ratios along a closed class walk:
    ratio((i, c), (j, d)) = p(j,i)(c - e_j) d_i |c| / (p(i,j)(d - e_i) c_j |d|).
    Consecutive repeats contribute 1."""
    prod = Fraction(1)
    for (i, c), (j, d) in zip(cycle, cycle[1:]):
        if (i, c) == (j, d):
            continue
        num = laws[(j, i)][dec(c, j)] * d[i - 1] * sum(c)
        den = laws[(i, j)][dec(d, i)] * c[j - 1] * sum(d)
        prod *= Fraction(num) / den
    return prod


def plain_cycle_product(params, cycle):
    """Product of p(i, j) / p(j, i) along a closed label walk."""
    prod = Fraction(1)
    for i, j in zip(cycle, cycle[1:]):
        prod *= params[i][j - 1] / params[j][i - 1]
    return prod


def exact_flow(measure, source, target):
    """One-step flow from class (i, c) to (j, d) of a parsed measure:
    w(i, c) p(i,j)(d - e_i) c_j / |c|."""
    _, pair, weights, laws = measure
    (i, c), (j, d) = source, target
    return weights[source] * _law(laws, pair, i, j).get(dec(d, i), 0) * Fraction(c[j - 1], sum(c))


def exact_transport(measure, i, j):
    """E[c_j / |c| ; root label i] / E[1 / |c|] for a parsed measure: the
    mass an i root sends to its j neighbors under the 1/deg-biased measure."""
    _, _, weights, _ = measure
    z = sum(w / sum(c) for (_, c), w in weights.items())
    sent = sum(w * Fraction(c[j - 1], sum(c)) for (k, c), w in weights.items() if k == i)
    return sent / z


def max_bits(obj):
    """Largest numerator or denominator bit length among the rational
    strings of a parsed JSON document."""
    if isinstance(obj, dict):
        return max((max_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, list):
        return max((max_bits(v) for v in obj), default=0)
    if isinstance(obj, str) and obj[:1].isdigit():
        num, _, den = obj.partition("/")
        if num.isdigit() and (not den or den.isdigit()):
            return max(int(num).bit_length(), int(den or 1).bit_length())
    return 0
