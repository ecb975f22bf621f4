"""The plain regime: offspring laws keyed by the vertex label alone.

A reversible measure exists here exactly when every per-label offspring law,
conditioned on its total, is multinomial with label probabilities that do
not depend on the total, and those probabilities satisfy the cycle identity
prod p(i_s, i_{s+1}) / p(i_{s+1}, i_s) = 1 around the label graph.

The measure itself shifts every degree up by one (the root keeps its parent
slot) and solves weight(i) / weight(j) = p(j, i) / p(i, j); `core.normalize`
turns the label potentials into the root weights.

The multinomial law is written once, in integers over the row's common
denominator b, p_k = a_k / b: `_numerator` is N(c) = |c|! * prod a_k^c_k /
prod c_k!, so that c has probability N(c) / b^|c|; it is formed from
binomials, so its cost follows the size of N(c), not that of |c|!.
`_numerators` is one degree's table of them, and `_mixtures` a label's
degree mixtures: each degree d of weight u / v spread over the table of
degree d for the offspring law and d + 1 for the root's neighbors, each
value the one Fraction u * N(c) / (v * b^D).  A label builds each
degree's table once and both laws read it.  Extraction scales each
degree's entries and row once and checks each listed entry against
N(c) / b^d in integers, so its cost follows the entries a law lists, not
the size of the expansion.  A degree d whose b^d has more than
`_EXACT_BITS` bits and that lists fewer vectors than the
C(d + k - 1, k - 1) its k labels' multinomial law puts mass on fails at
its first vector, with no comparison that costs more than the document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .checker import label_potentials
from .core import (
    ChecksFailedError,
    Dist,
    GWSpec,
    GwrevError,
    PLAIN,
    RootMeasure,
    SpecError,
    Vector,
    check_weights,
    normalize,
    over_common_denominator,
    total,
)


class NotMultinomialError(GwrevError):
    """A conditional offspring law is not multinomial; carries (label, degree,
    vector) of the first failing entry."""

    name = "not-multinomial"

    def __init__(self, label, degree, vec):
        super().__init__(
            f"law of label {label} at degree {degree} is not multinomial "
            f"(first failure at {vec})"
        )
        self.witness = (label, degree, vec)


class DegreeDependentParametersError(GwrevError):
    """Multinomial parameters differ between two degrees of the same label."""

    name = "degree-dependent-parameters"

    def __init__(self, label, degree_a, degree_b):
        super().__init__(
            f"label {label} has different multinomial parameters at degrees "
            f"{degree_a} and {degree_b}"
        )
        self.witness = (label, degree_a, degree_b)


@dataclass
class PlainSpec:
    """Degree distributions plus one multinomial parameter row per label.

    ``degree_dist[i][d]`` is the probability that a label-i vertex has d
    children; ``params[i]`` is the length-n row of label probabilities for
    each child slot.
    """

    n: int
    degree_dist: Dict[int, Dict[int, Fraction]]
    params: Dict[int, Tuple[Fraction, ...]]
    # a class attribute, not a field: `spec.mode` names the regime of every
    # spec form
    mode = PLAIN

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("n must be >= 1")
        if sorted(self.degree_dist) != list(range(1, self.n + 1)):
            raise SpecError("degree distributions must cover every label")
        if sorted(self.params) != list(range(1, self.n + 1)):
            raise SpecError("parameter rows must cover every label")
        for i, dd in self.degree_dist.items():
            for d in dd:
                if d < 0:
                    raise SpecError(f"label {i} has a negative degree {d}")
            check_weights(dd, f"degree weights of label {i}")
        for i, row in self.params.items():
            if len(row) != self.n:
                raise SpecError(f"parameter row of label {i} has wrong length")
            # keyed by the child label
            check_weights(dict(enumerate(row, start=1)), f"parameters of label {i}", zero=True)

    def prob(self, i: int, j: int) -> Fraction:
        return self.params[i][j - 1]


# ---------------------------------------------------------------------------
# Multinomial expansion
# ---------------------------------------------------------------------------

def _numerator(c: Vector, a: List[int]) -> int:
    """N(c) = |c|! * prod a_k^c_k / prod c_k!, the multinomial probability of
    the count vector c times b^|c|, formed with no factorial as
    prod C(s_k, c_k) * a_k^c_k for the running sums s_k = c_1 + ... + c_k."""
    num, s = 1, 0
    for ck, ak in zip(c, a):
        if ck:
            s += ck
            num *= math.comb(s, ck) * ak ** ck
    return num


def _numerators(degree: int, a: List[int]) -> Dict[Vector, int]:
    """N(c) of every count vector of total `degree` on the labels with
    a_k > 0, in `combinations_with_replacement` order: the first active
    label's count falls from `degree` to 0, and for each the rest follow in
    this order on the remaining total.  Each vector costs O(n) work, however
    large the degree.  A parameter row sums to 1, so some a_k > 0."""
    n = len(a)
    active = [k for k in range(n) if a[k] > 0]
    # the counts on the active labels (a single zero when there are none)
    x = [degree] + [0] * (len(active) - 1)
    c = [0] * n
    out: Dict[Vector, int] = {}
    while True:
        for k, xk in zip(active, x):
            c[k] = xk
        vec = tuple(c)
        out[vec] = _numerator(vec, a)
        # the successor: the last count before the final one that can fall
        # gives one, and the final count moves next to it
        p = len(x) - 2
        while p >= 0 and not x[p]:
            p -= 1
        if p < 0:
            return out
        rest, x[-1] = x[-1], 0
        x[p] -= 1
        x[p + 1] = rest + 1


def _mixtures(pspec: PlainSpec, i: int, shifts: Tuple[int, ...]) -> List[Dist]:
    """Label i's degree mixtures, one per shift: each degree d, with its
    weight u / v, spread over the multinomial law of degree d + shift, each
    value the one Fraction u * N(c) / (v * b^(d + shift)).  The table of N
    of a degree is built once, whichever mixtures read it."""
    a, b = over_common_denominator([p.as_integer_ratio() for p in pspec.params[i]])
    degrees = sorted(pspec.degree_dist[i].items())
    tables: Dict[int, Dict[Vector, int]] = {}
    laws = []
    for shift in shifts:
        dist: Dist = {}
        for d, pd in degrees:
            table = tables.get(d + shift)
            if table is None:
                table = tables[d + shift] = _numerators(d + shift, a)
            u, v = pd.numerator, pd.denominator * b ** (d + shift)
            for c, num in table.items():
                dist[c] = Fraction(u * num, v)
        laws.append(dist)
    return laws


# ---------------------------------------------------------------------------
# Extraction from an explicit plain spec
# ---------------------------------------------------------------------------

# the most bits of b^d a degree with too few vectors is compared in
_EXACT_BITS = 1 << 16


def extract_plain_spec(spec: GWSpec) -> PlainSpec:
    """Verify that each per-label law is multinomial given its degree, with
    degree-independent parameters, and read those parameters off.

    Raises NotMultinomialError or DegreeDependentParametersError with the
    first witness in sorted order.
    """
    if spec.mode != PLAIN:
        raise SpecError("extract_plain_spec requires a plain-mode spec")
    for i in range(1, spec.n + 1):
        if i not in spec.offspring:
            raise SpecError(f"label {i} has no offspring law")

    degree_dist: Dict[int, Dict[int, Fraction]] = {}
    params: Dict[int, Tuple[Fraction, ...]] = {}
    for i in range(1, spec.n + 1):
        dist = spec.offspring[i]
        by_degree: Dict[int, Dist] = {}
        for c in sorted(dist):
            by_degree.setdefault(total(c), {})[c] = dist[c]
        degree_dist[i], row_of_degree = {}, {}
        for d, sub in sorted(by_degree.items()):
            # sub[c] = x(c) / L, so the degree has mass M / L, M the sum of x(c)
            xs, common = over_common_denominator([p.as_integer_ratio() for p in sub.values()])
            mass = sum(xs)
            degree_dist[i][d] = Fraction(mass, common)
            if d == 0:
                continue  # a single empty vector; multinomial for any row
            # p_k = (sum of x(c) * c_k) / (d * M); check sub[c] = (M / L) * N(c) / b^d
            row = tuple(Fraction(sum([x * c[k] for c, x in zip(sub, xs)]), d * mass)
                        for k in range(spec.n))
            a, b = over_common_denominator([p.as_integer_ratio() for p in row])
            k = len(a) - a.count(0)
            if d * b.bit_length() > _EXACT_BITS and len(sub) < math.comb(d + k - 1, k - 1):
                raise NotMultinomialError(i, d, next(iter(sub)))
            scale = b ** d
            for c, x in zip(sub, xs):
                if x * scale != mass * _numerator(c, a):
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


def expand_plain_spec(pspec: PlainSpec) -> GWSpec:
    """Explicit per-label offspring distributions for a PlainSpec."""
    offspring = {i: _mixtures(pspec, i, (0,))[0] for i in range(1, pspec.n + 1)}
    return GWSpec(n=pspec.n, mode=PLAIN, offspring=offspring)


# ---------------------------------------------------------------------------
# Checks and construction
# ---------------------------------------------------------------------------

@dataclass
class PlainCheckReport:
    """Outcome of the plain-mode admissibility checks."""

    multinomial: bool
    multinomial_error: Optional[str]
    multinomial_witness: Optional[tuple]
    cycles: Optional[bool]
    violating_cycle: Optional[List[int]]
    connected: Optional[bool]
    # the PlainSpec decided and its label potentials, kept for the
    # constructor; None when extraction failed, and the potentials also
    # when the adjacency is asymmetric
    pspec: Optional[PlainSpec] = field(default=None, repr=False, compare=False)
    potentials: Optional[Dict[int, Fraction]] = field(default=None, repr=False, compare=False)

    def ok(self) -> bool:
        return self.multinomial and self.cycles is True and self.connected is True

    def failed_names(self) -> List[str]:
        out = []
        if not self.multinomial:
            out.append(self.multinomial_error or "multinomial")
        if self.cycles is False:
            out.append("cycles")
        if self.connected is False:
            out.append("connected")
        return out


def run_plain_checks(spec: Union[GWSpec, PlainSpec]) -> PlainCheckReport:
    """Every plain-mode check of a spec in either form, collected in a
    report.

    An explicit GWSpec is first read through `extract_plain_spec`, whose
    NotMultinomialError or DegreeDependentParametersError fails the report;
    a PlainSpec's rows are multinomial parameters by definition.  A
    reversible measure needs p(j, i) > 0 wherever p(i, j) > 0; the first
    (i, j) in row-major order with p(i, j) > 0 = p(j, i) fails the report as
    "asymmetric-adjacency".  Either failure skips the cycle identity, decided
    by potential propagation on the label graph, and the connectivity check.
    """
    pspec = spec
    if not isinstance(spec, PlainSpec):
        try:
            pspec = extract_plain_spec(spec)
        except (NotMultinomialError, DegreeDependentParametersError) as err:
            return PlainCheckReport(False, err.name, err.witness, None, None, None)
    rows = pspec.params
    asymmetric = next(((i, j) for i in range(1, pspec.n + 1)
                       for j, p in enumerate(rows[i], start=1) if p and not rows[j][i - 1]), None)
    if asymmetric is not None:
        return PlainCheckReport(False, "asymmetric-adjacency", asymmetric, None, None, None,
                                pspec)
    # `label_potentials` on the label graph, the pairs i < j with p(i, j) > 0,
    # with the ratio weight(i) / weight(j) = p(j, i) / p(i, j) on every edge
    ratio = {
        (i, j): pspec.prob(j, i) / pspec.prob(i, j)
        for i in range(1, pspec.n + 1)
        for j in range(i + 1, pspec.n + 1)
        if pspec.prob(i, j) > 0
    }
    pot, cycle, components = label_potentials(pspec.n, ratio)
    return PlainCheckReport(True, None, None, cycle is None, cycle, components == 1, pspec, pot)


def construct_plain_measure(spec: Union[GWSpec, PlainSpec]) -> RootMeasure:
    """The unique reversible measure for an admissible plain spec in either
    form.

    Runs `run_plain_checks` and raises ChecksFailedError carrying its report
    when a check fails.  The report's label potentials give the root
    weights.  Root degrees are the child degrees shifted up by one, and
    conditional neighbor laws reuse the same multinomial rows.
    """
    report = run_plain_checks(spec)
    if not report.ok():
        if report.cycles is False:
            reason = f"cycle identity fails along {report.violating_cycle}"
        elif report.connected is False:
            reason = "label graph is disconnected"
        else:
            reason = f"{report.multinomial_error}, witness {report.multinomial_witness}"
        raise ChecksFailedError(reason, report=report)
    pspec, pot = report.pspec, report.potentials
    root_dist, _ = normalize({i: pot[i].as_integer_ratio() for i in range(1, pspec.n + 1)})
    laws = {i: _mixtures(pspec, i, (0, 1)) for i in range(1, pspec.n + 1)}
    return RootMeasure(
        n=pspec.n,
        root_dist=root_dist,
        neighbor_dist={i: law for i, (_, law) in laws.items()},
        descendants=GWSpec(n=pspec.n, mode=PLAIN,
                           offspring={i: law for i, (law, _) in laws.items()}),
    )
