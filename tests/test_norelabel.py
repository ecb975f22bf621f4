import json
import random
import time
from fractions import Fraction as F

import pytest

import gwrev.norelabel as norelabel
from gwrev.checker import label_potentials
from gwrev.cli import main
from gwrev.constructor import verify_reversibility
from gwrev.core import ChecksFailedError, GWSpec, PLAIN, SpecError, degrees
from gwrev.norelabel import (
    DegreeDependentParametersError,
    NotMultinomialError,
    PlainSpec,
    construct_plain_measure,
    expand_plain_spec,
    extract_plain_spec,
    run_plain_checks,
)

from .conftest import three_label_plain
from .oracles import (
    balance_violations,
    combinations_numerators,
    conditional_by_degree,
    factorial_numerator,
    fraction_mixture,
    is_degree_multinomial,
    multinomial_pmf_oracle,
    normalized_weights,
    plain_cycle_product,
    pmf_extract_plain_spec,
    random_fraction,
    random_plain_spec,
    redrawn_rows,
)


# ---------------------------------------------------------------------------
# Multinomial expansion
# ---------------------------------------------------------------------------

def multinomial_table(degree, row):
    """Label 1's offspring law under `expand_plain_spec` when label 1 always
    has `degree` children drawn from `row`: the multinomial law of that
    degree.  Label k > 1 has no children and the row e_1 when `row` gives
    label k positive probability, e_k otherwise, so the rows have
    symmetric support."""
    n = len(row)

    def unit(k):
        return tuple(F(int(x == k)) for x in range(1, n + 1))

    params = {1: row, **{k: unit(1 if row[k - 1] > 0 else k) for k in range(2, n + 1)}}
    degree_dist = {1: {degree: F(1)}, **{k: {0: F(1)} for k in range(2, n + 1)}}
    return expand_plain_spec(PlainSpec(n, degree_dist, params)).offspring[1]


def test_multinomial_table_matches_oracle():
    params = (F(1, 2), F(1, 3), F(1, 6))
    for degree in (0, 1, 2, 3):
        dist = multinomial_table(degree, params)
        assert sum(dist.values()) == 1
        for c, p in dist.items():
            assert p == multinomial_pmf_oracle(c, params)
        assert is_degree_multinomial(dist, degree, 3)


def test_multinomial_table_respects_zero_parameters():
    dist = multinomial_table(3, (F(1, 2), F(0), F(1, 2)))
    assert all(c[1] == 0 for c in dist)
    assert sum(dist.values()) == 1


def random_row(rng, n):
    """A parameter row of length n with some zeros, at least one entry
    positive."""
    raw = [rng.choice([0, random_fraction(rng)]) for _ in range(n)]
    raw[rng.randrange(n)] = random_fraction(rng)
    return tuple(x / sum(raw) for x in raw)


def test_multinomial_table_matches_the_termwise_oracle_on_random_rows():
    # every term equals the oracle's, the keys are distinct degree-d vectors
    # on the positive labels, and they sum to 1: so the support is complete
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 6)
        row = random_row(rng, n)
        for degree in range(7):
            dist = multinomial_table(degree, row)
            assert sum(dist.values()) == 1
            for c, p in dist.items():
                assert len(c) == n and sum(c) == degree
                assert all(ck == 0 for ck, q in zip(c, row) if q == 0)
                assert p == multinomial_pmf_oracle(c, row)


def test_numerator_matches_the_factorial_form():
    # N(c) from binomials of the running sums equals |c|! prod a_k^c_k / prod c_k!,
    # zero counts and zero parameters included
    rng = random.Random(42)
    zero_count = zero_param = 0
    for _ in range(3000):
        n = rng.randint(1, 6)
        c = tuple(rng.choice([0, 0, 1, 2, 3, rng.randint(4, 60)]) for _ in range(n))
        a = [rng.choice([0, 1, 2, 3, rng.randint(4, 10**6)]) for _ in range(n)]
        assert norelabel._numerator(c, a) == factorial_numerator(c, a)
        zero_count += 0 in c
        zero_param += any(ck and not ak for ck, ak in zip(c, a))
    assert zero_count > 1000 and zero_param > 300


def test_construct_cost_follows_the_measure_not_the_degree(tmp_path, capsys):
    # one degree of 10^6: |c|! has 5.6 million digits, the measure 496 bytes
    spec = tmp_path / "spec.json"
    spec.write_text('{"mode": "plain", "n": 1, "params": [["1"]], '
                    '"degree_dist": [{"type": 1, "dist": [{"d": 1000000, "p": "1"}]}]}')
    out = tmp_path / "m.json"
    start = time.perf_counter()
    code = main(["construct", str(spec), str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(capsys.readouterr().out)["verified"] is True
    assert elapsed < 2.0, f"construct took {elapsed:.2f} s"
    assert len(out.read_bytes()) == 496
    assert main(["verify", str(out)]) == 0


def test_numerators_match_the_draw_by_draw_enumeration():
    # the same table, in the same order, as one count vector per
    # combinations_with_replacement draw; zero parameters included
    rng = random.Random(43)
    zero_param = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = [rng.choice([0, 1, 2, rng.randint(3, 50)]) for _ in range(n)]
        a[rng.randrange(n)] = rng.randint(1, 50)
        for degree in range(8):
            table = norelabel._numerators(degree, a)
            assert list(table.items()) == list(combinations_numerators(degree, a).items())
        zero_param += 0 in a
    assert zero_param > 100
    # degree 0 of an all-zero row: the one empty vector
    assert norelabel._numerators(0, [0, 0]) == combinations_numerators(0, [0, 0]) == {(0, 0): 1}


@pytest.mark.parametrize("body", [
    '"degree_dist": [{"type": 1, "dist": [{"d": 1000000000000, "p": "1"}]}], "params": [["1"]]',
    '"offspring": [{"type": 1, "dist": [{"c": [1000000000000], "p": "1"}]}]',
], ids=["direct", "explicit"])
def test_construct_cost_does_not_grow_with_the_degree(tmp_path, capsys, body):
    # one degree of 10^12 on one label: one count vector per table
    spec = tmp_path / "spec.json"
    spec.write_text('{"mode": "plain", "n": 1, ' + body + '}')
    out = tmp_path / "m.json"
    start = time.perf_counter()
    code = main(["construct", str(spec), str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(capsys.readouterr().out)["verified"] is True
    assert elapsed < 2.0, f"construct took {elapsed:.2f} s"
    assert main(["verify", str(out)]) == 0
    assert json.loads(out.read_text())["neighbors"][0]["dist"][0]["c"] == [10**12 + 1]


def test_a_high_degree_with_too_few_vectors_fails_at_its_first(monkeypatch):
    # past _EXACT_BITS bits of b^d, a degree that lists fewer vectors than
    # its multinomial support fails at its first vector with no N(c): the
    # witness the comparisons in integers give, where they are affordable
    rng = random.Random(12)
    calls = []
    numerator = norelabel._numerator
    monkeypatch.setattr(norelabel, "_numerator", lambda c, a: calls.append(c) or numerator(c, a))
    for _ in range(20):
        d = rng.choice([20000, 60000])
        vectors = sorted((x, d - x) for x in rng.sample(range(1, d), rng.randint(1, 4)))
        law = dict(zip(vectors, normalized_weights(rng, len(vectors))))
        spec = GWSpec(n=2, mode=PLAIN, offspring={1: law, 2: {(1, 0): F(1)}})
        with pytest.raises(NotMultinomialError) as fast:
            extract_plain_spec(spec)
        assert not calls and fast.value.witness == (1, d, vectors[0])
        monkeypatch.setattr(norelabel, "_EXACT_BITS", float("inf"))
        with pytest.raises(NotMultinomialError) as exact:
            extract_plain_spec(spec)
        assert calls and exact.value.witness == fast.value.witness
        monkeypatch.setattr(norelabel, "_EXACT_BITS", 1 << 16)
        calls.clear()


def test_check_of_one_vector_of_degree_10_to_the_12(tmp_path, capsys):
    # b^d would have about 4 * 10^13 bits: the check fails at once
    spec = tmp_path / "spec.json"
    spec.write_text('{"mode": "plain", "n": 2, "offspring": ['
                    '{"type": 1, "dist": [{"c": [1000000000000, 1], "p": "1"}]}, '
                    '{"type": 2, "dist": [{"c": [1, 0], "p": "1"}]}]}')
    start = time.perf_counter()
    code = main(["check", str(spec)])
    elapsed = time.perf_counter() - start
    assert code == 1 and elapsed < 2.0, f"check took {elapsed:.2f} s"
    assert json.loads(capsys.readouterr().out)["witness"] == [1, 10**12 + 1, [10**12, 1]]


def random_degrees(rng, pspec):
    """Copy of a PlainSpec with new degree laws on 0..5: some labels only
    ever have zero children, and rows keep their zero entries."""
    degree_dist = {}
    for i in range(1, pspec.n + 1):
        degs = sorted(rng.sample(range(6), rng.randint(1, 3)))
        degree_dist[i] = dict(zip(degs, normalized_weights(rng, len(degs))))
    return PlainSpec(n=pspec.n, degree_dist=degree_dist, params=pspec.params)


def test_plain_tables_match_the_fraction_mixture_and_the_termwise_oracle():
    # expansion and construction against the Fraction-per-term mixture
    # (values and entry order) and each entry against the oracle's term
    rng = random.Random(61)
    specs = [three_label_plain()]
    specs += [random_degrees(rng, random_plain_spec(rng, rng.randint(1, 6))) for _ in range(60)]
    zero_degree = zero_entry = 0
    for pspec in specs:
        expanded = expand_plain_spec(pspec).offspring
        measure = construct_plain_measure(pspec)
        assert measure.descendants.offspring == expanded
        for i in range(1, pspec.n + 1):
            row = pspec.params[i]
            for shift, law in ((0, expanded[i]), (1, measure.neighbor_dist[i])):
                assert list(law.items()) == list(fraction_mixture(pspec, i, shift).items())
                for c, p in law.items():
                    pd = pspec.degree_dist[i][sum(c) - shift]
                    assert p == pd * multinomial_pmf_oracle(c, row)
            zero_degree += 0 in pspec.degree_dist[i]
            zero_entry += 0 in row
    assert zero_degree > 20 and zero_entry > 20


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_extraction_roundtrip_on_worked_instance(plain_spec):
    expanded = expand_plain_spec(plain_spec)
    assert extract_plain_spec(expanded) == plain_spec


def test_extraction_single_label_point_masses():
    spec = GWSpec(n=1, mode=PLAIN, offspring={
        1: {(1,): F(1, 2), (3,): F(1, 2)},
    })
    pspec = extract_plain_spec(spec)
    assert pspec.params[1] == (F(1),)
    assert pspec.degree_dist[1] == {1: F(1, 2), 3: F(1, 2)}


def test_extraction_rejects_non_multinomial():
    spec = GWSpec(n=2, mode=PLAIN, offspring={
        1: {(2, 0): F(1, 2), (0, 2): F(1, 2)},
        2: {(1, 0): F(1)},
    })
    with pytest.raises(NotMultinomialError) as err:
        extract_plain_spec(spec)
    assert err.value.witness == (1, 2, (0, 2))
    report = run_plain_checks(spec)
    assert report.pspec is None
    assert not report.ok()
    assert "not-multinomial" in report.failed_names()


def test_extraction_rejects_degree_dependent_parameters():
    # degree 1 leans label 1, degree 2 is balanced
    spec = GWSpec(n=2, mode=PLAIN, offspring={
        1: {
            (1, 0): F(2, 30), (0, 1): F(1, 30),
            (2, 0): F(9, 40), (1, 1): F(18, 40), (0, 2): F(9, 40),
        },
        2: {(1, 0): F(1)},
    })
    with pytest.raises(DegreeDependentParametersError):
        extract_plain_spec(spec)
    report = run_plain_checks(spec)
    assert "degree-dependent-parameters" in report.failed_names()


def test_extraction_rejects_asymmetric_adjacency():
    # label 1 has label-2 children but never conversely
    spec = GWSpec(n=2, mode=PLAIN, offspring={
        1: {(0, 1): F(1)},
        2: {(0, 2): F(1)},
    })
    assert run_plain_checks(extract_plain_spec(spec)).multinomial_witness == (1, 2)
    report = run_plain_checks(spec)
    assert "asymmetric-adjacency" in report.failed_names()


def test_extraction_agrees_with_swap_oracle_per_degree():
    rng = random.Random(31)
    for _ in range(12):
        pspec = random_plain_spec(rng, rng.randint(1, 3))
        spec = expand_plain_spec(pspec)
        for i in range(1, spec.n + 1):
            for d, conditional in conditional_by_degree(spec.offspring[i]).items():
                assert is_degree_multinomial(conditional, d, spec.n)
        assert extract_plain_spec(spec) == pspec


def perturbed_law(rng, dist):
    """The law with one perturbation: mass moved between two entries of a
    degree (possibly onto a new vector), mass moved between two degrees,
    one degree redrawn on another row with the same zeros, or nothing."""
    dist = dict(dist)
    by_degree = conditional_by_degree(dist)
    kind = rng.randrange(4)
    d = rng.choice([e for e in sorted(by_degree) if e > 0])
    n = len(next(iter(dist)))
    if kind == 0 and n > 1:
        donor = rng.choice(sorted(by_degree[d]))
        c = list(donor)
        out = rng.choice([k for k, ck in enumerate(c) if ck > 0])
        c[out] -= 1
        c[rng.choice([k for k in range(n) if k != out])] += 1
        receiver = tuple(c)
        moved = dist[donor] * F(rng.randint(1, 3), 4)
        dist[donor] -= moved
        dist[receiver] = dist.get(receiver, 0) + moved
    elif kind == 1 and len(by_degree) > 1:
        d2 = rng.choice([e for e in by_degree if e != d])
        scale = F(rng.randint(1, 3), 4)
        for c in by_degree[d]:
            dist[c] *= 1 - scale
        mass = sum(dist[c] for c in by_degree[d]) * scale / (1 - scale)
        for c, q in by_degree[d2].items():
            dist[c] += mass * q
    elif kind == 2:
        mass = sum(dist[c] for c in by_degree[d])
        row = tuple(sum(c[k] for c in by_degree[d]) for k in range(n))
        row = tuple(F(rng.randint(1, 9)) if x else F(0) for x in row)
        row = tuple(x / sum(row) for x in row)
        for c in by_degree[d]:
            dist[c] = mass * multinomial_pmf_oracle(c, row)
    return {c: p for c, p in dist.items() if p}


def outcome(extract, spec):
    try:
        return extract(spec)
    except (NotMultinomialError, DegreeDependentParametersError, SpecError) as err:
        return type(err), getattr(err, "witness", None), str(err)


def test_extraction_matches_the_termwise_oracle_on_perturbed_laws():
    rng = random.Random(57)
    seen = {}
    for _ in range(400):
        pspec = random_plain_spec(rng, rng.randint(1, 5))
        offspring = expand_plain_spec(pspec).offspring
        i = rng.randint(1, pspec.n)
        spec = GWSpec(n=pspec.n, mode=PLAIN,
                      offspring={**offspring, i: perturbed_law(rng, offspring[i])})
        got = outcome(extract_plain_spec, spec)
        assert got == outcome(pmf_extract_plain_spec, spec)
        kind = got[0].__name__ if isinstance(got, tuple) else "PlainSpec"
        seen[kind] = seen.get(kind, 0) + 1
    assert seen["PlainSpec"] > 40
    assert seen["NotMultinomialError"] > 40
    assert seen["DegreeDependentParametersError"] > 20


def test_extraction_checks_the_listed_entries_only(monkeypatch):
    # five entries of degree 40 on five labels cost five terms, never the
    # 135,751 of a degree-40 expansion
    monkeypatch.setattr(norelabel, "_numerators", None)
    law = {tuple(40 if k == j else 0 for k in range(5)): F(1, 5) for j in range(5)}
    spec = GWSpec(n=5, mode=PLAIN,
                  offspring={1: law, **{i: {(0,) * 5: F(1)} for i in range(2, 6)}})
    with pytest.raises(NotMultinomialError) as err:
        extract_plain_spec(spec)
    assert err.value.witness == (1, 40, (0, 0, 0, 0, 40))


def test_swap_oracle_rejects_perturbed_conditionals():
    pspec = three_label_plain()
    spec = expand_plain_spec(pspec)
    dist = dict(spec.offspring[1])
    # move mass between two degree-2 vectors, then renormalize that degree
    donor, receiver = (0, 1, 1), (2, 0, 0)
    dist[donor] = dist[donor] / 2
    dist[receiver] = dist[receiver] + dist[donor]
    broken = GWSpec(n=3, mode=PLAIN, offspring={**spec.offspring, 1: dist})
    conditional = conditional_by_degree(broken.offspring[1])[2]
    assert not is_degree_multinomial(conditional, 2, 3)
    with pytest.raises(NotMultinomialError):
        extract_plain_spec(broken)


# ---------------------------------------------------------------------------
# Cycle check
# ---------------------------------------------------------------------------

def test_cycles_pass_on_worked_instance(plain_spec):
    report = run_plain_checks(plain_spec)
    assert report.cycles is True and report.violating_cycle is None


def test_cycles_fail_with_replayable_witness():
    broken = three_label_plain(p31=F(1, 4), p32=F(3, 4))
    report = run_plain_checks(broken)
    assert report.cycles is False
    cycle = report.violating_cycle
    assert cycle[0] == cycle[-1]
    assert plain_cycle_product(broken, cycle) != 1


def test_label_potentials_count_components():
    # labels {1, 2} and {3, 4, 5} joined within, apart between; 6 alone
    ratio = {(1, 2): F(2), (3, 4): F(1, 3), (4, 5): F(5)}
    pot, cycle, components = label_potentials(6, ratio)
    assert cycle is None and components == 3
    assert pot == {1: 1, 2: F(1, 2), 3: 1, 4: 3, 5: F(3, 5), 6: 1}


def test_label_potentials_cycle_replays_on_a_broken_row():
    broken = three_label_plain(p31=F(1, 4), p32=F(3, 4))
    ratio = {(i, j): broken.prob(j, i) / broken.prob(i, j)
             for i in broken.params for j in broken.params
             if i < j and broken.prob(i, j) > 0}
    pot, cycle, components = label_potentials(broken.n, ratio)
    assert components == 1
    assert cycle[0] == cycle[-1]
    assert plain_cycle_product(broken, cycle) != 1
    # the cycle closes through its first inconsistent edge (i, j): ..., j, i
    i, j = cycle[-1], cycle[-2]
    assert ratio[(i, j)] != pot[i] / pot[j]
    report = run_plain_checks(broken)
    assert (report.cycles, report.violating_cycle) == (False, cycle)


def test_plain_checks_report_disconnected_labels():
    # label 3 only ever has label-3 children and neighbours
    pspec = PlainSpec(
        n=3,
        degree_dist={1: {1: F(1)}, 2: {1: F(1)}, 3: {2: F(1)}},
        params={1: (F(1, 2), F(1, 2), F(0)), 2: (F(1), F(0), F(0)),
                3: (F(0), F(0), F(1))},
    )
    report = run_plain_checks(pspec)
    assert report.failed_names() == ["connected"] and report.violating_cycle is None
    with pytest.raises(ChecksFailedError, match="disconnected"):
        construct_plain_measure(pspec)


def test_cycles_vacuous_single_label():
    pspec = PlainSpec(
        n=1, degree_dist={1: {2: F(1)}}, params={1: (F(1),)}
    )
    report = run_plain_checks(pspec)
    assert (report.cycles, report.violating_cycle) == (True, None)


def test_checks_and_construct_read_either_form():
    # an explicit spec is decided and built as the PlainSpec it expands;
    # both forms carry the plain mode
    rng = random.Random(23)
    specs = [three_label_plain(), three_label_plain(p31=F(1, 4), p32=F(3, 4))]
    for _ in range(60):
        pspec = random_plain_spec(rng, rng.randint(2, 4))
        specs += [pspec, redrawn_rows(rng, pspec)]
    failing = 0
    for pspec in specs:
        explicit = expand_plain_spec(pspec)
        assert pspec.mode == explicit.mode == PLAIN
        report = run_plain_checks(pspec)
        assert run_plain_checks(explicit) == report
        assert run_plain_checks(explicit).pspec == report.pspec == pspec
        if report.ok():
            assert construct_plain_measure(explicit) == construct_plain_measure(pspec)
        else:
            failing += 1
            with pytest.raises(ChecksFailedError) as err:
                construct_plain_measure(explicit)
            assert err.value.report == report
    assert 10 < failing < len(specs) - 10, failing
    # an explicit law that is not multinomial fails the report it carries
    bad = GWSpec(n=2, mode=PLAIN, offspring={1: {(2, 0): F(1, 2), (0, 2): F(1, 2)},
                                             2: {(1, 0): F(1)}})
    with pytest.raises(ChecksFailedError, match="not-multinomial") as err:
        construct_plain_measure(bad)
    assert err.value.report.failed_names() == ["not-multinomial"]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_construct_worked_instance(plain_spec):
    mu = construct_plain_measure(plain_spec)
    assert mu.root_dist == {1: F(3, 7), 2: F(2, 7), 3: F(2, 7)}
    assert verify_reversibility(mu) == []
    assert balance_violations(mu) == []


def test_degree_shift_and_mass_preservation(plain_spec):
    mu = construct_plain_measure(plain_spec)
    spec = mu.descendants
    for i in (1, 2, 3):
        assert degrees(mu.neighbor_dist[i]) == {
            d + 1 for d in degrees(spec.offspring[i])
        }
        for d, pd in plain_spec.degree_dist[i].items():
            mass = sum(
                p for c, p in mu.neighbor_dist[i].items() if sum(c) == d + 1
            )
            assert mass == pd


def test_conditional_laws_share_parameters(plain_spec):
    mu = construct_plain_measure(plain_spec)
    for i in (1, 2, 3):
        for d, conditional in conditional_by_degree(mu.neighbor_dist[i]).items():
            expected = multinomial_table(d, plain_spec.params[i])
            assert conditional == expected


def test_construct_single_label_shifts_degrees():
    pspec = PlainSpec(
        n=1,
        degree_dist={1: {1: F(1, 2), 2: F(1, 2)}},
        params={1: (F(1),)},
    )
    mu = construct_plain_measure(pspec)
    assert mu.root_dist == {1: F(1)}
    assert mu.neighbor_dist[1] == {(2,): F(1, 2), (3,): F(1, 2)}


def test_construct_rejects_broken_cycles():
    broken = three_label_plain(p31=F(1, 4), p32=F(3, 4))
    with pytest.raises(ChecksFailedError):
        construct_plain_measure(broken)


def test_uniqueness_under_label_input_order(plain_spec):
    mu = construct_plain_measure(plain_spec)
    reordered = PlainSpec(
        n=3,
        degree_dist=dict(reversed(list(plain_spec.degree_dist.items()))),
        params=dict(reversed(list(plain_spec.params.items()))),
    )
    mu2 = construct_plain_measure(reordered)
    assert mu2.root_dist == mu.root_dist
    assert mu2.neighbor_dist == mu.neighbor_dist


def test_randomized_plain_measures_balance_exactly():
    rng = random.Random(77)
    for _ in range(15):
        pspec = random_plain_spec(rng, rng.randint(1, 4))
        report = run_plain_checks(pspec)
        assert report.cycles is True, report.violating_cycle
        mu = construct_plain_measure(pspec)
        assert verify_reversibility(mu) == []
        assert balance_violations(mu) == []
        # re-extraction is exact
        assert extract_plain_spec(mu.descendants) == pspec


def test_plain_spec_validation():
    with pytest.raises(SpecError):
        PlainSpec(n=1, degree_dist={1: {1: F(1, 2)}}, params={1: (F(1),)})
    with pytest.raises(SpecError, match="n must be >= 1"):
        PlainSpec(n=0, degree_dist={}, params={})
    asymmetric = PlainSpec(
        n=2,
        degree_dist={1: {1: F(1)}, 2: {1: F(1)}},
        params={1: (F(0), F(1)), 2: (F(0), F(1))},
    )
    report = run_plain_checks(asymmetric)
    assert report.failed_names() == ["asymmetric-adjacency"]
    assert report.multinomial_witness == (1, 2)
    with pytest.raises(ChecksFailedError):
        construct_plain_measure(asymmetric)
