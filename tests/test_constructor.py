import random
from fractions import Fraction as F

import pytest

import gwrev.constructor as constructor
from gwrev import fileformats as ff
from gwrev.checker import run_checks
from gwrev.constructor import construct_measure, verify_reversibility
from gwrev.core import (
    ChecksFailedError,
    GWSpec,
    PAIR,
    PLAIN,
    RootMeasure,
    SpecError,
    SupportClass,
    candidate_support,
)
from gwrev.norelabel import construct_plain_measure, expand_plain_spec, run_plain_checks
from gwrev.parametrizer import assemble_measure

from .conftest import A, B, D, break_condition_i, break_condition_ii, dense_grid, two_label_spec
from .oracles import (
    MissingOffspringTermError,
    assert_support_consistency,
    balance_violations,
    fraction_solve_potentials,
    fraction_verify_reversibility,
    listed_violations,
    random_admissible_instance,
    random_corpus,
    random_single_type_law,
    redrawn_rows,
    solve_offspring,
)


def test_worked_instance_measure(pair_spec):
    mu = construct_measure(pair_spec)
    assert_support_consistency(mu)
    assert mu.root_dist == {1: F(3, 8), 2: F(5, 8)}
    assert mu.neighbor_dist[1] == {A: F(1, 2), B: F(1, 2)}
    assert mu.neighbor_dist[2] == {D: F(1, 2), A: F(1, 2)}
    assert mu.descendants is pair_spec


def test_support_consistency_oracle_sees_a_missing_term(pair_spec):
    # 1:(1,1) needs p(2,1)(1, 0), which break_condition_i drops
    mu = construct_measure(pair_spec)
    broken = RootMeasure(n=2, root_dist=mu.root_dist, neighbor_dist=mu.neighbor_dist,
                         descendants=break_condition_i(pair_spec))
    with pytest.raises(AssertionError, match="1:\\(1,1\\) lacks the offspring term"):
        assert_support_consistency(broken)


def test_support_is_exactly_the_candidate_set(pair_spec):
    mu = construct_measure(pair_spec)
    for i in (1, 2):
        assert set(mu.neighbor_dist[i]) == candidate_support(pair_spec, i)


def test_single_type_offspring_shifts_to_root_degrees():
    # root has k+1 neighbors with the probability of k children
    law = {(0,): F(1, 4), (2,): F(1, 4), (3,): F(1, 2)}
    spec = GWSpec(n=1, mode=PAIR, offspring={(1, 1): law})
    mu = construct_measure(spec)
    assert_support_consistency(mu)
    assert mu.neighbor_dist[1] == {(1,): F(1, 4), (3,): F(1, 4), (4,): F(1, 2)}
    assert mu.root_dist == {1: F(1)}


def test_triangle_like_deterministic_point_mass():
    spec = GWSpec(n=1, mode=PAIR, offspring={(1, 1): {(1,): F(1)}})
    mu = construct_measure(spec)
    assert_support_consistency(mu)
    assert mu.root_dist == {1: F(1)}
    assert mu.neighbor_dist[1] == {(2,): F(1)}


def test_construct_rejects_failing_spec(pair_spec):
    with pytest.raises(ChecksFailedError) as err:
        construct_measure(break_condition_i(pair_spec))
    assert "condition_i" in err.value.report.failed_names()
    with pytest.raises(ChecksFailedError) as err:
        construct_measure(break_condition_ii(pair_spec))
    assert "condition_ii" in err.value.report.failed_names()


def test_construct_rejects_disconnected_balance_graph():
    # two self-contained single-label worlds: balance graph splits and the
    # pair-type graph is not strongly connected
    spec = GWSpec(n=2, mode=PAIR, offspring={
        (1, 1): {(1, 0): F(1)},
        (2, 2): {(0, 1): F(1)},
    })
    report = run_checks(spec)
    assert report.connected_support is False
    with pytest.raises(ChecksFailedError):
        construct_measure(spec)


def test_uniqueness_under_entry_reordering(pair_spec):
    mu = construct_measure(pair_spec)
    reordered = GWSpec(
        n=2,
        mode=PAIR,
        offspring={
            key: dict(sorted(dist.items(), reverse=True))
            for key, dist in reversed(list(pair_spec.offspring.items()))
        },
    )
    mu2 = construct_measure(reordered)
    assert_support_consistency(mu2)
    assert mu2.root_dist == mu.root_dist
    assert mu2.neighbor_dist == mu.neighbor_dist


def test_verify_reversibility_worked_values(pair_spec):
    mu = construct_measure(pair_spec)
    assert verify_reversibility(mu) == []
    # the cross-label pair ((1, A), (2, A)) carries flow exactly 3/32
    prob = pair_spec.offspring_prob
    lhs = mu.root_dist[1] * mu.neighbor_dist[1][A] * prob(1, 2, (0, 1)) * F(1, 2)
    rhs = mu.root_dist[2] * mu.neighbor_dist[2][A] * prob(2, 1, (1, 0)) * F(1, 2)
    assert lhs == rhs == F(3, 32)


def test_verify_reversibility_detects_swapped_roots(pair_spec):
    mu = construct_measure(pair_spec)
    swapped = RootMeasure(
        n=2,
        root_dist={1: mu.root_dist[2], 2: mu.root_dist[1]},
        neighbor_dist=mu.neighbor_dist,
        descendants=pair_spec,
    )
    violations = verify_reversibility(swapped)
    assert violations
    crossing = [
        (u, v) for (u, v, _, _) in violations if u.label != v.label
    ]
    # every admissible cross-label pair breaks
    assert len(crossing) == len(violations)
    assert balance_violations(swapped)


def test_verify_reversibility_vacuous_without_admissible_pairs():
    # each label only ever neighbors itself and has a single class, so no
    # pair of distinct classes is admissible and the check holds vacuously
    spec = GWSpec(n=2, mode=PAIR, offspring={
        (1, 1): {(1, 0): F(1)},
        (2, 2): {(0, 1): F(1)},
    })
    mu = RootMeasure(
        n=2,
        root_dist={1: F(1, 2), 2: F(1, 2)},
        neighbor_dist={1: {(2, 0): F(1)}, 2: {(0, 2): F(1)}},
        descendants=spec,
    )
    assert verify_reversibility(mu) == []


# A zero offspring term is a balance key of its own: two zero keys are equal
# (0 == 0), a zero key differs from every other.  Label-1 classes (0, 1) and
# (0, 2) read p(2,1) at (0, 0) and (0, 1); label-2 classes (1, 0) and (2, 0)
# read p(1,2) at (0, 0) and (1, 0).
ZERO_TERMS = {
    "both sides zero": ({(1, 0): F(1)}, {(0, 1): F(1)}),
    "one side zero": ({(1, 0): F(1)}, {(0, 0): F(1, 2), (1, 0): F(1, 2)}),
    "some members zero": ({(0, 0): F(1)}, {(0, 0): F(1, 2), (1, 0): F(1, 2)}),
}


def zero_term_measure(law_21, law_12):
    spec = GWSpec(n=2, mode=PAIR, offspring={
        (1, 1): {(0, 0): F(1)},
        (2, 2): {(0, 0): F(1)},
        (2, 1): law_21,
        (1, 2): law_12,
    })
    return RootMeasure(
        n=2,
        root_dist={1: F(2, 5), 2: F(3, 5)},
        neighbor_dist={1: {(0, 1): F(1, 3), (0, 2): F(2, 3)},
                       2: {(1, 0): F(1, 4), (2, 0): F(3, 4)}},
        descendants=spec,
    )


@pytest.mark.parametrize("case", sorted(ZERO_TERMS))
def test_verify_reversibility_zero_terms(case):
    mu = zero_term_measure(*ZERO_TERMS[case])
    found = verify_reversibility(mu)
    assert found == listed_violations(mu)
    assert found == fraction_verify_reversibility(mu)
    pairs = [(u, v) for u, v, _, _ in found]
    # p(2,1) = {(1, 0): 1} sends the walk from every label-2 class to 1:(1,1),
    # and in the first case p(1,2) = {(0, 1): 1} sends every label-1 class to
    # 2:(1,1); neither target is a support class
    leaks_21 = [((2, d), (1, (1, 1))) for d in [(1, 0), (2, 0)]]
    if case == "both sides zero":
        assert pairs == [((1, c), (2, (1, 1))) for c in [(0, 1), (0, 2)]] + leaks_21
        assert all(lhs > 0 and rhs == 0 for _, _, lhs, rhs in found)
    elif case == "one side zero":
        # every cross pair: one flow is zero, the other is not
        assert pairs == [((1, c), (2, d)) for c in [(0, 1), (0, 2)]
                         for d in [(1, 0), (2, 0)]] + leaks_21
    else:
        # the zero member (1, (0, 2)) fails against both label-2 classes
        assert [((1, (0, 2)), (2, d)) for d in [(1, 0), (2, 0)]] == pairs[-2:]
        assert all(lhs != 0 and rhs == 0 for _, _, lhs, rhs in found[-2:])


def test_verify_reversibility_zero_term_within_one_label():
    # S(1, 1) = {(1,), (2,)}: (2,) reads p(1,1) at (1,), which is unstored
    spec = GWSpec(n=1, mode=PAIR, offspring={(1, 1): {(0,): F(1)}})
    mu = RootMeasure(n=1, root_dist={1: F(1)}, neighbor_dist={1: {(1,): F(1, 2), (2,): F(1, 2)}},
                     descendants=spec)
    found = verify_reversibility(mu)
    assert found == [((1, (1,)), (1, (2,)), F(0), F(1, 2))]
    assert found == listed_violations(mu)
    assert found == fraction_verify_reversibility(mu)


def test_verify_forms_flows_only_for_the_pairs_it_lists(monkeypatch):
    # a K = 10 grid measure with mass moved between two label-1 classes, and
    # one label-2 class dropped, its mass moved to another: two flows per
    # violating pair of support classes, one per step out of the support,
    # none for a pair that balances
    mu = construct_measure(solve_offspring(*dense_grid(10, seed=1, bits=64)))
    first = dict(mu.neighbor_dist[1])
    first[(1, 1)], first[(2, 3)] = first[(1, 1)] * 2, first[(2, 3)] - first[(1, 1)]
    second = dict(mu.neighbor_dist[2])
    second[(4, 5)] += second.pop((4, 4))
    perturbed = RootMeasure(n=2, root_dist=mu.root_dist, neighbor_dist={1: first, 2: second},
                            descendants=mu.descendants)
    calls = []
    exact_flow = constructor.exact_flow

    def counted(measure, source, target):
        calls.append((source, target))
        return exact_flow(measure, source, target)

    monkeypatch.setattr(constructor, "exact_flow", counted)
    found = verify_reversibility(perturbed)
    monkeypatch.undo()
    assert found == fraction_verify_reversibility(perturbed)
    leaks = sum(v.vector not in perturbed.neighbor_dist[v.label] for _, v, _, _ in found)
    assert 0 < leaks < len(found)
    assert len(calls) == 2 * (len(found) - leaks) + leaks


def test_missing_offspring_term():
    # condition i fails: class 1:(1,1) needs p(2,1)(1, 0), which is unstored;
    # the report names it and the reference refuses to solve
    spec = break_condition_i(two_label_spec())
    report = run_checks(spec)
    i, _, k, c = report.condition_i_counterexample
    with pytest.raises(MissingOffspringTermError) as reference:
        fraction_solve_potentials(spec)
    assert str(reference.value) == (f"class {SupportClass(i, c)} needs an unstored "
                                    f"offspring probability for parent {k}")
    assert "1:(1,1)" in str(reference.value)
    assert report.condition_ii is report.potentials is None


def test_constructed_measures_satisfy_detailed_balance_randomized():
    rng = random.Random(99)
    for _ in range(20):
        template, weights = random_admissible_instance(rng, rng.randint(1, 4))
        spec = assemble_measure(template, weights).descendants
        mu = construct_measure(spec)
        assert_support_consistency(mu)
        assert verify_reversibility(mu) == []
        assert balance_violations(mu) == []


def test_agw_structure_random_single_type_laws():
    rng = random.Random(5)
    for _ in range(10):
        law = random_single_type_law(rng)
        spec = GWSpec(
            n=1, mode=PAIR,
            offspring={(1, 1): {(k,): p for k, p in law.items()}},
        )
        mu = construct_measure(spec)
        assert_support_consistency(mu)
        assert mu.neighbor_dist[1] == {(k + 1,): p for k, p in law.items()}


# ---------------------------------------------------------------------------
# The one verdict and the one refusal
# ---------------------------------------------------------------------------

def corpus_specs(mode):
    """The spec documents of `random_corpus` in one regime, read as the CLI
    reads them; a plain spec also in its explicit form and with its rows
    redrawn, so that some fail."""
    specs = [ff.obj_to_spec(doc) for doc in random_corpus()
             if isinstance(doc, dict) and doc.get("mode") == mode and "ok" not in doc]
    if mode == PAIR:
        return specs
    rng = random.Random(30)
    return (specs + [expand_plain_spec(pspec) for pspec in specs]
            + [redrawn_rows(rng, pspec) for pspec in specs])


@pytest.mark.parametrize("mode, check, construct", [
    (PAIR, run_checks, construct_measure),
    (PLAIN, run_plain_checks, construct_plain_measure),
], ids=[PAIR, PLAIN])
def test_a_failing_spec_is_refused_with_its_report(mode, check, construct):
    # the verdict is "no check failed", and the one refusal carries the
    # failing report and names exactly its failed checks
    passing = failing = 0
    for spec in corpus_specs(mode):
        report = check(spec)
        assert report.ok() == (report.failed_names() == [])
        if report.ok():
            passing += 1
            assert isinstance(construct(spec), RootMeasure)
            continue
        failing += 1
        with pytest.raises(ChecksFailedError) as err:
            construct(spec)
        assert err.value.report == report
        head, _, names = str(err.value).partition(": ")
        assert head == "spec fails admissibility checks"
        assert names.split(", ") == report.failed_names()
        rebuilt = ChecksFailedError(report)
        assert rebuilt.report is report and str(rebuilt) == str(err.value)
    assert passing > 10 and failing > 10, (passing, failing)


def test_construct_measure_refuses_a_plain_spec_as_malformed():
    # in either form, passing its checks or not
    for spec in corpus_specs(PLAIN):
        with pytest.raises(SpecError, match="requires a pair-mode spec"):
            construct_measure(spec)
