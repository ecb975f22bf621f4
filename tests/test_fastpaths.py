"""Differential tests: every per-label-pair fast path of the exact pipeline
against the class-by-class path it replaced, on random corpora.

Specs come from `solve_offspring` on random template candidates, so the
forced ratios close on some and not on others: a good share of them fail
condition ii and exercise the witness paths.
"""

import random
import time
from fractions import Fraction as F

from gwrev.checker import (
    build_balance_graph,
    check_condition_i,
    check_strong_connectivity,
    propagate_potentials,
    run_checks,
    solve_potentials,
)
from gwrev.constructor import construct_measure, verify_reversibility
from gwrev.core import GWSpec, PAIR, RootMeasure
from gwrev.parametrizer import (
    InconsistentRatiosError,
    solve_offspring,
    solve_root_weights,
    validate_template,
)

from .conftest import break_condition_ii, dense_grid, two_label_spec
from .oracles import (
    balance_violations,
    pairwise_root_weights,
    pairwise_validate_template,
    random_template,
    random_template_candidate,
    random_template_weights,
    unreachable_pair_bruteforce,
)

CORPUS = 600


def corpus(seed):
    """(template, weights, spec) triples over 1..5 labels."""
    rng = random.Random(seed)
    for _ in range(CORPUS):
        template = random_template_candidate(rng, rng.randint(1, 5), max_classes=8)
        weights = random_template_weights(rng, template)
        yield template, weights, solve_offspring(template, weights)


def reweighted(rng, spec):
    """Copy of the spec with up to two laws given new random weights on the
    same support: condition i still holds, the ratios mostly do not close."""
    offspring = dict(spec.offspring)
    for key in rng.sample(sorted(offspring), min(2, len(offspring))):
        raw = {c: rng.randint(1, 9) for c in sorted(offspring[key])}
        offspring[key] = {c: F(r, sum(raw.values())) for c, r in raw.items()}
    return GWSpec(n=spec.n, mode=PAIR, offspring=offspring)


def graph_path(spec):
    graph = build_balance_graph(spec)
    potentials, cycle = propagate_potentials(graph)
    return graph.nodes, potentials, cycle, len(graph.components())


def test_solve_potentials_matches_the_balance_graph():
    inconsistent = 0
    for _, _, spec in corpus(1):
        assert check_condition_i(spec)[0]
        fast = solve_potentials(spec)
        assert fast == graph_path(spec)
        inconsistent += fast[2] is not None
    # both verdicts are well represented
    assert CORPUS // 5 < inconsistent < CORPUS - CORPUS // 5


def test_solve_potentials_matches_on_reweighted_laws():
    # several label pairs fail at once, so the witness must be the first
    # inconsistent edge over all of them
    rng = random.Random(6)
    inconsistent = 0
    for _, _, spec in corpus(6):
        spec = reweighted(rng, spec)
        fast = solve_potentials(spec)
        assert fast == graph_path(spec)
        inconsistent += fast[2] is not None
    assert inconsistent > CORPUS // 3


def test_solve_potentials_matches_on_dense_and_broken_grids():
    template, weights = dense_grid(4, seed=3)
    spec = solve_offspring(template, weights)
    flat = dict(spec.offspring)
    flat[(1, 1)] = {c: F(1, len(flat[(1, 1)])) for c in flat[(1, 1)]}
    flat[(2, 1)] = {c: F(1, len(flat[(2, 1)])) for c in flat[(2, 1)]}
    broken = GWSpec(n=2, mode=PAIR, offspring=flat)
    for s in (spec, broken, two_label_spec(), break_condition_ii(two_label_spec())):
        assert solve_potentials(s) == graph_path(s)
    assert solve_potentials(broken)[2] is not None


def test_strong_connectivity_matches_all_sources_reachability():
    # the verdict and the first unreachable (source, target) pair
    rng = random.Random(7)
    failed = 0
    for _, _, spec in corpus(7):
        for s in (spec, reweighted(rng, spec)):
            verdict = check_strong_connectivity(s)
            assert verdict == unreachable_pair_bruteforce(s)
            failed += not verdict[0]
    assert CORPUS // 10 < failed < CORPUS


def perturbed(rng, measure):
    """A copy of the measure with one of: two root weights swapped, mass moved
    between two classes of a label, or a class no offspring law can see."""
    root = dict(measure.root_dist)
    neighbors = {i: dict(d) for i, d in measure.neighbor_dist.items()}
    kind = rng.randrange(3)
    labels = sorted(root)
    if kind == 0 and len(labels) > 1 and len(set(root.values())) > 1:
        i, j = rng.sample(labels, 2)
        root[i], root[j] = root[j], root[i]
    else:
        i = rng.choice(labels)
        dist = neighbors[i]
        vectors = sorted(dist)
        if kind == 1 and len(vectors) > 1:
            a, b = rng.sample(vectors, 2)
            delta = min(dist[a], dist[b]) / 3
            dist[a] += delta
            dist[b] -= delta
        else:
            c = vectors[0]
            k = rng.randrange(measure.n)
            extra = c[:k] + (c[k] + 7,) + c[k + 1:]
            half = {v: p / 2 for v, p in dist.items()}
            half[extra] = half.get(extra, 0) + F(1, 2)
            neighbors[i] = half
    return RootMeasure(n=measure.n, root_dist=root, neighbor_dist=neighbors,
                       descendants=measure.descendants)


def oracle_violations(measure):
    return sorted(x for x in balance_violations(measure) if x[0] < x[1])


def test_verify_reversibility_matches_the_oracle():
    rng = random.Random(2)
    clean = failing = 0
    for _, _, spec in corpus(2):
        if not run_checks(spec).ok():
            continue
        measure = construct_measure(spec)
        for m in (measure, perturbed(rng, measure), perturbed(rng, measure)):
            found = verify_reversibility(m)
            assert found == oracle_violations(m)
            clean += not found
            failing += bool(found)
    assert clean > 50 and failing > 50


def test_verify_reversibility_matches_on_plain_measures():
    from gwrev.norelabel import construct_plain_measure

    from .oracles import random_plain_spec

    rng = random.Random(5)
    for _ in range(60):
        measure = construct_plain_measure(random_plain_spec(rng, rng.randint(1, 4)))
        for m in (measure, perturbed(rng, measure)):
            assert verify_reversibility(m) == oracle_violations(m)


def test_solve_root_weights_matches_the_pairwise_check():
    # the label-flow solve against every class pair under the solved laws:
    # the same weights, or the same first failing label pair
    raised = 0
    for template, weights, spec in corpus(3):
        expected = pairwise_root_weights(template, weights, spec)
        try:
            got = solve_root_weights(template, weights)
        except InconsistentRatiosError as err:
            got = err.labels
            raised += 1
        assert got == expected
    assert CORPUS // 5 < raised < CORPUS - CORPUS // 5


def test_validate_template_matches_the_pairwise_check():
    rng = random.Random(4)
    failed = 0
    for _ in range(CORPUS):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            template = random_template(rng, n)
        else:
            template = random_template_candidate(rng, n)
        verdict = validate_template(template)
        assert verdict == pairwise_validate_template(template)
        failed += not verdict[0]
    assert failed > CORPUS // 10


def test_huge_declared_label_count_with_few_laws():
    # the worked two-label laws inside n = 10,000 labels: the checks touch
    # the stored laws only, never all n^2 label pairs
    n = 10_000
    pad = (0,) * (n - 2)
    offspring = {
        key: {c + pad: p for c, p in dist.items()}
        for key, dist in two_label_spec().offspring.items()
    }
    spec = GWSpec(n=n, mode=PAIR, offspring=offspring)
    start = time.perf_counter()
    report = run_checks(spec)
    elapsed = time.perf_counter() - start
    small = run_checks(two_label_spec())
    assert report.failed_names() == ["labels_realized"] and report.missing_label == 3
    assert (report.condition_i, report.condition_ii, report.connected_support) == (
        small.condition_i, small.condition_ii, small.connected_support)
    assert elapsed < 2.0, f"run_checks took {elapsed:.2f} s"


def test_condition_i_witness_order_with_huge_n():
    # one broken law among the worked ones gives the same first witness,
    # padded, whatever the declared label count
    def broken(n):
        pad = (0,) * (n - 2)
        offspring = {k: {c + pad: p for c, p in d.items()}
                     for k, d in two_label_spec().offspring.items()}
        offspring[(2, 1)] = {(2, 0) + pad: F(1)}
        return GWSpec(n=n, mode=PAIR, offspring=offspring)

    ok, small = check_condition_i(broken(2))
    ok_big, big = check_condition_i(broken(5000))
    assert not ok and not ok_big
    assert big[:3] == small[:3] and big[3][:2] == small[3]
