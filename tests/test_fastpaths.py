"""Differential tests: every per-label-pair fast path of the exact pipeline
against the class-by-class path it replaced, on random corpora, and the
whole pipeline against itself under a renaming of the labels.

Specs come from `solve_offspring` on random template candidates, so the
forced ratios close on some and not on others: a good share of them fail
condition ii and exercise the witness paths.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from gwrev.checker import (
    _condition_i,
    _potentials,
    check_strong_connectivity,
    factor_table,
    run_checks,
)
from gwrev.constructor import construct_measure, verify_reversibility
from gwrev.core import GWSpec, PAIR, RootMeasure, SupportClass, decrement, exact_flow
from gwrev.norelabel import construct_plain_measure, run_plain_checks
from gwrev.parametrizer import (
    InconsistentRatiosError,
    SupportTemplate,
    assemble_measure,
    validate_template,
)

from .conftest import break_condition_i, break_condition_ii, dense_grid, two_label_spec
from .oracles import (
    MissingOffspringTermError,
    build_balance_graph,
    cycle_identity_product,
    depth_one_kernel,
    every_source_reachability,
    dropped_entry,
    every_visit_condition_i,
    first_visit_condition_i,
    fraction_solve_potentials,
    fraction_verify_reversibility,
    listed_violations,
    pairwise_root_weights,
    pairwise_validate_template,
    permute_class,
    permute_measure,
    permute_spec,
    plain_cycle_product,
    propagate_potentials,
    random_template,
    random_template_candidate,
    random_plain_spec,
    random_template_weights,
    redrawn_rows,
    solve_offspring,
    support_classes,
    unreachable_pair_bruteforce,
)

CORPUS = 600
# templates whose specs and variants go through the depth-1 kernel
DEPTH_ONE_CORPUS = 200


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


def added_entry(rng, spec):
    """Copy of the spec with one new entry, of at most 2 children per label,
    added to a random law (j, i) and the law reweighted at random: its
    children carry only labels k with a law (i, k), so the spec stays
    closed, and the new class it forces may lack a term, so condition i may
    fail; None when that law already lists every such entry."""
    offspring = dict(spec.offspring)
    j, i = rng.choice(sorted(offspring))
    counts = [range(3) if (i, k) in offspring else [0] for k in range(1, spec.n + 1)]
    new = [e for e in itertools.product(*counts) if e not in offspring[(j, i)]]
    if not new:
        return None
    raw = {c: rng.randint(1, 9) for c in sorted(offspring[(j, i)]) + [rng.choice(new)]}
    offspring[(j, i)] = {c: F(r, sum(raw.values())) for c, r in raw.items()}
    return GWSpec(n=spec.n, mode=PAIR, offspring=offspring)


def condition_i(spec):
    """Condition i's verdict and witness, read off the spec's factor table."""
    return _condition_i(factor_table(spec))


def table_potentials(spec):
    """(nodes, potentials, cycle, components) of a spec on which condition i
    holds, read off its factor table."""
    return _potentials(factor_table(spec))


def test_condition_i_matches_the_every_visit_loop():
    # the verdict and the witness (first failing class, at its first label)
    # against both loops, on specs with law entries dropped and added; on a
    # failing spec run_checks leaves the potentials out
    rng = random.Random(9)
    checked = failing = 0
    for _, _, spec in corpus(9):
        for s in (spec, dropped_entry(rng, spec), dropped_entry(rng, spec),
                  added_entry(rng, spec), added_entry(rng, spec)):
            if s is None:
                continue
            result = condition_i(s)
            assert result == first_visit_condition_i(s) == every_visit_condition_i(s)
            report = run_checks(s)
            assert (report.condition_i, report.condition_i_counterexample) == result
            checked += 1
            if result[0]:
                continue
            failing += 1
            assert report.condition_ii is report.potentials is None
            i, _, k, c = result[1]
            with pytest.raises(MissingOffspringTermError) as reference:
                fraction_solve_potentials(s)
            assert str(reference.value) == (f"class {SupportClass(i, c)} needs an unstored "
                                            f"offspring probability for parent {k}")
    template, weights = dense_grid(4, seed=3)
    grid = solve_offspring(template, weights)
    for s in (grid, dropped_entry(rng, grid), added_entry(rng, grid), two_label_spec(),
              break_condition_i(two_label_spec()), break_condition_i(grid)):
        if s is not None:
            assert condition_i(s) == first_visit_condition_i(s) == every_visit_condition_i(s)
    assert checked > 2000 and failing > 1000 and checked // 5 < failing < checked - checked // 5


def graph_path(spec):
    graph = build_balance_graph(spec)
    potentials, cycle = propagate_potentials(graph)
    return graph.nodes, potentials, cycle, len(graph.components())


def test_potentials_match_the_balance_graph():
    inconsistent = 0
    for _, _, spec in corpus(1):
        assert condition_i(spec)[0]
        fast = table_potentials(spec)
        assert fast == graph_path(spec) == fraction_solve_potentials(spec)
        inconsistent += fast[2] is not None
    # both verdicts are well represented
    assert CORPUS // 5 < inconsistent < CORPUS - CORPUS // 5


def test_potentials_match_on_reweighted_laws():
    # several label pairs fail at once, so the witness must be the first
    # inconsistent edge over all of them
    rng = random.Random(6)
    inconsistent = 0
    for _, _, spec in corpus(6):
        spec = reweighted(rng, spec)
        fast = table_potentials(spec)
        assert fast == graph_path(spec) == fraction_solve_potentials(spec)
        inconsistent += fast[2] is not None
    assert inconsistent > CORPUS // 3


def test_potentials_match_on_dense_and_broken_grids():
    template, weights = dense_grid(4, seed=3)
    spec = solve_offspring(template, weights)
    flat = dict(spec.offspring)
    flat[(1, 1)] = {c: F(1, len(flat[(1, 1)])) for c in flat[(1, 1)]}
    flat[(2, 1)] = {c: F(1, len(flat[(2, 1)])) for c in flat[(2, 1)]}
    broken = GWSpec(n=2, mode=PAIR, offspring=flat)
    for s in (spec, broken, two_label_spec(), break_condition_ii(two_label_spec())):
        assert table_potentials(s) == graph_path(s)
    assert table_potentials(broken)[2] is not None


def test_strong_connectivity_matches_all_sources_reachability():
    # the verdict and the first unreachable (source, target) pair, also on
    # specs whose dropped law entries cut type edges
    rng = random.Random(7)
    failed = cut = 0
    for _, _, spec in corpus(7):
        for s in (spec, reweighted(rng, spec), dropped_entry(rng, spec)):
            if s is None:
                continue
            verdict = check_strong_connectivity(s)
            assert verdict == unreachable_pair_bruteforce(s) == every_source_reachability(s)
            failed += not verdict[0]
            cut += s is not spec and not verdict[0] and check_strong_connectivity(spec)[0]
    assert CORPUS // 10 < failed < 2 * CORPUS
    assert cut > 10


def test_depth_one_flow_equations_decide_the_theorem():
    # one unknown weight per candidate class, one equation per adjacent
    # pair, no ratio and no spanning tree: conditions i and ii with a
    # connected support hold exactly when the kernel is one-dimensional and
    # spanned by a positive vector, and that vector, normalized, is the
    # class masses `construct_measure` gives
    rng = random.Random(11)
    grid = solve_offspring(*dense_grid(3, seed=3))
    # two labels that never meet: conditions i and ii hold on two components
    apart = GWSpec(n=2, mode=PAIR, offspring={(1, 1): {(1, 0): F(1)}, (2, 2): {(0, 1): F(1)}})
    specs = [two_label_spec(), break_condition_i(two_label_spec()),
             break_condition_ii(two_label_spec()), grid, dropped_entry(rng, grid), apart]
    for _, _, spec in itertools.islice(corpus(11), DEPTH_ONE_CORPUS):
        specs += [spec, dropped_entry(rng, spec), added_entry(rng, spec), reweighted(rng, spec)]
    specs = [s for s in specs if s is not None]
    holding = built = 0
    dimensions = set()
    for s in specs:
        report = run_checks(s)
        classes, basis = depth_one_kernel(s)
        holds = (report.condition_i and report.condition_ii is True
                 and report.connected_support is True)
        assert holds == (len(basis) == 1 and all(w > 0 for w in basis[0])), s
        holding += holds
        dimensions.add(len(basis))
        if report.ok():
            measure = construct_measure(s)
            mass = sum(basis[0])
            assert [w / mass for w in basis[0]] == [measure.class_prob(u) for u in classes]
            built += 1
    assert len(specs) // 5 < holding < len(specs) - len(specs) // 5
    assert built > len(specs) // 5
    assert dimensions == {0, 1, 2}


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
            # only toward a label whose subtree below label i has a law, as
            # RootMeasure requires
            k = rng.choice([k for k in range(measure.n)
                            if measure.descendants.offspring_law(i, k + 1)])
            extra = c[:k] + (c[k] + 7,) + c[k + 1:]
            half = {v: p / 2 for v, p in dist.items()}
            half[extra] = half.get(extra, 0) + F(1, 2)
            neighbors[i] = half
    return RootMeasure(n=measure.n, root_dist=root, neighbor_dist=neighbors,
                       descendants=measure.descendants)


def test_verify_reversibility_matches_the_oracle():
    rng = random.Random(2)
    clean = failing = 0
    for _, _, spec in corpus(2):
        if not run_checks(spec).ok():
            continue
        measure = construct_measure(spec)
        for m in (measure, perturbed(rng, measure), perturbed(rng, measure)):
            found = verify_reversibility(m)
            assert found == listed_violations(m) == fraction_verify_reversibility(m)
            clean += not found
            failing += bool(found)
    assert clean > 50 and failing > 50


def test_verify_reversibility_matches_on_plain_measures():
    rng = random.Random(5)
    for _ in range(60):
        measure = construct_plain_measure(random_plain_spec(rng, rng.randint(1, 4)))
        for m in (measure, perturbed(rng, measure)):
            found = verify_reversibility(m)
            assert found == listed_violations(m) == fraction_verify_reversibility(m)


@pytest.mark.parametrize("k", [4, 8, 10])
def test_integer_balance_keys_match_fractions_on_64_bit_grids(k):
    # the sizes of the benchmark's dense grids, with 64-bit class weights:
    # the cross products compared are several hundred bits long
    rng = random.Random(k)
    template, weights = dense_grid(k, seed=k, bits=64)
    spec = solve_offspring(template, weights)
    flat = dict(spec.offspring)
    for key in [(1, 1), (2, 1)]:
        flat[key] = {c: F(1, len(flat[key])) for c in flat[key]}
    broken = GWSpec(n=2, mode=PAIR, offspring=flat)
    for s in (spec, broken):
        fast = table_potentials(s)
        assert fast == fraction_solve_potentials(s) == graph_path(s)
        assert (fast[2] is None) == (s is spec)
    measure = construct_measure(spec)
    assert max(p.denominator for p in measure.neighbor_dist[1].values()).bit_length() > 64
    failing = 0
    for m in (measure, perturbed(rng, measure), perturbed(rng, measure)):
        found = verify_reversibility(m)
        assert found == fraction_verify_reversibility(m) == listed_violations(m)
        failing += bool(found)
    assert failing == 2


def test_assembled_root_weights_match_the_pairwise_check():
    # the label-flow solve against every class pair under the solved laws:
    # the same weights, or the same first failing label pair
    raised = 0
    for template, weights, spec in corpus(3):
        expected = pairwise_root_weights(template, weights, spec)
        try:
            got = assemble_measure(template, weights).root_dist
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

    ok, small = condition_i(broken(2))
    ok_big, big = condition_i(broken(5000))
    assert not ok and not ok_big
    assert big[:3] == small[:3] and big[3][:2] == small[3]


# ---------------------------------------------------------------------------
# Label-permutation invariance: the conditions, their witnesses and the
# measure do not depend on how the labels are named
# ---------------------------------------------------------------------------

def random_permutation(rng, n):
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return dict(zip(range(1, n + 1), image))


def test_pair_pipeline_is_label_permutation_invariant():
    rng = random.Random(8)
    failing = cycles = 0
    for _, _, spec in corpus(8):
        tau = random_permutation(rng, spec.n)
        moved = permute_spec(spec, tau)
        report, moved_report = run_checks(spec), run_checks(moved)
        assert moved_report.failed_names() == report.failed_names()
        if moved_report.violating_cycle is not None:
            cycles += 1
            walk = [(u.label, u.vector) for u in moved_report.violating_cycle]
            assert cycle_identity_product(moved, walk) != 1
        if moved_report.condition_i_counterexample is not None:
            i, j, k, c = moved_report.condition_i_counterexample
            assert moved.offspring_prob(j, i, decrement(c, j)) > 0
            assert moved.offspring_prob(k, i, decrement(c, k)) == 0
        if report.ok():
            assert construct_measure(moved) == permute_measure(construct_measure(spec), tau)
        failing += not report.ok()
    assert CORPUS // 5 < failing < CORPUS - CORPUS // 5 and cycles > CORPUS // 5


def test_plain_pipeline_is_label_permutation_invariant():
    rng = random.Random(9)
    failing = cycles = 0
    for k in range(300):
        pspec = random_plain_spec(rng, rng.randint(1, 5))
        if k % 2:
            pspec = redrawn_rows(rng, pspec)
        tau = random_permutation(rng, pspec.n)
        moved = permute_spec(pspec, tau)
        report, moved_report = run_plain_checks(pspec), run_plain_checks(moved)
        assert moved_report.failed_names() == report.failed_names()
        if moved_report.violating_cycle is not None:
            cycles += 1
            assert plain_cycle_product(moved, moved_report.violating_cycle) != 1
        if report.ok():
            assert construct_plain_measure(moved) == permute_measure(
                construct_plain_measure(pspec), tau)
        failing += not report.ok()
    assert failing > 30 and cycles > 30


def test_assemble_measure_is_label_permutation_invariant():
    # assemble(tau M, tau w) == tau assemble(M, w), whatever the class order;
    # a template whose ratios do not close stays inconsistent
    rng = random.Random(10)
    inconsistent = 0
    for template, weights, _ in corpus(10):
        tau = random_permutation(rng, template.n)
        classes = [permute_class(u, tau) for u in template.classes]
        rng.shuffle(classes)
        moved = SupportTemplate(n=template.n, classes=tuple(classes))
        moved_weights = {permute_class(u, tau): w for u, w in weights.items()}
        try:
            measure = assemble_measure(template, weights)
        except InconsistentRatiosError:
            inconsistent += 1
            with pytest.raises(InconsistentRatiosError):
                assemble_measure(moved, moved_weights)
            continue
        assert assemble_measure(moved, moved_weights) == permute_measure(measure, tau)
    assert CORPUS // 5 < inconsistent < CORPUS - CORPUS // 5


def test_exact_flow_and_transport_are_label_permutation_invariant():
    from gwrev.simulator import exact_transport

    rng = random.Random(11)
    measures = 0
    for template, weights, _ in corpus(11):
        try:
            measure = assemble_measure(template, weights)
        except InconsistentRatiosError:
            continue
        measures += 1
        tau = random_permutation(rng, measure.n)
        moved = permute_measure(measure, tau)
        classes = support_classes(measure)
        for u in classes:
            for v in classes:
                if u.vector[v.label - 1] > 0 and v.vector[u.label - 1] > 0:
                    assert exact_flow(moved, permute_class(u, tau), permute_class(v, tau)) \
                        == exact_flow(measure, u, v)
        for i in range(1, measure.n + 1):
            for j in range(1, measure.n + 1):
                assert exact_transport(moved, tau[i], tau[j]) == exact_transport(measure, i, j)
    assert measures > CORPUS // 5
