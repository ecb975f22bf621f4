"""Differential tests: every read of a law's or a class's labels against the
scan it replaced in `tests/oracles.py`, on the random corpora and on the
benchmark's hub templates up to n = 256.

Each law's child labels are read once (`core.child_labels`, stored per law
by `GWSpec`), the class forest reads each class's neighbouring sides off the
side index, and support symmetry is read off the sides.  The closure and
root-law errors, the strong-connectivity, symmetry and condition-i
witnesses, and the class forest's order and parents must equal what the
column and coordinate scans give.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from gwrev.checker import check_strong_connectivity, run_checks
from gwrev.core import (
    PAIR,
    GWSpec,
    RootMeasure,
    SpecError,
    SupportClass,
    child_labels,
    class_forest,
    increment,
)
from gwrev.fileformats import obj_to_spec, obj_to_template
from gwrev.norelabel import PlainSpec, expand_plain_spec
from gwrev.parametrizer import SupportTemplate, assemble_measure, validate_template

from .oracles import (
    column_child_labels,
    column_closure_error,
    column_root_law_error,
    column_strong_connectivity,
    dropped_entry,
    first_visit_condition_i,
    pairwise_symmetry_reason,
    random_corpus,
    scan_class_forest,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HUB_SIZES = (3, 5, 16, 64, 128, 256)


def perfbench_gen():
    """`perfbench/gen.py`, which imports nothing from gwrev."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hub_instances():
    """(template, measure) for each hub size, built as the benchmark builds
    them: a random label tree from random.Random(n), its hub template and
    16-bit weights."""
    gen = perfbench_gen()
    for n in HUB_SIZES:
        rng = random.Random(n)
        nbrs = gen.random_label_tree(rng, n)
        classes = gen.hub_template(rng, n, nbrs)
        weights = gen.random_weights(rng, classes, 16)
        template = SupportTemplate(n, tuple(SupportClass(i, c) for i, c in classes))
        yield template, assemble_measure(
            template, {SupportClass(i, c): p for (i, c), p in weights.items()})


def one_sided(rng, template):
    """Copy of the template with one label-i class given a neighbor of a
    label k != i whose classes never count label i, so that support
    symmetry fails at (i, k); None when no label has such a k."""
    sees = {(cls.label, j) for cls in template.classes
            for j, cj in enumerate(cls.vector, start=1) if cj}
    pairs = [(cls, k) for cls in template.classes for k in range(1, template.n + 1)
             if k != cls.label and (k, cls.label) not in sees]
    if not pairs:
        return None
    cls, k = rng.choice(pairs)
    moved = set(template.classes) - {cls} | {SupportClass(cls.label, increment(cls.vector, k))}
    return SupportTemplate(template.n, tuple(moved))


def corpus_instances():
    """(specs, templates, measures) of `random_corpus`: pair and plain specs
    (the direct plain form expanded), templates and every measure with its
    descendant spec."""
    specs, templates, measures = [], [], []
    for doc in random_corpus():
        if isinstance(doc, RootMeasure):
            measures.append(doc)
            specs.append(doc.descendants)
        elif "classes" in doc:
            templates.append(obj_to_template(doc))
        elif "offspring" in doc or "degree_dist" in doc:
            spec = obj_to_spec(doc)
            specs.append(expand_plain_spec(spec) if isinstance(spec, PlainSpec) else spec)
    return specs, templates, measures


@pytest.fixture(scope="module")
def instances():
    """(specs, templates, measures) of the corpus and the hub templates,
    with a one-sided copy of every template."""
    specs, templates, measures = corpus_instances()
    for template, measure in hub_instances():
        templates.append(template)
        measures.append(measure)
        specs.append(measure.descendants)
    rng = random.Random(4)
    templates += [t for t in (one_sided(rng, t) for t in templates) if t is not None]
    return specs, templates, measures


def test_child_labels_match_the_column_scan(instances):
    specs, _, measures = instances
    for spec in specs:
        assert spec.child_labels == {
            key: column_child_labels(law) for key, law in spec.offspring.items()}
    for measure in measures:
        for law in measure.neighbor_dist.values():
            assert child_labels(law) == column_child_labels(law)


def test_closure_error_matches_the_column_scan(instances):
    # every spec with one law removed: the first law, in sorted order, whose
    # children lack a law names the least such child type
    specs, _, _ = instances
    rng = random.Random(5)
    failing = 0
    for spec in specs:
        for key in rng.sample(sorted(spec.offspring), min(3, len(spec.offspring) - 1)):
            offspring = {k: law for k, law in spec.offspring.items() if k != key}
            expected = column_closure_error(spec.n, spec.mode, offspring)
            try:
                GWSpec(n=spec.n, mode=spec.mode, offspring=offspring)
                message = None
            except SpecError as err:
                message = str(err)
            assert message == expected
            failing += expected is not None
    assert failing > 500


def test_strong_connectivity_matches_the_column_scan(instances):
    specs, _, _ = instances
    rng = random.Random(6)
    failing = 0
    for spec in specs:
        if spec.mode != PAIR:
            continue
        for s in (spec, dropped_entry(rng, spec), dropped_entry(rng, spec)):
            if s is not None:
                result = check_strong_connectivity(s)
                assert result == column_strong_connectivity(s)
                failing += not result[0]
    assert failing > 50


def test_root_law_error_matches_the_column_scan(instances):
    # a root class of label i given a neighbor of a label j with no law (i, j)
    _, _, measures = instances
    rng = random.Random(7)
    failing = 0
    for measure in measures:
        spec = measure.descendants
        i = rng.randint(1, measure.n)
        lacking = [j for j in range(1, measure.n + 1) if not spec.offspring_law(i, j)]
        if not lacking:
            continue
        neighbor_dist = dict(measure.neighbor_dist)
        law = dict(neighbor_dist[i])
        c = rng.choice(sorted(law))
        law[increment(c, rng.choice(lacking))] = law.pop(c)
        neighbor_dist[i] = law
        expected = column_root_law_error(neighbor_dist, spec)
        with pytest.raises(SpecError) as error:
            RootMeasure(measure.n, measure.root_dist, neighbor_dist, spec)
        assert str(error.value) == expected
        failing += 1
    assert failing > 50


def test_symmetry_reason_matches_the_pairwise_loop(instances):
    _, templates, _ = instances
    failing = 0
    for template in templates:
        expected = pairwise_symmetry_reason(template)
        reason = validate_template(template)[1]
        if expected is None:
            assert reason is None or not reason.startswith("support_symmetry")
        else:
            assert reason == expected
            failing += 1
    assert failing > 30


def test_class_forest_matches_the_coordinate_scan(instances):
    specs, templates, measures = instances
    class_sets = [template.classes for template in templates]
    class_sets += [sorted({SupportClass(i, increment(e, j))
                           for (j, i), law in spec.offspring.items() for e in law})
                   for spec in specs if spec.mode == PAIR]
    class_sets += [sorted(SupportClass(i, c) for i, law in measure.neighbor_dist.items()
                          for c in law) for measure in measures]
    for classes in class_sets:
        assert class_forest(classes) == scan_class_forest(classes)


def test_condition_i_witness_matches_the_law_loop(instances):
    specs, _, _ = instances
    rng = random.Random(8)
    failing = 0
    for spec in specs:
        if spec.mode != PAIR:
            continue
        for s in (spec, dropped_entry(rng, spec), dropped_entry(rng, spec)):
            if s is not None:
                report = run_checks(s)
                expected = first_visit_condition_i(s)
                assert (report.condition_i, report.condition_i_counterexample) == expected
                failing += not expected[0]
    assert failing > 50
