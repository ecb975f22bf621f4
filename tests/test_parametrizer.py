import random
from fractions import Fraction as F

import pytest

from gwrev.checker import label_potentials, run_checks
from gwrev.constructor import construct_measure, verify_reversibility
from gwrev.core import SupportClass
from gwrev.parametrizer import (
    InconsistentRatiosError,
    SupportTemplate,
    _forced_laws,
    assemble_measure,
    family_dimension,
    validate_template,
)

from .conftest import (
    two_label_template,
    two_label_weights,
)
from .oracles import (
    balance_violations,
    random_admissible_instance,
    random_assembled_instance,
    random_fraction,
    random_template,
    random_template_candidate,
    random_template_weights,
    solve_offspring,
    template_of_measure,
)


# ---------------------------------------------------------------------------
# Template validation
# ---------------------------------------------------------------------------

def test_validate_worked_template(template):
    assert validate_template(template) == (True, None)


def test_validate_rejects_one_sided_adjacency():
    bad = SupportTemplate(n=2, classes=(
        SupportClass(1, (0, 1)),
        SupportClass(2, (0, 1)),
    ))
    ok, reason = validate_template(bad)
    assert not ok
    assert "support_symmetry" in reason


def test_validate_rejects_disconnected_labels():
    bad = SupportTemplate(n=2, classes=(
        SupportClass(1, (1, 0)),
        SupportClass(2, (0, 1)),
    ))
    ok, reason = validate_template(bad)
    assert not ok
    assert "connectivity" in reason


def test_validate_rejects_missing_label():
    bad = SupportTemplate(n=2, classes=(SupportClass(1, (0, 1)),))
    ok, reason = validate_template(bad)
    assert not ok


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------

def test_midpoint_weights_reproduce_worked_instance(template, pair_spec):
    mu = assemble_measure(template, two_label_weights(F(1, 2), F(1, 2)))
    assert mu.descendants.offspring == pair_spec.offspring
    assert mu.root_dist == {1: F(3, 8), 2: F(5, 8)}


def test_forced_point_mass_law(template):
    weights = two_label_weights(F(1, 3), F(2, 5))
    nu = solve_offspring(template, weights)
    # only one label-2 class carries a label-1 slot, so the law is forced
    assert nu.offspring[(1, 2)] == {(0, 1): F(1)}


def test_closed_forms_in_the_free_parameters(template):
    # frozen closed forms, themselves verified by the exact balance check
    # below: with weights (s, 1-s) on the label-1 classes and (t, 1-t) on
    # the label-2 classes,
    #   law(1,1) at (0,1):  3s / (4 - s)
    #   law(2,1) at (2,0):  (2 - 2s) / (2 + s)
    #   law(2,2) at (0,2):  (2 - 2t) / (2 - t)
    #   root(1):            3t / (2 + s + 3t)
    rng = random.Random(321)
    for _ in range(12):
        s, t = random_fraction(rng), random_fraction(rng)
        mu = assemble_measure(template, two_label_weights(s, t))
        nu = mu.descendants
        assert nu.offspring[(1, 1)][(0, 1)] == 3 * s / (4 - s)
        assert nu.offspring[(1, 1)][(1, 1)] == (4 - 4 * s) / (4 - s)
        assert nu.offspring[(2, 1)][(2, 0)] == (2 - 2 * s) / (2 + s)
        assert nu.offspring[(2, 1)][(1, 0)] == 3 * s / (2 + s)
        assert nu.offspring[(2, 2)][(0, 2)] == (2 - 2 * t) / (2 - t)
        assert nu.offspring[(2, 2)][(1, 0)] == t / (2 - t)
        assert nu.offspring[(1, 2)][(0, 1)] == 1
        assert mu.root_dist[1] == 3 * t / (2 + s + 3 * t)
        assert mu.root_dist[2] == (2 + s) / (2 + s + 3 * t)
        assert balance_violations(mu) == []


def test_specific_symbolic_value():
    mu = assemble_measure(two_label_template(), two_label_weights(F(1, 3), F(1, 2)))
    nu = mu.descendants
    assert nu.offspring[(1, 1)][(0, 1)] == F(3, 11)
    assert nu.offspring[(1, 1)][(1, 1)] == F(8, 11)


def test_single_label_root_weight_is_one():
    template = SupportTemplate(n=1, classes=(
        SupportClass(1, (1,)), SupportClass(1, (2,)),
    ))
    weights = {SupportClass(1, (1,)): F(1, 3), SupportClass(1, (2,)): F(2, 3)}
    mu = assemble_measure(template, weights)
    assert mu.root_dist == {1: F(1)}


def test_dimension():
    assert family_dimension(two_label_template()) == 2
    one_per_label = SupportTemplate(n=2, classes=(
        SupportClass(1, (0, 1)), SupportClass(2, (1, 0)),
    ))
    assert family_dimension(one_per_label) == 0
    seven_classes = SupportTemplate(n=3, classes=tuple(
        SupportClass(1 + k % 3, (k + 1, 1, 1)) for k in range(7)
    ))
    assert family_dimension(seven_classes) == 4


def test_dimension_is_class_count_minus_labels():
    rng = random.Random(11)
    for _ in range(10):
        template, _ = random_admissible_instance(rng, rng.randint(1, 4))
        assert family_dimension(template) == len(template.classes) - template.n


# ---------------------------------------------------------------------------
# End-to-end properties
# ---------------------------------------------------------------------------

def test_assembled_measures_always_balance_exactly():
    rng = random.Random(17)
    for _ in range(30):
        _, _, mu = random_assembled_instance(rng, rng.randint(1, 4))
        assert verify_reversibility(mu) == []
        assert balance_violations(mu) == []
        # the solved laws always satisfy the two existence conditions
        report = run_checks(mu.descendants)
        assert report.condition_i
        assert report.condition_ii is True


def test_round_trip_with_constructor():
    rng = random.Random(23)
    for _ in range(20):
        template, weights = random_admissible_instance(rng, rng.randint(1, 4))
        mu = assemble_measure(template, weights)
        rebuilt = construct_measure(mu.descendants)
        assert rebuilt.root_dist == mu.root_dist
        assert rebuilt.neighbor_dist == mu.neighbor_dist
        template2, weights2 = template_of_measure(rebuilt)
        assert template2.classes == template.classes
        assert weights2 == weights


# ---------------------------------------------------------------------------
# Structural conditions are not sufficient: frozen counterexamples
# ---------------------------------------------------------------------------

UNBALANCEABLE = SupportTemplate(n=4, classes=(
    SupportClass(1, (1, 2, 2, 1)),
    SupportClass(2, (2, 0, 0, 2)),
    SupportClass(3, (1, 0, 0, 0)),
    SupportClass(3, (1, 0, 0, 2)),
    SupportClass(4, (1, 1, 2, 0)),
    SupportClass(4, (2, 1, 2, 0)),
))


def test_unbalanceable_template_is_structurally_valid_but_rejected():
    assert validate_template(UNBALANCEABLE) == (True, None)
    rng = random.Random(2)
    for _ in range(5):
        weights = {}
        for i in range(1, 5):
            group = [c for c in UNBALANCEABLE.classes if c.label == i]
            raw = [rng.randint(1, 9) for _ in group]
            weights.update({c: F(r, sum(raw)) for c, r in zip(group, raw)})
        with pytest.raises(InconsistentRatiosError):
            assemble_measure(UNBALANCEABLE, weights)
        # equivalently, the solved laws fail the cycle-consistency check
        nu = solve_offspring(UNBALANCEABLE, weights)
        report = run_checks(nu)
        assert report.condition_ii is False


def test_rejected_template_builds_no_spec(monkeypatch):
    # the root weights are solved before the forced laws become a GWSpec, so
    # a template whose ratios do not close never validates one
    import gwrev.parametrizer as parametrizer

    def no_spec(*args, **kwargs):
        raise AssertionError("a GWSpec was built for a rejected template")

    weights = {}
    for i in range(1, 5):
        group = [c for c in UNBALANCEABLE.classes if c.label == i]
        weights.update({c: F(1, len(group)) for c in group})
    monkeypatch.setattr(parametrizer, "GWSpec", no_spec)
    with pytest.raises(InconsistentRatiosError):
        assemble_measure(UNBALANCEABLE, weights)


def test_accepted_templates_have_a_connected_label_graph():
    # chain connectivity links every label pair by classes, so the label
    # flows of a template that `validate_template` accepts join all labels
    # in one component: the root-weight solve has no disconnected case
    rng = random.Random(9)
    accepted = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        pick = random_template if rng.random() < 0.5 else random_template_candidate
        template = pick(rng, n)
        if not validate_template(template)[0]:
            continue
        accepted += 1
        flow = _forced_laws(template, random_template_weights(rng, template))[1]
        ratio = {(i, j): f / flow[(j, i)] for (i, j), f in flow.items() if i < j}
        assert label_potentials(n, ratio)[2] == 1
    assert accepted > 600


LEAFY = SupportTemplate(n=2, classes=(
    SupportClass(1, (0, 1)),
    SupportClass(2, (1, 0)),
    SupportClass(2, (2, 0)),
    SupportClass(2, (3, 0)),
))


def test_leafy_template_builds_reversible_measure_constructor_rejects():
    # label-1 vertices are leaf-like, so the pair type (2, 1) is a sink and
    # the solved laws fail pair-type strong connectivity, yet the assembled
    # measure is exactly reversible
    weights = {
        SupportClass(1, (0, 1)): F(1),
        SupportClass(2, (1, 0)): F(3, 7),
        SupportClass(2, (2, 0)): F(1, 7),
        SupportClass(2, (3, 0)): F(3, 7),
    }
    mu = assemble_measure(LEAFY, weights)
    assert verify_reversibility(mu) == []
    report = run_checks(mu.descendants)
    assert not report.strongly_connected
    assert report.condition_i and report.condition_ii is True
    from gwrev.core import ChecksFailedError

    with pytest.raises(ChecksFailedError):
        construct_measure(mu.descendants)
