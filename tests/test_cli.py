import json
from fractions import Fraction as F

import pytest

from gwrev import fileformats as ff
from gwrev.checker import build_balance_graph, cycle_product
from gwrev.cli import main
from gwrev.core import GWSpec, PAIR, SupportClass
from gwrev.parametrizer import solve_offspring

from .conftest import (
    break_condition_i,
    break_condition_ii,
    dense_grid,
    three_label_plain,
    two_label_spec,
    two_label_template,
    two_label_weights,
)


def write(path, obj):
    path.write_text(ff.canonical_json(obj))
    return str(path)


@pytest.fixture
def spec_path(tmp_path):
    return write(tmp_path / "spec.json", ff.spec_to_obj(two_label_spec()))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passes_on_worked_spec(capsys, spec_path):
    code, report = run(capsys, "check", spec_path)
    assert code == 0
    assert report["ok"] is True
    assert report["condition_i"] == "pass"
    assert report["condition_ii"] == "pass"


def test_check_names_condition_i(capsys, tmp_path):
    path = write(tmp_path / "broken.json",
                 ff.spec_to_obj(break_condition_i(two_label_spec())))
    code, report = run(capsys, "check", path)
    assert code == 1
    assert "condition_i" in report["failed"]
    witness = report["condition_i_counterexample"]
    assert (witness["i"], witness["j"], witness["k"], tuple(witness["c"])) == (
        1, 1, 2, (1, 1))


def test_check_names_condition_ii_with_replayable_cycle(capsys, tmp_path):
    broken = break_condition_ii(two_label_spec())
    path = write(tmp_path / "broken.json", ff.spec_to_obj(broken))
    code, report = run(capsys, "check", path)
    assert code == 1
    assert "condition_ii" in report["failed"]
    cycle = [
        SupportClass(entry["label"], tuple(entry["c"]))
        for entry in report["violating_cycle"]
    ]
    graph = build_balance_graph(broken)
    assert cycle_product(graph, cycle) != 1


def test_check_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "mode": "pair", "offsp')
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_check_plain_spec(capsys, tmp_path):
    path = write(tmp_path / "plain.json", ff.plain_spec_to_obj(three_label_plain()))
    code, report = run(capsys, "check", path)
    assert code == 0 and report["ok"] is True
    broken = three_label_plain(p31=F(1, 4), p32=F(3, 4))
    path = write(tmp_path / "bad_plain.json", ff.plain_spec_to_obj(broken))
    code, report = run(capsys, "check", path)
    assert code == 1
    assert "cycles" in report["failed"]
    assert report["violating_cycle"][0] == report["violating_cycle"][-1]


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_writes_verified_measure(capsys, tmp_path, spec_path):
    out = tmp_path / "measure.json"
    code, result = run(capsys, "construct", spec_path, str(out))
    assert code == 0 and result["verified"] is True
    text = out.read_text()
    assert '"3/8"' in text and '"5/8"' in text
    measure = ff.load_measure(out)
    assert measure.root_dist == {1: F(3, 8), 2: F(5, 8)}


def test_construct_rejects_broken_spec(capsys, tmp_path):
    path = write(tmp_path / "broken.json",
                 ff.spec_to_obj(break_condition_i(two_label_spec())))
    out = tmp_path / "measure.json"
    code, report = run(capsys, "construct", path, str(out))
    assert code == 1
    assert "condition_i" in report["failed"]
    assert not out.exists()


def test_construct_plain_direct_form(capsys, tmp_path):
    path = write(tmp_path / "plain.json", ff.plain_spec_to_obj(three_label_plain()))
    out = tmp_path / "measure.json"
    code, _ = run(capsys, "construct", path, str(out))
    assert code == 0
    text = out.read_text()
    assert '"3/7"' in text and '"2/7"' in text
    code, result = run(capsys, "verify", str(out))
    assert code == 0 and result["ok"] is True


def test_construct_plain_explicit_form(capsys, tmp_path):
    from gwrev.norelabel import expand_plain_spec

    path = write(tmp_path / "plain.json",
                 ff.spec_to_obj(expand_plain_spec(three_label_plain())))
    out = tmp_path / "measure.json"
    code, _ = run(capsys, "construct", path, str(out))
    assert code == 0
    assert ff.load_measure(out).root_dist == {1: F(3, 7), 2: F(2, 7), 3: F(2, 7)}


def test_construct_single_type_augmented_law(capsys, tmp_path):
    spec_obj = {
        "n": 1,
        "mode": "pair",
        "offspring": [
            {"parent": 1, "child": 1,
             "dist": [{"c": [1], "p": "1/2"}, {"c": [2], "p": "1/2"}]},
        ],
    }
    path = write(tmp_path / "agw.json", spec_obj)
    out = tmp_path / "measure.json"
    code, _ = run(capsys, "construct", path, str(out))
    assert code == 0
    measure = ff.load_measure(out)
    assert measure.neighbor_dist[1] == {(2,): F(1, 2), (3,): F(1, 2)}


# ---------------------------------------------------------------------------
# parametrize
# ---------------------------------------------------------------------------

def test_parametrize_matches_construct_byte_for_byte(capsys, tmp_path, spec_path):
    measure_a = tmp_path / "a.json"
    run(capsys, "construct", spec_path, str(measure_a))
    tmpl = write(tmp_path / "tmpl.json", ff.template_to_obj(two_label_template()))
    params = write(tmp_path / "params.json",
                   ff.weights_to_obj(two_label_weights(F(1, 2), F(1, 2))))
    measure_b = tmp_path / "b.json"
    code, _ = run(capsys, "parametrize", tmpl, params, str(measure_b))
    assert code == 0
    assert measure_a.read_bytes() == measure_b.read_bytes()


def test_parametrize_rejects_bad_template(capsys, tmp_path):
    tmpl = write(tmp_path / "tmpl.json", {
        "n": 2,
        "classes": [{"label": 1, "c": [0, 1]}, {"label": 2, "c": [0, 1]}],
    })
    params = write(tmp_path / "params.json", {"weights": [
        {"label": 1, "c": [0, 1], "p": "1"},
        {"label": 2, "c": [0, 1], "p": "1"},
    ]})
    code, report = run(capsys, "parametrize", tmpl, params, str(tmp_path / "m.json"))
    assert code == 1
    assert any("support_symmetry" in name for name in report["failed"])


# ---------------------------------------------------------------------------
# cover / simulate / verify
# ---------------------------------------------------------------------------

def test_cover_star_and_verify(capsys, tmp_path):
    gpath = tmp_path / "star.txt"
    gpath.write_text("1 0\n1 2\n1 3\n")
    out = tmp_path / "measure.json"
    dot = tmp_path / "pairs.dot"
    code, result = run(capsys, "cover", str(gpath), str(out), "--dot", str(dot))
    assert code == 0
    assert result["labels"] == [1, 2, 1, 1]
    assert "digraph" in dot.read_text()
    code, _ = run(capsys, "verify", str(out))
    assert code == 0
    measure = ff.load_measure(out)
    assert measure.root_dist == {1: F(1, 2), 2: F(1, 2)}


def test_simulate_flow(capsys, tmp_path, spec_path):
    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    code, result = run(
        capsys, "simulate", str(out), "--trials", "4000", "--seed", "7",
        "--from", "1:(1,1)", "--to", "2:(1,1)",
    )
    assert code == 0
    assert result["ok"] is True
    assert [r["exact"] for r in result["estimates"]] == ["3/32", "3/32"]
    assert all(r["within_4se"] for r in result["estimates"])
    assert all(r["seed"] == 7 and r["trials"] == 4000 for r in result["estimates"])


def test_simulate_mtp(capsys, tmp_path, spec_path):
    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    code, result = run(
        capsys, "simulate", str(out), "--trials", "4000", "--seed", "7",
        "--mtp", "1,2",
    )
    assert code == 0
    assert result["estimates"][0]["exact"] == result["estimates"][1]["exact"] == "3/8"


def test_simulate_requires_flags(capsys, tmp_path, spec_path):
    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    code = main(["simulate", str(out), "--trials", "10", "--seed", "1"])
    assert code == 2


def test_verify_detects_tampering(capsys, tmp_path, spec_path):
    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    obj = json.loads(out.read_text())
    by_label = {entry["label"]: entry for entry in obj["root"]}
    by_label[1]["p"], by_label[2]["p"] = by_label[2]["p"], by_label[1]["p"]
    out.write_text(ff.canonical_json(obj))
    code, result = run(capsys, "verify", str(out))
    assert code == 1
    assert result["violations"]


# ---------------------------------------------------------------------------
# malformed input exits 2, never with a traceback
# ---------------------------------------------------------------------------

def _worked_spec_obj():
    return ff.spec_to_obj(two_label_spec())


def test_dist_entry_vector_not_a_list(capsys, tmp_path):
    obj = _worked_spec_obj()
    obj["offspring"][0]["dist"][0]["c"] = 5
    assert main(["check", write(tmp_path / "spec.json", obj)]) == 2
    assert "error:" in capsys.readouterr().err


def test_dist_entry_zero_denominator(capsys, tmp_path):
    obj = _worked_spec_obj()
    obj["offspring"][0]["dist"][0]["p"] = "1/0"
    assert main(["check", write(tmp_path / "spec.json", obj)]) == 2
    assert "zero denominator" in capsys.readouterr().err


def _worked_measure_obj():
    from gwrev.constructor import construct_measure

    return ff.measure_to_obj(construct_measure(two_label_spec()))


@pytest.mark.parametrize("command, document, key, value", [
    ("check", "spec", "offspring", 5),
    ("check", "spec", "offspring", [5]),
    ("check", "spec", "n", [2]),
    ("check", "spec", "degree_dist", 5),  # the direct plain form
    ("verify", "measure", "root", [5]),
])
def test_document_of_the_wrong_shape(capsys, tmp_path, command, document, key, value):
    if document == "measure":
        obj = _worked_measure_obj()
    elif key == "degree_dist":
        obj = ff.plain_spec_to_obj(three_label_plain())
    else:
        obj = _worked_spec_obj()
    obj[key] = value
    assert main([command, write(tmp_path / "doc.json", obj)]) == 2
    assert f"error: bad {document} document" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_rejects_nonpositive_trials(capsys, tmp_path, spec_path, trials):
    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    code = main(["simulate", str(out), "--trials", trials, "--seed", "1", "--mtp", "1,2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--trials" in captured.err


def test_simulate_mtp_label_outside_range(capsys, tmp_path):
    spec_obj = {
        "n": 1,
        "mode": "pair",
        "offspring": [
            {"parent": 1, "child": 1,
             "dist": [{"c": [1], "p": "1/2"}, {"c": [2], "p": "1/2"}]},
        ],
    }
    out = tmp_path / "measure.json"
    run(capsys, "construct", write(tmp_path / "agw.json", spec_obj), str(out))
    code = main(["simulate", str(out), "--trials", "10", "--seed", "1", "--mtp", "1,7"])
    assert code == 2
    assert "outside [1, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("selector", ["1:(1,1,1)", "3:(1,1)"])
def test_simulate_selector_must_fit_the_measure(capsys, tmp_path, spec_path, selector):
    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    code = main(["simulate", str(out), "--trials", "10", "--seed", "1",
                 "--from", selector, "--to", "2:(1,1)"])
    assert code == 2
    assert selector in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the exact pipeline never builds the class-by-class balance graph
# ---------------------------------------------------------------------------

def test_exact_pipeline_avoids_the_quadratic_graph(capsys, tmp_path, monkeypatch):
    import gwrev.checker

    def forbidden(*args, **kwargs):
        raise AssertionError("the CLI built the quadratic balance graph")

    monkeypatch.setattr(gwrev.checker, "build_balance_graph", forbidden)
    monkeypatch.setattr(gwrev.checker, "edge_ratio", forbidden)

    template, weights = dense_grid(12)
    tmpl = write(tmp_path / "tmpl.json", ff.template_to_obj(template))
    params = write(tmp_path / "params.json", ff.weights_to_obj(weights))
    code, _ = run(capsys, "parametrize", tmpl, params, str(tmp_path / "param.json"))
    assert code == 0

    spec = solve_offspring(template, weights)
    path = write(tmp_path / "spec.json", ff.spec_to_obj(spec))
    code, _ = run(capsys, "construct", path, str(tmp_path / "measure.json"))
    assert code == 0
    assert (tmp_path / "measure.json").read_bytes() == (tmp_path / "param.json").read_bytes()

    flat = dict(spec.offspring)
    flat[(1, 1)] = {c: F(1, len(flat[(1, 1)])) for c in flat[(1, 1)]}
    path = write(tmp_path / "flat.json",
                 ff.spec_to_obj(GWSpec(n=2, mode=PAIR, offspring=flat)))
    code, report = run(capsys, "check", path)
    assert code == 1 and report["failed"] == ["condition_ii"]


# ---------------------------------------------------------------------------
# construct solves the balance potentials once, in run_checks
# ---------------------------------------------------------------------------

def test_construct_solves_the_balance_potentials_once(capsys, tmp_path, monkeypatch):
    import sys

    import gwrev.checker

    original = gwrev.checker.solve_potentials
    calls = []

    def counting(spec):
        calls.append(spec)
        return original(spec)

    # every gwrev module that holds the solver, the checker's own name included
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gwrev" and getattr(module, "solve_potentials", None) is original:
            monkeypatch.setattr(module, "solve_potentials", counting)

    template, weights = dense_grid(4)
    for spec in (two_label_spec(), solve_offspring(template, weights)):
        calls.clear()
        path = write(tmp_path / "spec.json", ff.spec_to_obj(spec))
        code, _ = run(capsys, "construct", path, str(tmp_path / "measure.json"))
        assert code == 0
        assert len(calls) == 1


def test_parametrize_validates_the_template_once(capsys, tmp_path, monkeypatch):
    import sys

    import gwrev.parametrizer

    original = gwrev.parametrizer.validate_template
    calls = []

    def counting(template):
        calls.append(template)
        return original(template)

    # every gwrev module that holds the validator, the parametrizer's own name included
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gwrev" and getattr(module, "validate_template", None) is original:
            monkeypatch.setattr(module, "validate_template", counting)

    params = write(tmp_path / "params.json",
                   ff.weights_to_obj(two_label_weights(F(1, 2), F(1, 2))))
    tmpl = write(tmp_path / "tmpl.json", ff.template_to_obj(two_label_template()))
    code, _ = run(capsys, "parametrize", tmpl, params, str(tmp_path / "m.json"))
    assert code == 0 and len(calls) == 1

    # a template failing support symmetry: the same one-line report, exit 1
    calls.clear()
    one_sided = write(tmp_path / "bad.json", {
        "n": 2,
        "classes": [{"label": 1, "c": [0, 1]}, {"label": 2, "c": [0, 1]}],
    })
    code, report = run(capsys, "parametrize", one_sided, params, str(tmp_path / "m.json"))
    assert code == 1 and len(calls) == 1
    assert report == {"ok": False, "failed": [
        "support_symmetry: labels (1, 2) are adjacent from one side only"]}
