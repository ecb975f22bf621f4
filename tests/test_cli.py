import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from gwrev import fileformats as ff
from gwrev.cli import main
from gwrev.constructor import construct_measure
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
from .oracles import build_balance_graph, cycle_product, random_plain_spec


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


def test_plain_direct_and_explicit_forms_agree(capsys, tmp_path):
    """The factored plain document and its expansion: `construct` writes the
    same measure file, byte for byte, and `check` prints the same report."""
    from gwrev.norelabel import expand_plain_spec

    rng = random.Random(61)
    for _ in range(100):
        pspec = random_plain_spec(rng, rng.randint(1, 5))
        forms = (ff.plain_spec_to_obj(pspec), ff.spec_to_obj(expand_plain_spec(pspec)))
        checks, measures = [], []
        for name, obj in zip(("direct", "explicit"), forms):
            path = write(tmp_path / f"{name}.json", obj)
            checks.append((main(["check", path]), capsys.readouterr().out))
            out = tmp_path / f"{name}_measure.json"
            assert main(["construct", path, str(out)]) == 0
            capsys.readouterr()
            measures.append(out.read_bytes())
        assert checks[0] == checks[1] and checks[0][0] == 0
        assert measures[0] == measures[1]


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


@pytest.mark.parametrize("pair", [["--from", "1:(1,1)", "--to", "2:(1,1)"],
                                  ["--from", "1:(1,1)"], ["--to", "2:(1,1)"]])
def test_simulate_mtp_and_class_pair_exclude_each_other(capsys, tmp_path, spec_path, pair):
    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    code = main(["simulate", str(out), "--trials", "10", "--seed", "1", "--mtp", "1,2", *pair])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--mtp I,J or --from and --to, not both" in captured.err


@pytest.mark.parametrize("mtp", ["1", "1,2,3", "1,b", ""])
def test_simulate_mtp_needs_two_labels(capsys, tmp_path, spec_path, mtp):
    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    code = main(["simulate", str(out), "--trials", "10", "--seed", "1", "--mtp", mtp])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"--mtp I,J takes two labels, got {mtp!r}" in captured.err


@pytest.mark.parametrize("selector", [["--mtp", "1,2"],
                                      ["--from", "1:(1,1)", "--to", "2:(1,1)"]])
@pytest.mark.parametrize("trials", [2**64 + 1, 2**70])
def test_simulate_trial_indices_must_fit_in_64_bits(capsys, tmp_path, spec_path, monkeypatch,
                                                    selector, trials):
    import gwrev.simulator

    def no_draws(*args, **kwargs):
        raise AssertionError("drew a trial")

    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    monkeypatch.setattr(gwrev.simulator, "_RootDraws", no_draws)
    code = main(["simulate", str(out), "--trials", str(trials), "--seed", "1", *selector])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "trials must be in [1, 2**64]" in captured.err


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
    return ff.measure_to_obj(construct_measure(two_label_spec()))


def _replaced(entries, path, value):
    """A deep copy of `entries` with the node at `path` replaced by `value`."""
    out = copy.deepcopy(entries)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


_OFFSPRING = _worked_spec_obj()["offspring"]
_DEGREE_DIST = ff.plain_spec_to_obj(three_label_plain())["degree_dist"]
_ROOT = _worked_measure_obj()["root"]
_NEIGHBORS = _worked_measure_obj()["neighbors"]


@pytest.mark.parametrize("command, document, key, value", [
    ("check", "spec", "offspring", 5),
    ("check", "spec", "offspring", [5]),
    ("check", "spec", "n", [2]),
    ("check", "spec", "degree_dist", 5),  # the direct plain form
    ("verify", "measure", "root", [5]),
    # a float, a bool or a numeric string where an integer belongs is not
    # truncated to one
    ("check", "spec", "n", 1.9),
    ("check", "spec", "n", 2.0),
    ("check", "spec", "n", True),
    ("check", "spec", "n", "2"),
    ("check", "spec", "offspring", _replaced(_OFFSPRING, [0, "dist", 0, "c"], [0.4, 1])),
    ("check", "spec", "offspring", _replaced(_OFFSPRING, [0, "dist", 0, "c"], [2.7, 1])),
    ("check", "spec", "offspring", _replaced(_OFFSPRING, [0, "dist", 0, "c"], [True, 1])),
    ("check", "spec", "offspring", _replaced(_OFFSPRING, [0, "dist", 0, "c"], ["1", 1])),
    ("check", "spec", "offspring", _replaced(_OFFSPRING, [0, "parent"], 1.0)),
    ("check", "spec", "offspring", _replaced(_OFFSPRING, [0, "child"], True)),
    ("check", "spec", "offspring", _replaced(_OFFSPRING, [0, "dist", 0, "p"], True)),
    ("check", "spec", "offspring", _replaced(_OFFSPRING, [0, "dist", 0, "p"], 0.5)),
    ("check", "spec", "degree_dist", _replaced(_DEGREE_DIST, [0, "type"], True)),
    ("check", "spec", "degree_dist", _replaced(_DEGREE_DIST, [0, "dist", 0, "d"], 1.5)),
    ("check", "spec", "degree_dist", _replaced(_DEGREE_DIST, [0, "dist", 0, "p"], True)),
    ("verify", "measure", "root", _replaced(_ROOT, [0, "label"], 1.0)),
    ("verify", "measure", "root", _replaced(_ROOT, [0, "p"], False)),
    ("verify", "measure", "neighbors", _replaced(_NEIGHBORS, [0, "label"], "1")),
    ("verify", "measure", "neighbors", _replaced(_NEIGHBORS, [0, "dist", 0, "c"], [2.7, 1])),
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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: bad {document} document" in captured.err


@pytest.mark.parametrize("command, document, path", [
    ("verify", "measure", ["root"]),
    ("verify", "measure", ["neighbors"]),
    ("check", "plain spec", ["degree_dist"]),
    ("check", "plain spec", ["degree_dist", 0, "dist"]),
    ("parametrize", "weights", ["weights"]),
])
def test_duplicate_entry_is_malformed(capsys, tmp_path, command, document, path):
    # an identical repeat of the first entry: letting the last one win would
    # accept the document and exit 0
    if document == "measure":
        obj = _worked_measure_obj()
    elif document == "plain spec":
        obj = ff.plain_spec_to_obj(three_label_plain())
    else:
        obj = ff.weights_to_obj(two_label_weights(F(1, 2), F(1, 2)))
    entries = obj
    for key in path:
        entries = entries[key]
    entries.append(entries[0])
    doc = write(tmp_path / "doc.json", obj)
    if command == "parametrize":
        tmpl = write(tmp_path / "tmpl.json", ff.template_to_obj(two_label_template()))
        argv = [command, tmpl, doc, str(tmp_path / "out.json")]
    else:
        argv = [command, doc]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: duplicate" in captured.err


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


# both roots have a neighbor of the other label, but there is no law (1, 2)
# or (2, 1) to grow that neighbor's subtree from
UNSAMPLEABLE_ROOT = {
    "descendants": {"n": 2, "mode": "pair", "offspring": [
        {"parent": 1, "child": 1, "dist": [{"c": [0, 0], "p": "1"}]},
        {"parent": 2, "child": 2, "dist": [{"c": [0, 0], "p": "1"}]},
    ]},
    "root": [{"label": 1, "p": "1/2"}, {"label": 2, "p": "1/2"}],
    "neighbors": [{"label": 1, "dist": [{"c": [1, 1], "p": "1"}]},
                  {"label": 2, "dist": [{"c": [1, 1], "p": "1"}]}],
}


@pytest.mark.parametrize("command, options", [
    ("simulate", ["--trials", "10", "--seed", "1", "--from", "1:(1,1)", "--to", "2:(1,1)"]),
    ("simulate", ["--trials", "10", "--seed", "1", "--mtp", "1,2"]),
    ("verify", []),
])
def test_root_neighbor_without_offspring_law_is_malformed(capsys, tmp_path, command, options):
    path = write(tmp_path / "measure.json", UNSAMPLEABLE_ROOT)
    code = main([command, path, *options])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "label-1 roots have label-2 neighbors" in captured.err


# ---------------------------------------------------------------------------
# the exact pipeline never builds the class-by-class balance graph
# ---------------------------------------------------------------------------

def test_exact_pipeline_avoids_the_quadratic_graph(capsys, tmp_path):
    # the edge-by-edge graph lives in tests/oracles.py only
    import gwrev
    import gwrev.checker

    for name in ("BalanceGraph", "edge_ratio", "build_balance_graph",
                 "propagate_potentials", "cycle_product"):
        assert not hasattr(gwrev, name) and not hasattr(gwrev.checker, name), name

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


def test_exact_commands_never_load_numpy(tmp_path):
    # only `simulate` needs numpy: importing the package and running every
    # other command leaves it unloaded, in a fresh interpreter
    import gwrev

    spec = write(tmp_path / "spec.json", ff.spec_to_obj(two_label_spec()))
    tmpl = write(tmp_path / "tmpl.json", ff.template_to_obj(two_label_template()))
    params = write(tmp_path / "params.json",
                   ff.weights_to_obj(two_label_weights(F(1, 2), F(1, 2))))
    (tmp_path / "graph.txt").write_text("0 1\n1 2\n2 0\n")
    measure = str(tmp_path / "m.json")
    calls = [["check", spec], ["construct", spec, measure],
             ["parametrize", tmpl, params, str(tmp_path / "p.json")],
             ["cover", str(tmp_path / "graph.txt"), str(tmp_path / "c.json")],
             ["verify", measure]]
    script = (
        "import contextlib, io, sys\n"
        "import gwrev, gwrev.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert gwrev.cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "gwrev.estimate_flow\n"
        "assert 'numpy' in sys.modules\n"
    )
    src = str(Path(gwrev.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr


def test_simulate_builds_no_generator_per_trial(capsys, tmp_path, spec_path, monkeypatch):
    import numpy as np

    import gwrev.simulator

    from .oracles import reference_estimate_flow, reference_mass_transport_check

    out = tmp_path / "measure.json"
    run(capsys, "construct", spec_path, str(out))
    flow = ["simulate", str(out), "--trials", "4000", "--seed", "7",
            "--from", "1:(1,1)", "--to", "2:(1,1)"]
    mtp = ["simulate", str(out), "--trials", "4000", "--seed", "7", "--mtp", "1,2"]
    with monkeypatch.context() as patch:
        # `cmd_simulate` looks both names up in `gwrev.simulator`
        patch.setattr(gwrev.simulator, "estimate_flow", reference_estimate_flow)
        patch.setattr(gwrev.simulator, "mass_transport_check", reference_mass_transport_check)
        expected = []
        for argv in (flow, mtp):
            assert main(argv) == 0
            expected.append(capsys.readouterr().out)

    def forbidden(*args, **kwargs):
        raise AssertionError("simulate built a generator for a trial")

    monkeypatch.setattr(np.random, "Philox", forbidden)
    for argv, stdout in zip((flow, mtp), expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == stdout


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
