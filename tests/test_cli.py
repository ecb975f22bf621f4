import copy
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from gwrev import fileformats as ff
from gwrev.cli import build_parser, main, parse_args
from gwrev.constructor import construct_measure
from gwrev.core import GWSpec, PAIR, RootMeasure, SupportClass
from gwrev.norelabel import PlainSpec, expand_plain_spec

from .conftest import (
    break_condition_i,
    break_condition_ii,
    dense_grid,
    three_label_plain,
    two_label_spec,
    two_label_template,
    two_label_weights,
)
from .oracles import (
    build_balance_graph,
    cycle_product,
    measure_obj,
    plain_spec_to_obj,
    random_corpus,
    random_plain_spec,
    redrawn_rows,
    solve_offspring,
    spec_to_obj,
    template_to_obj,
    weights_to_obj,
)


def write(path, obj):
    path.write_text(ff.canonical_json(obj))
    return str(path)


@pytest.fixture
def spec_path(tmp_path):
    return write(tmp_path / "spec.json", spec_to_obj(two_label_spec()))


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
                 spec_to_obj(break_condition_i(two_label_spec())))
    code, report = run(capsys, "check", path)
    assert code == 1
    assert "condition_i" in report["failed"]
    witness = report["condition_i_counterexample"]
    assert (witness["i"], witness["j"], witness["k"], tuple(witness["c"])) == (
        1, 1, 2, (1, 1))


def test_check_names_condition_ii_with_replayable_cycle(capsys, tmp_path):
    broken = break_condition_ii(two_label_spec())
    path = write(tmp_path / "broken.json", spec_to_obj(broken))
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
    path = write(tmp_path / "plain.json", plain_spec_to_obj(three_label_plain()))
    code, report = run(capsys, "check", path)
    assert code == 0 and report["ok"] is True
    broken = three_label_plain(p31=F(1, 4), p32=F(3, 4))
    path = write(tmp_path / "bad_plain.json", plain_spec_to_obj(broken))
    code, report = run(capsys, "check", path)
    assert code == 1
    assert "cycles" in report["failed"]
    assert report["violating_cycle"][0] == report["violating_cycle"][-1]


@pytest.mark.parametrize("rows, witness", [
    (((F(1, 2), F(1, 2)), (F(0), F(1))), [1, 2]),
    (((F(1), F(0)), (F(1, 2), F(1, 2))), [2, 1]),
])
def test_asymmetric_plain_spec_fails_in_either_form(capsys, tmp_path, rows, witness):
    # the witness (i, j) has p(i, j) > 0 = p(j, i); the direct and the
    # explicit form give the same report, and construct writes nothing
    pspec = PlainSpec(n=2, degree_dist={1: {1: F(1)}, 2: {1: F(1)}},
                      params=dict(enumerate(rows, start=1)))
    expected = {"mode": "plain", "ok": False, "failed": ["asymmetric-adjacency"],
                "multinomial": "asymmetric-adjacency", "cycles": "skipped",
                "connected": "skipped", "witness": witness}
    out = tmp_path / "measure.json"
    for name, obj in (("direct", plain_spec_to_obj(pspec)),
                      ("explicit", spec_to_obj(expand_plain_spec(pspec)))):
        path = write(tmp_path / f"{name}.json", obj)
        assert run(capsys, "check", path) == (1, expected)
        code, report = run(capsys, "construct", path, str(out))
        assert code == 1 and report["failed"] == ["asymmetric-adjacency"]
        assert not out.exists()


def test_check_and_construct_agree_on_failure(capsys, tmp_path):
    # every failing spec of the random corpus: the pair specs, and each
    # direct plain spec, as it is and with its rows redrawn, also in its
    # explicit form.  construct fails as check does and writes nothing; it
    # prints check's report, except on the direct form, where it prints
    # check's first failed name and its cycle
    rng = random.Random(27)
    specs = []
    for doc in random_corpus():
        if isinstance(doc, dict) and "offspring" in doc:
            specs.append(("pair", doc))
        elif isinstance(doc, dict) and "params" in doc:
            pspec = ff.obj_to_spec(doc)
            for p in (pspec, redrawn_rows(rng, pspec)):
                specs.append(("direct", plain_spec_to_obj(p)))
                specs.append(("explicit", spec_to_obj(expand_plain_spec(p))))
    out = tmp_path / "measure.json"
    failing = {"pair": 0, "direct": 0, "explicit": 0}
    cycles = 0
    for form, doc in specs:
        path = write(tmp_path / "spec.json", doc)
        code = main(["check", path])
        checked = capsys.readouterr().out
        if code == 0:
            continue
        assert main(["construct", path, str(out)]) == code
        constructed = capsys.readouterr().out
        assert not out.exists()
        if code == 2:
            continue
        failing[form] += 1
        if form == "direct":
            report = json.loads(checked)
            short = {"ok": False, "failed": report["failed"][:1]}
            if "violating_cycle" in report:
                short["violating_cycle"] = report["violating_cycle"]
                cycles += 1
            assert constructed == ff.canonical_json(short)
        else:
            assert constructed == checked
    assert failing["pair"] > 50 and failing["direct"] == failing["explicit"] > 10, failing
    assert cycles > 5


@pytest.mark.parametrize("n, params", [
    (1, "1"),  # read character by character
    (1, [{"1": 0}]),  # read by its keys
    (2, ["10", "01"]),  # read as the identity matrix
])
@pytest.mark.parametrize("command", ["check", "construct"])
def test_plain_params_must_be_a_list_of_lists(capsys, tmp_path, n, params, command):
    obj = {"n": n, "mode": "plain", "params": params,
           "degree_dist": [{"type": i, "dist": [{"d": 1, "p": "1"}]} for i in range(1, n + 1)]}
    out = tmp_path / "measure.json"
    argv = [command, write(tmp_path / "plain.json", obj)]
    code = main(argv + [str(out)] if command == "construct" else argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "error: bad spec document: " in captured.err and "is not a list" in captured.err
    assert not out.exists()



def test_check_and_construct_name_a_label_no_law_realizes(capsys, tmp_path):
    # label 3 is declared, but no law has a label-3 parent or child
    path = write(tmp_path / "spec.json", {"n": 3, "mode": "pair", "offspring": [
        {"parent": 1, "child": 2, "dist": [{"c": [1, 0, 0], "p": "1"}]},
        {"parent": 2, "child": 1, "dist": [{"c": [0, 1, 0], "p": "1"}]},
    ]})
    assert main(["check", path]) == 1
    checked = capsys.readouterr().out
    assert checked == ff.canonical_json({
        "condition_i": "pass", "condition_ii": "pass", "connected_support": True,
        "failed": ["labels_realized"], "labels_realized": False, "missing_label": 3,
        "mode": "pair", "ok": False, "strongly_connected": True})
    out = tmp_path / "m.json"
    assert main(["construct", path, str(out)]) == 1
    assert capsys.readouterr().out == checked
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

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
                 spec_to_obj(break_condition_i(two_label_spec())))
    out = tmp_path / "measure.json"
    code, report = run(capsys, "construct", path, str(out))
    assert code == 1
    assert "condition_i" in report["failed"]
    assert not out.exists()


def test_construct_plain_direct_form(capsys, tmp_path):
    path = write(tmp_path / "plain.json", plain_spec_to_obj(three_label_plain()))
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
                 spec_to_obj(expand_plain_spec(three_label_plain())))
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
        forms = (plain_spec_to_obj(pspec), spec_to_obj(expand_plain_spec(pspec)))
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


def test_construct_refuses_a_plain_expansion_past_the_size_bound(capsys, tmp_path):
    # 178 bytes that pass `check` and would expand to about 6 GB: exit 2
    # before any table is built
    spec = tmp_path / "plain.json"
    spec.write_text('{"mode": "plain", "n": 2, "degree_dist": [{"type": 1, "dist": '
                    '[{"d": 100000, "p": "1"}]}, {"type": 2, "dist": [{"d": 1, "p": "1"}]}], '
                    '"params": [["1/2", "1/2"], ["1/2", "1/2"]]}')
    assert main(["check", str(spec)]) == 0
    capsys.readouterr()
    out = tmp_path / "m.json"
    start = time.perf_counter()
    code = main(["construct", str(spec), str(out)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and elapsed < 2.0, elapsed
    assert "past the bound of 134217728 bytes" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.json"]


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
    tmpl = write(tmp_path / "tmpl.json", template_to_obj(two_label_template()))
    params = write(tmp_path / "params.json",
                   weights_to_obj(two_label_weights(F(1, 2), F(1, 2))))
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


def test_cover_with_an_unwritable_destination_writes_nothing(capsys, tmp_path):
    gpath = tmp_path / "tri.txt"
    gpath.write_text("0 1\n1 2\n2 0\n")
    out, dot = tmp_path / "out.json", tmp_path / "pairs.dot"
    missing = tmp_path / "missing"
    assert main(["cover", str(gpath), str(out), "--dot", str(missing / "x.dot")]) == 2
    assert main(["cover", str(gpath), str(missing / "out.json"), "--dot", str(dot)]) == 2
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tri.txt"]
    # a DOT file that was there already is left as it was
    dot.write_text("old")
    assert main(["cover", str(gpath), str(missing / "out.json"), "--dot", str(dot)]) == 2
    assert dot.read_text() == "old"
    code, _ = run(capsys, "cover", str(gpath), str(out), "--dot", str(dot))
    assert code == 0 and dot.read_text().startswith("digraph")


def test_cover_refuses_a_dot_path_that_names_the_measure_output(capsys, tmp_path, monkeypatch):
    # the same file under two spellings: exit 2, before either file is opened
    monkeypatch.chdir(tmp_path)
    Path("tri.txt").write_text("0 1\n1 2\n2 0\n")
    for dot in ("same.json", "./same.json", str(tmp_path / "same.json")):
        assert main(["cover", "tri.txt", "same.json", "--dot", dot]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --dot {dot} names the measure output same.json\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tri.txt"]
    # a symbolic link to the measure output is the same file too
    os.symlink("same.json", "link.json")
    assert main(["cover", "tri.txt", "same.json", "--dot", "link.json"]) == 2
    assert not os.path.lexists("same.json") and capsys.readouterr().out == ""


def test_cover_writes_the_dot_text_to_a_device(capsys, tmp_path):
    # a device cannot be truncated: the DOT text is written to it as it is
    gpath = tmp_path / "tri.txt"
    gpath.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "out.json"
    code, result = run(capsys, "cover", str(gpath), str(out), "--dot", os.devnull)
    assert code == 0
    assert result["dot"] == os.devnull and result["written"] == str(out)
    assert run(capsys, "verify", str(out))[0] == 0



@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_cover_with_a_dot_write_that_fails_writes_no_measure(capsys, tmp_path):
    # every write to /dev/full fails: the measure written before it goes again
    gpath = tmp_path / "tri.txt"
    gpath.write_text("0 1\n1 2\n2 0\n")
    assert main(["cover", str(gpath), str(tmp_path / "tri_m.json"), "--dot", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "No space left on device" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tri.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_cover_with_a_dot_write_that_fails_keeps_the_measure_there(capsys, tmp_path):
    # the new measure is renamed over the old only once the DOT text is
    # written; a call that succeeds keeps the old file's permissions
    gpath = tmp_path / "tri.txt"
    gpath.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "m.json"
    out.write_text("old")
    out.chmod(0o640)
    assert main(["cover", str(gpath), str(out), "--dot", "/dev/full"]) == 2
    assert capsys.readouterr().out == "" and out.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "tri.txt"]
    code, result = run(capsys, "cover", str(gpath), str(out), "--dot", os.devnull)
    assert code == 0 and result["written"] == str(out)
    assert out.read_text().startswith("{") and out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "tri.txt"]



_VIOLATION = (SupportClass(1, (1, 1)), SupportClass(2, (1, 1)), F(3, 32), F(1, 32))


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", ["construct", "parametrize", "cover", "cover --dot"])
def test_a_verify_violation_refuses_every_measure_write(
        capsys, tmp_path, monkeypatch, command, existing):
    # exit 1 with the violation, no file created, and a measure and a DOT
    # file already there left byte-identical
    monkeypatch.setattr("gwrev.cli.verify_reversibility", lambda measure: [_VIOLATION])
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    out, dot = outputs / "m.json", outputs / "pairs.dot"
    if command == "construct":
        argv = [command, write(inputs / "spec.json", spec_to_obj(two_label_spec()))]
    elif command == "parametrize":
        argv = [command, write(inputs / "tmpl.json", template_to_obj(two_label_template())),
                write(inputs / "w.json", weights_to_obj(two_label_weights(F(1, 2), F(1, 2))))]
    else:
        graph = inputs / "tri.txt"
        graph.write_text("0 1\n1 2\n2 0\n")
        argv = ["cover", str(graph)]
    argv.append(str(out))
    if command == "cover --dot":
        argv += ["--dot", str(dot)]
    if existing:
        out.write_text("old measure")
        dot.write_text("old dot")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ff.canonical_json({"failed": ["verify"], "ok": False, "violations": [
        {"first": {"c": [1, 1], "label": 1}, "lhs": "3/32", "rhs": "1/32",
         "second": {"c": [1, 1], "label": 2}}]})
    written = {p.name: p.read_text() for p in outputs.iterdir()}
    assert written == ({"m.json": "old measure", "pairs.dot": "old dot"} if existing else {})

@pytest.mark.parametrize("edges, head", [
    # a triangle numbered from 1: four vertices, vertex 0 alone
    ("1 2\n2 3\n3 1\n", "graph must be connected"),
    # a 10-cycle numbered from 1 declares 11 vertices
    ("".join(f"{k} {k % 10 + 1}\n" for k in range(1, 11)), "11 vertices exceeds the bound 10"),
])
def test_cover_names_the_vertex_without_an_edge(capsys, tmp_path, edges, head):
    gpath = tmp_path / "graph.txt"
    gpath.write_text(edges)
    code = main(["cover", str(gpath), str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {head}: vertex 0 has no edge (vertices are numbered 0..")
    assert not (tmp_path / "m.json").exists()


def test_cover_disconnected_graph_without_isolated_vertex(capsys, tmp_path):
    gpath = tmp_path / "graph.txt"
    gpath.write_text("0 1\n2 3\n")
    assert main(["cover", str(gpath), str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == "error: graph must be connected\n"


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
    monkeypatch.setattr(gwrev.simulator, "philox_block", no_draws)
    code = main(["simulate", str(out), "--trials", str(trials), "--seed", "1", *selector])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "trials must be in [1, 2**64]" in captured.err


def huge_degree_measure(degree):
    """A reversible one-label measure whose root has 1 or `degree`
    neighbors, each with probability 1/2."""
    return {
        "root": [{"label": 1, "p": "1"}],
        "neighbors": [{"label": 1, "dist": [{"c": [1], "p": "1/2"}, {"c": [degree], "p": "1/2"}]}],
        "descendants": {"n": 1, "mode": "pair", "offspring": [
            {"parent": 1, "child": 1,
             "dist": [{"c": [0], "p": "1/2"}, {"c": [degree - 1], "p": "1/2"}]},
        ]},
        "verified": True,
    }


@pytest.mark.parametrize("degree", [2**32, 2**40, 2**64])
def test_simulate_refuses_an_end_of_degree_2_to_the_32_or_more(capsys, tmp_path, monkeypatch,
                                                               degree):
    import gwrev.simulator

    path = write(tmp_path / "huge.json", huge_degree_measure(degree))
    # a huge degree elsewhere in the measure is no obstacle
    for argv in (["verify", path],
                 ["simulate", path, "--trials", "1000", "--seed", "1", "--mtp", "1,1"],
                 ["simulate", path, "--trials", "1000", "--seed", "1",
                  "--from", "1:(1)", "--to", "1:(1)"]):
        assert main(argv) == 0, argv
    capsys.readouterr()

    def no_draws(*args, **kwargs):
        raise AssertionError("drew a trial")

    # refused before any array is built: no draw, and no array sized by the degree
    monkeypatch.setattr(gwrev.simulator, "philox_block", no_draws)
    huge = f"1:({degree})"
    for ends in ((huge, huge), ("1:(1)", huge)):
        code = main(["simulate", path, "--trials", "10", "--seed", "1",
                     "--from", ends[0], "--to", ends[1]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: class {huge} has degree {degree}; a walk step "
                                f"needs an end class of degree below 2**32\n")


def one_degree_measure(degree):
    """The reversible one-label measure whose root always has `degree`
    neighbors."""
    return {
        "root": [{"label": 1, "p": "1"}],
        "neighbors": [{"label": 1, "dist": [{"c": [degree], "p": "1"}]}],
        "descendants": {"n": 1, "mode": "pair", "offspring": [
            {"parent": 1, "child": 1, "dist": [{"c": [degree - 1], "p": "1"}]},
        ]},
        "verified": True,
    }


@pytest.mark.parametrize("exponent, bound", [
    (511, "needs its square times the 10 trials below the largest float, 1.8e+308"),
    (1024, "is inf; a transport check needs its square times the 10 trials"),
    (1100, "z is below 2**-1074, the smallest positive float"),
])
def test_mtp_refuses_a_measure_whose_float_sums_leave_the_float_range(
        capsys, tmp_path, monkeypatch, exponent, bound):
    import gwrev.simulator

    # 1/deg weights of 2**-exponent: transport values c_j / |c| / z of
    # 2**exponent, whose squares over 10 trials overflow from 2**511 on
    path = write(tmp_path / "m.json", one_degree_measure(2**exponent))
    assert main(["verify", path]) == 0
    capsys.readouterr()

    def no_draws(*args, **kwargs):
        raise AssertionError("drew a trial")

    monkeypatch.setattr(gwrev.simulator, "philox_block", no_draws)
    code = main(["simulate", path, "--mtp", "1,1", "--trials", "10", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and bound in captured.err


def test_mtp_estimates_a_measure_of_degree_2_to_the_510(capsys, tmp_path):
    path = write(tmp_path / "m.json", one_degree_measure(2**510))
    code, result = run(capsys, "simulate", path, "--mtp", "1,1", "--trials", "10",
                       "--seed", "1")
    assert code == 0 and result["ok"]
    for estimate in result["estimates"]:
        assert estimate["empirical_mean"] == float(2**510)
        assert estimate["exact"] == str(2**510)


def test_mtp_allows_the_rounding_of_an_estimate_with_no_spread(capsys, tmp_path):
    # every root has 10**6 neighbors: each trial's value is the exact mean
    # but for the rounding of its float arithmetic, and the standard error is 0
    spec = write(tmp_path / "spec.json", {"n": 1, "mode": "pair", "offspring": [
        {"parent": 1, "child": 1, "dist": [{"c": [1000000], "p": "1"}]}]})
    out = tmp_path / "m.json"
    assert run(capsys, "construct", spec, str(out))[0] == 0
    code, result = run(capsys, "simulate", str(out), "--mtp", "1,1", "--trials", "3",
                       "--seed", "1")
    assert code == 0 and result["ok"]
    for estimate in result["estimates"]:
        assert estimate["exact"] == "1000001" and estimate["std_error"] == 0.0
        assert estimate["empirical_mean"] != 1000001.0 and estimate["within_4se"]


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


def test_verify_names_a_walk_step_out_of_the_support(capsys, tmp_path):
    # every flow between support classes balances (1/3 both ways), but the
    # walk from 1:(0,1) meets a label-2 neighbor with one label-1 child, of
    # class 2:(2,0), with probability 1/2; that class has mass 0
    spec = GWSpec(n=2, mode=PAIR, offspring={
        (1, 2): {(0, 0): F(1, 2), (1, 0): F(1, 2)},
        (2, 1): {(0, 0): F(1)},
    })
    measure = RootMeasure(n=2, root_dist={1: F(2, 3), 2: F(1, 3)},
                          neighbor_dist={1: {(0, 1): F(1)}, 2: {(1, 0): F(1)}},
                          descendants=spec)
    path = write(tmp_path / "leaky.json", measure_obj(measure, verified=False))
    code, result = run(capsys, "verify", path)
    assert code == 1
    assert result == {"ok": False, "violations": [
        {"first": {"label": 1, "c": [0, 1]}, "second": {"label": 2, "c": [2, 0]},
         "lhs": "1/3", "rhs": "0"}]}


# ---------------------------------------------------------------------------
# malformed input exits 2, never with a traceback
# ---------------------------------------------------------------------------

def _worked_spec_obj():
    return spec_to_obj(two_label_spec())


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
    return measure_obj(construct_measure(two_label_spec()))


def _replaced(entries, path, value):
    """A deep copy of `entries` with the node at `path` replaced by `value`."""
    out = copy.deepcopy(entries)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


_OFFSPRING = _worked_spec_obj()["offspring"]
_DEGREE_DIST = plain_spec_to_obj(three_label_plain())["degree_dist"]
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
        obj = plain_spec_to_obj(three_label_plain())
    else:
        obj = _worked_spec_obj()
    obj[key] = value
    assert main([command, write(tmp_path / "doc.json", obj)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: bad {document} document" in captured.err


# each site of weights that sum to 1: the command that reads it, the path of
# its first weight in the document, that weight with the sum moved off 1,
# what the refusal names and the first weight's key
_WEIGHT_SITES = {
    "root": ("verify", ["root", 0, "p"], "3/16", "root weights", "1"),
    "degree": ("check", ["degree_dist", 0, "dist", 0, "p"], "1/4",
               "degree weights of label 1", "1"),
    "parameters": ("check", ["params", 0, 0], "1/6", "parameters of label 1", "1"),
    "class": ("parametrize", ["weights", 0, "p"], "1/4", "class weights of label 1",
              "1:(1,1)"),
}


@pytest.mark.parametrize("site", sorted(_WEIGHT_SITES))
@pytest.mark.parametrize("fault", ["range", "sum"])
def test_each_weight_site_refuses_a_weight_out_of_range_and_a_sum_other_than_1(
        capsys, tmp_path, site, fault):
    command, path, moved, what, key = _WEIGHT_SITES[site]
    value = "3/2" if fault == "range" else moved
    out = tmp_path / "out.json"
    if command == "verify":
        argv = [command, write(tmp_path / "doc.json",
                               _replaced(_worked_measure_obj(), path, value))]
    elif command == "check":
        argv = [command, write(tmp_path / "doc.json",
                               _replaced(plain_spec_to_obj(three_label_plain()), path, value))]
    else:
        weights = weights_to_obj(two_label_weights(F(1, 2), F(1, 2)))
        argv = [command, write(tmp_path / "template.json", template_to_obj(two_label_template())),
                write(tmp_path / "weights.json", _replaced(weights, path, value)), str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    if fault == "range":
        interval = "[0, 1]" if site == "parameters" else "(0, 1]"
        assert captured.err == (
            f"error: {what}: the weight of {key} is 3/2, not a Fraction in {interval}\n")
    else:
        assert captured.err.startswith(f"error: {what} sum to ")
        assert captured.err.endswith(", expected 1\n")


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
        obj = plain_spec_to_obj(three_label_plain())
    else:
        obj = weights_to_obj(two_label_weights(F(1, 2), F(1, 2)))
    entries = obj
    for key in path:
        entries = entries[key]
    entries.append(entries[0])
    doc = write(tmp_path / "doc.json", obj)
    if command == "parametrize":
        tmpl = write(tmp_path / "tmpl.json", template_to_obj(two_label_template()))
        argv = [command, tmpl, doc, str(tmp_path / "out.json")]
    else:
        argv = [command, doc]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: duplicate" in captured.err



# each form of document the reader takes, from the worked instances: the
# command that reads it, the kind its refusals name, and the document
_FORMS = {
    "pair spec": ("check", "spec", lambda: spec_to_obj(two_label_spec())),
    "explicit plain spec": ("check", "spec",
                            lambda: spec_to_obj(expand_plain_spec(three_label_plain()))),
    "direct plain spec": ("check", "spec", lambda: plain_spec_to_obj(three_label_plain())),
    "measure": ("verify", "measure", _worked_measure_obj),
    "template": ("parametrize", "template", lambda: template_to_obj(two_label_template())),
    "weights": ("parametrize", "weights",
                lambda: weights_to_obj(two_label_weights(F(1, 2), F(1, 2)))),
}

# keys whose absence is read as a default or as the other plain form, and
# the one key no reader reads
_UNREAD_WHEN_ABSENT = {"offspring", "root", "neighbors", "degree_dist", "verified"}

# what a refusal calls an entry of each list of objects, by the list's key
_ENTRY_KINDS = {"dist": "distribution entry", "offspring": "offspring entry",
                "degree_dist": "degree_dist entry", "root": "root entry",
                "neighbors": "neighbors entry", "classes": "class entry",
                "weights": "weight entry"}


def _nodes(node, path=()):
    """(path, value) of every node of a JSON tree, the root first."""
    yield path, node
    children = (node.items() if type(node) is dict
                else enumerate(node) if type(node) is list else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _with(obj, path, value):
    """A copy of `obj` with the node at `path`, the root included, replaced
    by `value`."""
    return _replaced(obj, list(path), value) if path else value


def _faults(obj, fault):
    """(the path of the faulty node, the document with that one fault, the
    text its refusal ends with) for every site of `fault` in `obj`."""
    for path, node in _nodes(obj):
        if fault == "drop" and type(node) is dict:
            for key in sorted(set(node) - _UNREAD_WHEN_ABSENT):
                kept = {k: v for k, v in node.items() if k != key}
                yield path, _with(obj, path, kept), f"missing key {key!r}"
        elif fault == "retype" and type(node) in (list, int):
            value = json.dumps(node) if type(node) is list else float(node)
            yield path, _with(obj, path, value), ""
        elif fault == "entry" and type(node) is dict and path and type(path[-1]) is int:
            # an entry object of a list: a number, a list or a string there
            for value in (5, [5], "5"):
                yield path, _with(obj, path, value), \
                    f"{_ENTRY_KINDS[path[-2]]} {value!r} is not an object"
        elif fault == "duplicate" and type(node) is list and node and all(
                type(entry) is dict and "c" in entry for entry in node):
            yield path, _with(obj, path, node + [node[0]]), ""


@pytest.mark.parametrize("form, fault", [
    (form, fault) for form in _FORMS for fault in ("drop", "retype", "entry", "duplicate")
    if (form, fault) != ("direct plain spec", "duplicate")  # it holds no vector
])
def test_the_reader_refuses_each_fault_in_the_document_it_reads(capsys, tmp_path, form, fault):
    # exit 2 with empty stdout and no file written; the refusal names the
    # kind of document read (a measure's descendants are a spec) and a
    # dropped key, and a duplicate keeps its own refusal
    command, kind, build = _FORMS[form]
    sites = list(_faults(build(), fault))
    assert sites
    for path, doc, ending in sites:
        argv = [command, write(tmp_path / "doc.json", doc)]
        if command == "parametrize":
            other = "weights" if kind == "template" else "template"
            argv.insert(1 if kind == "weights" else 2,
                        write(tmp_path / "other.json", _FORMS[other][2]()))
            argv.append(str(tmp_path / "m.json"))
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), path
        if fault == "duplicate":
            assert captured.err.startswith("error: duplicate "), (path, captured.err)
        else:
            named = "spec" if path[:1] == ("descendants",) else kind
            assert captured.err.startswith(f"error: bad {named} document: "), (path, captured.err)
            assert captured.err.endswith(ending + "\n"), (path, captured.err)
        assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("value", [5, [_FORMS["pair spec"][2]()], "{}", None])
def test_a_document_that_is_not_an_object_is_refused(capsys, tmp_path, form, value):
    command, kind, build = _FORMS[form]
    argv = [command, write(tmp_path / "doc.json", value)]
    if command == "parametrize":
        other = "weights" if kind == "template" else "template"
        argv.insert(1 if kind == "weights" else 2,
                    write(tmp_path / "other.json", _FORMS[other][2]()))
        argv.append(str(tmp_path / "m.json"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {kind} document must be a JSON object\n")
    assert not (tmp_path / "m.json").exists()


NESTED = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command, position", [
    ("check", 0),
    ("construct", 0),
    ("verify", 0),
    ("simulate", 0),
    ("parametrize", 0),  # the template
    ("parametrize", 1),  # the weights
])
def test_deeply_nested_document_is_malformed(capsys, tmp_path, command, position):
    # json's parser runs out of recursion on it; that is malformed input
    nested = tmp_path / "nested.json"
    nested.write_text(NESTED)
    if command == "parametrize":
        docs = [write(tmp_path / "tmpl.json", template_to_obj(two_label_template())),
                write(tmp_path / "params.json",
                      weights_to_obj(two_label_weights(F(1, 2), F(1, 2))))]
        docs[position] = str(nested)
        argv = [command, *docs, str(tmp_path / "out.json")]
    elif command == "construct":
        argv = [command, str(nested), str(tmp_path / "out.json")]
    elif command == "simulate":
        argv = [command, str(nested), "--trials", "10", "--seed", "1", "--mtp", "1,2"]
    else:
        argv = [command, str(nested)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "nested too deeply" in captured.err
    assert not (tmp_path / "out.json").exists()


def long_weight(offset):
    """A weight in (0, 1) whose numerator and denominator have 3,001 digits,
    as has one minus it."""
    return F(10**3000 + offset, 2 * 10**3000 + 2 * offset + 1)


def test_values_beyond_the_int_str_digit_limit(capsys, tmp_path):
    # the measure's values have more digits than Python converts by default
    limit = sys.get_int_max_str_digits()
    tmpl = write(tmp_path / "tmpl.json", template_to_obj(two_label_template()))
    params = write(tmp_path / "params.json",
                   weights_to_obj(two_label_weights(long_weight(1), long_weight(3))))
    out = tmp_path / "m.json"
    code, report = run(capsys, "parametrize", tmpl, params, str(out))
    assert code == 0 and report["ok"] is True
    assert sys.get_int_max_str_digits() == limit
    assert max(len(token) for token in out.read_text().split('"')) > limit
    code, report = run(capsys, "verify", str(out))
    assert code == 0 and report["ok"] is True
    assert sys.get_int_max_str_digits() == limit


def test_main_restores_the_callers_int_str_digit_limit(capsys, tmp_path, spec_path):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert main(["check", spec_path]) == 0
        assert sys.get_int_max_str_digits() == 5000
        assert main(["check", str(tmp_path / "missing.json")]) == 2
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            main(["check", "--no-such-option"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_integer_literal_beyond_the_digit_limit_is_malformed(capsys, tmp_path):
    # converting a JSON integer literal costs time quadratic in its digits,
    # and no field can use more than Python's default limit of 4,300
    limit = sys.get_int_max_str_digits()
    for digits, message in ((4301, "longer than 4300 digits"), (4300, "empty spec")):
        path = tmp_path / "long.json"
        path.write_text('{"mode": "pair", "n": 1%s, "offspring": []}' % ("0" * (digits - 1)))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("command", ["check", "construct"])
@pytest.mark.parametrize("doc", [
    {"mode": "plain", "n": 0, "degree_dist": [], "params": []},
    {"mode": "plain", "n": 0, "offspring": []},
    {"mode": "pair", "n": 0, "offspring": []},
])
def test_spec_with_no_labels_is_malformed(capsys, tmp_path, command, doc):
    # every spec form needs n >= 1, the direct plain form included
    out = tmp_path / "m.json"
    argv = [command, write(tmp_path / "spec.json", doc)]
    assert main(argv + [str(out)] if command == "construct" else argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: n must be >= 1\n"
    assert not out.exists()


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
    tmpl = write(tmp_path / "tmpl.json", template_to_obj(template))
    params = write(tmp_path / "params.json", weights_to_obj(weights))
    code, _ = run(capsys, "parametrize", tmpl, params, str(tmp_path / "param.json"))
    assert code == 0

    spec = solve_offspring(template, weights)
    path = write(tmp_path / "spec.json", spec_to_obj(spec))
    code, _ = run(capsys, "construct", path, str(tmp_path / "measure.json"))
    assert code == 0
    assert (tmp_path / "measure.json").read_bytes() == (tmp_path / "param.json").read_bytes()

    flat = dict(spec.offspring)
    flat[(1, 1)] = {c: F(1, len(flat[(1, 1)])) for c in flat[(1, 1)]}
    path = write(tmp_path / "flat.json",
                 spec_to_obj(GWSpec(n=2, mode=PAIR, offspring=flat)))
    code, report = run(capsys, "check", path)
    assert code == 1 and report["failed"] == ["condition_ii"]


def test_exact_commands_never_load_numpy(tmp_path):
    # only `simulate` needs numpy: importing the package and running every
    # other command leaves it unloaded, in a fresh interpreter
    import gwrev

    spec = write(tmp_path / "spec.json", spec_to_obj(two_label_spec()))
    tmpl = write(tmp_path / "tmpl.json", template_to_obj(two_label_template()))
    params = write(tmp_path / "params.json",
                   weights_to_obj(two_label_weights(F(1, 2), F(1, 2))))
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
# construct builds the factor table once, in run_checks
# ---------------------------------------------------------------------------

def test_construct_solves_the_balance_potentials_once(capsys, tmp_path, monkeypatch):
    import sys

    import gwrev.checker

    original = gwrev.checker.factor_table
    calls = []

    def counting(spec):
        calls.append(spec)
        return original(spec)

    # every gwrev module that holds the table builder, the checker's own name included
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gwrev" and getattr(module, "factor_table", None) is original:
            monkeypatch.setattr(module, "factor_table", counting)

    template, weights = dense_grid(4)
    for spec in (two_label_spec(), solve_offspring(template, weights)):
        calls.clear()
        path = write(tmp_path / "spec.json", spec_to_obj(spec))
        code, _ = run(capsys, "construct", path, str(tmp_path / "measure.json"))
        assert code == 0
        assert len(calls) == 1


def test_plain_construct_solves_the_label_potentials_once(capsys, tmp_path, monkeypatch):
    import sys

    import gwrev.checker
    from gwrev.norelabel import expand_plain_spec

    original = gwrev.checker.label_potentials
    calls = []

    def counting(n, ratio):
        calls.append(n)
        return original(n, ratio)

    # every gwrev module that holds the solver, the checker's own name included
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gwrev" and getattr(module, "label_potentials", None) is original:
            monkeypatch.setattr(module, "label_potentials", counting)

    pspec = three_label_plain()
    for obj in (plain_spec_to_obj(pspec), spec_to_obj(expand_plain_spec(pspec))):
        calls.clear()
        path = write(tmp_path / "spec.json", obj)
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
                   weights_to_obj(two_label_weights(F(1, 2), F(1, 2))))
    tmpl = write(tmp_path / "tmpl.json", template_to_obj(two_label_template()))
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


# ---------------------------------------------------------------------------
# argument parsing and `python -m gwrev`
# ---------------------------------------------------------------------------

def parsed(parse, argv, capsys):
    """(exit code or namespace, stdout, stderr) of one parse."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [],
    ["unknown"],
    ["-h"],
    ["construct", "-h"],
    ["construct", "spec.json"],
    ["check", "spec.json", "extra.json"],
    ["simulate", "m.json", "--trials", "x", "--seed", "1"],
    ["--trials", "5", "simulate", "m.json", "--seed", "1"],
    ["cover", "g.txt", "m.json", "--max-vertices", "abc"],
    ["cover", "g.txt", "m.json", "--dot", "d.dot", "--max-vertices", "12"],
    ["simulate", "m.json", "--trials", "5", "--seed", "1", "--mtp", "1,2"],
    ["parametrize", "t.json", "w.json", "m.json"],
])
def test_one_pass_parse_matches_the_nested_parse(capsys, argv):
    # the subcommand's own parser gives what the top-level parser gives:
    # the namespace, or the exit code and every byte written
    direct = parsed(parse_args, argv, capsys)
    assert direct == parsed(build_parser().parse_args, argv, capsys)
    result, out, err = direct
    assert "Traceback" not in err
    if isinstance(result, int):
        assert parsed(main, argv, capsys) == direct
        assert result == (0 if "-h" in argv else 2)
        assert (out != "") == ("-h" in argv)


def test_python_m_gwrev_runs_the_cli(tmp_path):
    import gwrev

    (tmp_path / "tri.txt").write_text("0 1\n1 2\n2 0\n")
    src = str(Path(gwrev.__file__).resolve().parent.parent)

    def gwrev_m(*argv):
        return subprocess.run([sys.executable, "-m", "gwrev", *argv], capture_output=True,
                              text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})

    ok = gwrev_m("cover", "tri.txt", "m.json")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["written"] == "m.json"
    assert gwrev_m("verify", "m.json").returncode == 0
    bad = gwrev_m("verify", "missing.json")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ") and "Traceback" not in bad.stderr
