"""Fuzz the CLI boundary: mutated documents and argv never crash `main`.

Every run either passes (0), names a failed condition (1) or rejects the
input as malformed (2), and never raises.  argparse rejects a bad command
line with SystemExit(2), which is the same exit status.  Documents under
1 kB with large numbers in them also cost no more than a stated budget
that grows with what the call writes, each call run as its own process.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from gwrev.cli import main
from gwrev.constructor import construct_measure
from gwrev.core import GWSpec, PLAIN
from gwrev.norelabel import PlainSpec, expand_plain_spec

from .conftest import (
    break_condition_i,
    break_condition_ii,
    three_label_plain,
    two_label_spec,
    two_label_template,
    two_label_weights,
)
from .oracles import (
    measure_obj,
    plain_spec_to_obj,
    spec_to_obj,
    template_to_obj,
    weights_to_obj,
)

# passing documents and ones that fail a named condition
SPECS = [
    spec_to_obj(two_label_spec()),
    spec_to_obj(break_condition_i(two_label_spec())),
    spec_to_obj(break_condition_ii(two_label_spec())),
    plain_spec_to_obj(three_label_plain()),
    plain_spec_to_obj(three_label_plain(p31=F(1, 4), p32=F(3, 4))),
    spec_to_obj(expand_plain_spec(three_label_plain())),
]
MEASURE = measure_obj(construct_measure(two_label_spec()))
TEMPLATE = template_to_obj(two_label_template())
WEIGHTS = weights_to_obj(two_label_weights(F(1, 2), F(1, 2)))

JUNK = st.one_of(
    st.integers(-2, 5),
    st.none(),
    st.booleans(),
    st.sampled_from(["", "x", "pair", "plain", "1/2", "1/0", "-1", "2.5"]),
    st.floats(-3, 5, allow_nan=False),
    st.lists(st.integers(-1, 3), max_size=3),
    st.sampled_from([{}, {"c": [1, 1], "p": "1"}, {"label": 1, "p": "1"}]),
)
ARG_JUNK = st.sampled_from(
    ["", "x", "-1", "0", "3", "1,7", "2,1", "1,x", "1:(1,1)", "2:(0,3)", "9:(1)",
     "--trials", "--mtp", "missing.json"]
)


def retyped(data, value):
    """A JSON value of another type that int() or Fraction() would still
    read: a float, a bool or a numeric string in place of an integer, a
    bool or a float in place of a rational string."""
    if isinstance(value, int):
        return data.draw(st.sampled_from(
            [float(value), value + 0.5, value - 0.1, bool(value % 2), str(value)]))
    return data.draw(st.sampled_from([True, False, float(F(value))]))


def mutate(data, doc):
    """The document with up to three random nodes replaced, deleted,
    duplicated or retyped."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 3))):
        parent, key, node = None, None, doc
        for _ in range(data.draw(st.integers(0, 6))):
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
            parent, key = node, data.draw(st.sampled_from(keys))
            node = node[key]
        action = data.draw(st.sampled_from(["replace", "delete", "duplicate", "retype"]))
        junk = copy.deepcopy(data.draw(JUNK))  # sampled objects are shared
        if parent is None:
            doc = junk if action == "replace" else doc
        elif action == "replace":
            parent[key] = junk
        elif action == "retype":
            if _numeric(node):
                parent[key] = retyped(data, node)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(node))
    return doc


def _numeric(value) -> bool:
    """An integer or a rational string of a document."""
    if isinstance(value, int) and not isinstance(value, bool):
        return True
    if not isinstance(value, str):
        return False
    try:
        F(value)
    except ValueError:
        return False
    return True


def int_and_rational_leaves(node, path=()):
    """Paths of the integers and the rational strings of a document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from int_and_rational_leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for k, item in enumerate(node):
            yield from int_and_rational_leaves(item, path + (k,))
    elif _numeric(node):
        yield path


def command_line(data):
    """A command over documents freshly written to the working directory,
    then its argv mutated."""
    def doc(name, obj):
        with open(name, "w") as fh:
            json.dump(mutate(data, obj), fh)
        return name

    command = data.draw(st.sampled_from(["check", "construct", "parametrize", "verify",
                                         "simulate"]))
    if command in ("check", "construct"):
        argv = [command, doc("spec.json", data.draw(st.sampled_from(SPECS)))]
        if command == "construct":
            argv.append("out.json")
    elif command == "parametrize":
        argv = [command, doc("template.json", TEMPLATE), doc("weights.json", WEIGHTS),
                "out.json"]
    elif command == "verify":
        argv = [command, doc("measure.json", MEASURE)]
    else:
        argv = [command, doc("measure.json", MEASURE), "--trials",
                data.draw(st.sampled_from(["1", "3"])), "--seed", "7"]
        if data.draw(st.booleans()):
            argv += ["--mtp", "1,2"]
        else:
            argv += ["--from", "1:(1,1)", "--to", "2:(1,1)"]
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
        k = data.draw(st.integers(0, len(argv) - 1))
        if data.draw(st.booleans()):
            argv[k] = data.draw(ARG_JUNK)
        else:
            del argv[k]
    return argv


def exit_status(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_cli_never_crashes_on_mutated_input(data):
    # a junk token in place of a path makes a file of that name: run in a
    # fresh directory
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            argv = command_line(data)
            code, out = exit_status(argv)
        finally:
            os.chdir(here)
    assert code in (0, 1, 2), (argv, code)
    if code in (0, 1):
        json.loads(out)  # a report, never a partial one


# every document with the command that reads it; a measure's "verified"
# flag is the one leaf no reader looks at, and it is a bool, never retyped
DOCUMENTS = [("check", obj) for obj in SPECS] + [
    ("verify", MEASURE), ("parametrize", TEMPLATE), ("parametrize", WEIGHTS)]


def document_status(command, doc):
    """The exit status and stdout of `command` on the document, the other
    parametrize input being the valid one."""
    inputs = {"template.json": TEMPLATE, "weights.json": WEIGHTS}
    if command == "parametrize":
        name = "template.json" if "classes" in doc else "weights.json"
        argv = [command, "template.json", "weights.json", "out.json"]
    else:
        name, argv = "doc.json", [command, "doc.json"]
    inputs[name] = doc
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for file, obj in inputs.items():
                with open(file, "w") as fh:
                    json.dump(obj, fh)
            return exit_status(argv)
        finally:
            os.chdir(here)


def replaced(doc, path, value):
    """A deep copy of the document with the node at `path` replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_retyped_number_is_malformed(data):
    # one integer or rational string of a valid document replaced by a float,
    # a bool or a numeric string: exit 2, never a truncated reading
    command, doc = data.draw(st.sampled_from(DOCUMENTS))
    path = data.draw(st.sampled_from(list(int_and_rational_leaves(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    value = retyped(data, node[path[-1]])
    assert document_status(command, replaced(doc, path, value)) == (2, ""), (
        command, path, value)


def list_nodes(node, path=()):
    """Paths of the lists of a document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from list_nodes(node[key], path + (key,))
    elif isinstance(node, list):
        yield path
        for k, item in enumerate(node):
            yield from list_nodes(item, path + (k,))


# strings and objects that iterate like a list of labels, counts or
# rationals: digit strings read character by character, objects by their keys
NOT_A_LIST = st.sampled_from(["", "x", "1", "10", "100", "010", "001", "1/2",
                              {}, {"1": 0}, {"0": 0, "1": 0}, {"c": [1, 1], "p": "1"}])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_list_replaced_by_a_string_or_an_object_is_malformed(data):
    # one list of a valid document, however deep, replaced by a string or an
    # object: exit 2, never a reading of its characters or keys
    command, doc = data.draw(st.sampled_from(DOCUMENTS))
    path = data.draw(st.sampled_from(list(list_nodes(doc))))
    value = copy.deepcopy(data.draw(NOT_A_LIST))
    assert document_status(command, replaced(doc, path, value)) == (2, ""), (
        command, path, value)


# graph documents for `cover`: a few connected graphs, line by line
GRAPHS = [
    ["0 1", "1 2", "0 2"],
    ["# a star", "1 0", "1 2", "1 3"],
    ["0 2", "0 3", "0 4", "1 2", "1 3", "1 4"],
    [f"{k} {(k + 1) % 5}" for k in range(5)] + [f"{k} {k + 5}" for k in range(5)]
    + [f"{5 + k} {5 + (k + 2) % 5}" for k in range(5)],  # Petersen
]
EDGE_JUNK = st.one_of(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda e: f"{e[0]} {e[1]}"),
    st.tuples(st.integers(0, 11), st.sampled_from([40, 10**6, 2**40, 10**30])).map(
        lambda e: f"{e[0]} {e[1]}"),  # a huge id
    st.sampled_from(["", "# comment", "3 3", "0 1 # trailing", "1", "1 2 3", "a b", "-1 2",
                     "1.5 2", "0x1 2", "\t4   5  ", "7 8", "9 10"]),  # 7 8 and 9 10: apart
)
MAX_VERTICES = st.sampled_from([None, None, None, "-1", "0", "3", "10", "24", "1000000", "x"])


def graph_lines(data):
    """A graph document with up to five lines replaced, deleted, duplicated
    or inserted, or emptied altogether."""
    lines = list(data.draw(st.sampled_from(GRAPHS)))
    if data.draw(st.integers(0, 9)) == 0:
        return data.draw(st.sampled_from([[], ["# nothing but a comment"]]))
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 1, 2, 5]))):
        action = data.draw(st.sampled_from(["replace", "delete", "duplicate", "insert"]))
        k = data.draw(st.integers(0, len(lines)))
        if action == "insert" or k == len(lines):
            lines.insert(k, data.draw(EDGE_JUNK))
        elif action == "replace":
            lines[k] = data.draw(EDGE_JUNK)
        elif action == "delete":
            del lines[k]
        else:
            lines.insert(k, lines[k])
    return lines


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_cover_never_crashes_on_mutated_graphs(data):
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("g.txt", "w") as fh:
                fh.write("".join(line + "\n" for line in graph_lines(data)))
            argv = ["cover", "g.txt", "out.json"]
            max_vertices = data.draw(MAX_VERTICES)
            if max_vertices is not None:
                argv += ["--max-vertices", max_vertices]
            if data.draw(st.booleans()):
                argv += ["--dot", "pairs.dot"]
            code, out = exit_status(argv)
        finally:
            os.chdir(here)
    assert code in (0, 1, 2), (argv, code)
    if code in (0, 1):
        json.loads(out)


# ---------------------------------------------------------------------------
# Large numbers: a call's cost is bounded by its document and its answer
# ---------------------------------------------------------------------------

# integers a short document holds but a loop over their value cannot afford:
# degrees, counts, n, labels, vertex ids, seeds and --max-vertices
LARGE_INT = st.sampled_from([10**12, 2**63, 10**300, 2**32, 2**31 - 1, 10**6, 10**18,
                             2**64 + 1, 10**100, -1, 0, 1, 2, 3])
# denominators of up to 300 digits
DENOMINATOR = st.sampled_from([10**30 + 7, 2**521 - 1, 10**300 + 1, 12])
# trial counts: simulate's cost is linear in them by design, so the ones
# run stay small, and the ones past 2^64 are refused
TRIALS = st.sampled_from([-1, 0, 1, 3, 100, 2**64 + 1, 10**30])
# the documents the calls read besides MEASURE, as written by the tests' own
# writers
COST_DOCUMENTS = {
    "pair": spec_to_obj(two_label_spec()),
    "plain": plain_spec_to_obj(three_label_plain()),
    "one label": plain_spec_to_obj(PlainSpec(n=1, degree_dist={1: {2: F(1)}},
                                             params={1: (F(1),)})),
    "explicit": spec_to_obj(expand_plain_spec(PlainSpec(
        n=2, degree_dist={1: {1: F(1, 2), 2: F(1, 2)}, 2: {2: F(1)}},
        params={1: (F(1, 2), F(1, 2)), 2: (F(1, 3), F(2, 3))}))),
    # one vector of degree 2, which a multinomial law of two labels does not
    # put all its mass on
    "one vector": spec_to_obj(GWSpec(n=2, mode=PLAIN,
                                     offspring={1: {(1, 1): F(1)}, 2: {(1, 0): F(1)}})),
    "template": TEMPLATE,
    "weights": WEIGHTS,
}
# the most a document may hold, and the budget of a call: a fixed part for
# the interpreter, numpy and the work a document of that size allows, and
# one second for each million bytes the call writes
DOCUMENT_BYTES = 1024
BASE_SECONDS = 3.0
SECONDS_PER_BYTE = 1e-6


def split(data, m):
    """m positive rational strings that sum to 1, over one denominator of
    up to 300 digits."""
    den = data.draw(DENOMINATOR)
    cuts = data.draw(st.lists(st.integers(1, den - 1), min_size=m - 1, max_size=m - 1,
                              unique=True))
    bounds = [0] + sorted(cuts) + [den]
    return [f"{b - a}/{den}" for a, b in zip(bounds, bounds[1:])]


def weight_lists(node, path=()):
    """Paths of the lists of weights of a document: the lists of objects
    with a "p" and the rows of a parameter matrix."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from weight_lists(node[key], path + (key,))
    elif isinstance(node, list):
        if node and (all(isinstance(x, dict) and "p" in x for x in node)
                     or all(isinstance(x, str) for x in node)):
            yield path
        for k, item in enumerate(node):
            yield from weight_lists(item, path + (k,))


def at(doc, path):
    """The node of a document at `path`."""
    for key in path:
        doc = doc[key]
    return doc


def enlarged(data, doc):
    """The document with one to three changes, each kept only if the
    document stays within DOCUMENT_BYTES: an integer replaced by a large
    one (the first change: a count of a vector or a degree), a rational
    written with long digits, or a list of weights split anew over a long
    denominator (a row of parameters also into a single 1), each label's
    weights of a weights document apart."""
    doc = copy.deepcopy(doc)
    for k in range(data.draw(st.integers(1, 3))):
        before = copy.deepcopy(doc)
        enlarge(data, doc, "count" if k == 0 else
                data.draw(st.sampled_from(["integer", "rational", "split"])))
        if len(json.dumps(doc)) > DOCUMENT_BYTES:
            doc = before
    return doc


def enlarge(data, doc, action) -> None:
    """One change of `enlarged`, made in place."""
    lists = list(weight_lists(doc))
    if action == "split" and not lists:
        action = "integer"
    if action == "split":
        node = at(doc, data.draw(st.sampled_from(lists)))
        if isinstance(node[0], str) and data.draw(st.booleans()):  # a row: a single 1
            k = data.draw(st.integers(0, len(node) - 1))
            node[:] = ["1" if x == k else "0" for x in range(len(node))]
            return
        if isinstance(node[0], str):
            node[:] = split(data, len(node))
            return
        groups: dict = {}
        for x in node:
            groups.setdefault(x.get("label") if "c" in x else None, []).append(x)
        for group in groups.values():
            for x, p in zip(group, split(data, len(group))):
                x["p"] = p
        return
    leaves = [path for path in int_and_rational_leaves(doc)
              if isinstance(at(doc, path), int) == (action != "rational")
              and (action != "count" or "c" in path or "d" in path)]
    if not leaves:
        return
    path = data.draw(st.sampled_from(leaves))
    parent = at(doc, path[:-1])
    if action != "rational":
        parent[path[-1]] = data.draw(LARGE_INT)
    elif data.draw(st.booleans()):  # the same value, in long digits
        value = F(parent[path[-1]])
        scale = data.draw(st.sampled_from([10**100, 10**300, 2**1000]))
        parent[path[-1]] = f"{value.numerator * scale}/{value.denominator * scale}"
    else:
        parent[path[-1]] = f"{data.draw(st.integers(0, 10**300))}/{data.draw(DENOMINATOR)}"


def expansion_fits(doc) -> bool:
    """Whether the direct plain form's measure is one the test can hold: a
    degree d of a label whose row has k > 1 positive entries expands to
    C(d + k - 1, k - 1) vectors of about d * log2(b) bits each, b the row's
    common denominator, so such a label keeps its degrees to 8 or less."""
    def spread(row):
        try:
            return sum(F(p) != 0 for p in row)
        except (ValueError, TypeError, ZeroDivisionError):
            return 0  # refused as malformed before any expansion
    rows = doc.get("params", [])
    for entry in doc.get("degree_dist", []):
        t = entry.get("type")
        if type(t) is int and 1 <= t <= len(rows) and spread(rows[t - 1]) > 1:
            if any(type(e.get("d")) is int and e["d"] > 8 for e in entry["dist"]):
                return False
    return True


def cost_case(data):
    """A call and the documents it reads: (argv, {file name: text})."""
    kind = data.draw(st.sampled_from(["pair", "plain", "one label", "explicit", "one vector",
                                      "measure", "simulate", "parametrize", "cover"]))
    if kind == "cover":
        ids = [data.draw(st.one_of(st.integers(0, 5), LARGE_INT)) for _ in range(4)]
        edges = [(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[0]), (ids[2], ids[3])]
        argv = ["cover", "g.txt", "out.json",
                "--max-vertices", str(data.draw(LARGE_INT))]
        if data.draw(st.booleans()):
            argv += ["--dot", "pairs.dot"]
        return argv, {"g.txt": "".join(f"{a} {b}\n" for a, b in edges)}
    if kind == "parametrize":
        files = {name + ".json": json.dumps(enlarged(data, COST_DOCUMENTS[name])
                                            if data.draw(st.booleans())
                                            else COST_DOCUMENTS[name])
                 for name in ("template", "weights")}
        return ["parametrize", "template.json", "weights.json", "out.json"], files
    if kind in ("measure", "simulate"):
        text = json.dumps(enlarged(data, MEASURE))
        if kind == "measure":
            return ["verify", "measure.json"], {"measure.json": text}
        count = data.draw(st.sampled_from(["1", "3", str(2**31 - 1), str(10**18)]))
        argv = ["simulate", "measure.json", "--trials", str(data.draw(TRIALS)),
                "--seed", str(data.draw(LARGE_INT))]
        if data.draw(st.booleans()):
            argv += ["--mtp", data.draw(st.sampled_from(["1,2", "2,2", f"1,{10**18}"]))]
        else:
            argv += ["--from", f"1:(1,{count})", "--to", "2:(1,1)"]
        return argv, {"measure.json": text}
    doc = enlarged(data, COST_DOCUMENTS[kind])
    command = data.draw(st.sampled_from(["check", "construct"]))
    if command == "construct" and not expansion_fits(doc):
        command = "check"
    argv = [command, "spec.json"] + (["out.json"] if command == "construct" else [])
    return argv, {"spec.json": json.dumps(doc)}


# `python -m gwrev` with 1 GiB of address space, so that a call that runs
# away raises MemoryError in its own process
BOUNDED_GWREV = ("import resource, runpy; "
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                 "runpy.run_module('gwrev', run_name='__main__')")


def run_bounded(argv, files, timeout):
    """Run BOUNDED_GWREV on the files in a fresh directory: (exit code,
    stderr, seconds, bytes written to stdout, stderr and new files)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", BOUNDED_GWREV, *argv], cwd=tmp, env=env,
                              capture_output=True, timeout=timeout)
        seconds = time.perf_counter() - start
        written = sum(os.path.getsize(os.path.join(tmp, name))
                      for name in os.listdir(tmp) if name not in files)
    return (done.returncode, done.stderr.decode(), seconds,
            len(done.stdout) + len(done.stderr) + written)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_large_numbers_cost_what_the_document_and_the_answer_cost(data):
    # every call exits 0, 1 or 2 with no traceback, within BASE_SECONDS and
    # SECONDS_PER_BYTE of what it writes; a call past BASE_SECONDS + 30 s is
    # stopped and fails
    argv, files = cost_case(data)
    assert all(len(text) <= DOCUMENT_BYTES for text in files.values()), argv
    code, err, seconds, size = run_bounded(argv, files, timeout=BASE_SECONDS + 30)
    context = (argv, files, code, err[-500:], seconds, size)
    assert code in (0, 1, 2) and "Traceback" not in err, context
    assert seconds <= BASE_SECONDS + SECONDS_PER_BYTE * size, context
