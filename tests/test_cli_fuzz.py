"""Fuzz the CLI boundary: mutated documents and argv never crash `main`.

Every run either passes (0), names a failed condition (1) or rejects the
input as malformed (2), and never raises.  argparse rejects a bad command
line with SystemExit(2), which is the same exit status.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from gwrev.cli import main
from gwrev.constructor import construct_measure
from gwrev.norelabel import expand_plain_spec

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
