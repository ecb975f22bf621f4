"""JSON interchange formats.

All rationals travel as strings ("3/8", "1"); all emitted documents are
canonical: keys sorted, entries in sorted order, reduced fractions, two-space
indent, trailing newline.  Equal objects therefore serialize to byte-identical
files.

`canonical_json`, which writes the reports on stdout, is
`json.dumps(obj, sort_keys=True, indent=2)` plus a newline.  A measure
document, the largest and the most often written, has its own writer:
`measure_json` forms the same text in one pass from the `RootMeasure`,
with no object tree in between, since the schema fixes every key order and
indent.  The package writes no other document; the spec, template and
weights writers of the tests live in `tests/oracles.py`.

Reading is strict about types: labels, counts, `n`, `d`, `parent`, `child`
and `type` must be JSON integers, a probability is a rational string or a
JSON integer, and a list is a JSON list.  A float, a bool or a numeric
string in their place is a malformed document, never truncated to an
integer, and so is a string or an object in place of a list, never read by
its characters or its keys.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Union

from .checker import CheckReport
from .core import Dist, GWSpec, PAIR, PLAIN, RootMeasure, SpecError, SupportClass
from .norelabel import PlainCheckReport, PlainSpec
from .parametrizer import SupportTemplate, Weights


def parse_fraction(text) -> Fraction:
    """A JSON integer, or a string "a" or "a/b" (an optional minus sign on a,
    surrounding whitespace allowed), as a reduced Fraction.  The text is
    split at its first "/"; a and b must be non-empty runs of decimal
    digits by `str.isdecimal`, the Unicode class Nd, so a sign on b, a
    second "/", a point or an exponent is refused.  Any other type, a bool
    or a float included, raises TypeError: the document has the wrong
    shape."""
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise TypeError(f"not a rational literal: {text!r}")
    num, slash, den = text.strip().partition("/")
    if not (num[1:] if num[:1] == "-" else num).isdecimal() or (
            slash and not den.isdecimal()):
        raise SpecError(f"not a rational literal: {text!r}")
    try:
        if len(text) <= _DIGITS_CUTOFF:
            return Fraction(int(num), int(den or 1))
        return Fraction(_decimal(num), _decimal(den or "1"))
    except ZeroDivisionError:
        raise SpecError(f"zero denominator in {text!r}") from None


# the longest run of digits converted with one int()
_DIGITS_CUTOFF = 2048


def _decimal(text: str) -> int:
    """int(text) for a run of decimal digits with an optional minus sign,
    refused by the int <-> str limit as int() refuses it, in time
    sub-quadratic in its length: `int()` is quadratic, so a longer run is
    split in half, each half converted the same way, and the two joined as
    hi * 10^k + lo, each power of ten formed once per call."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if len(text) <= _DIGITS_CUTOFF or 0 < limit < len(text):
        return int(text)
    if text[0] == "-":
        return -_decimal(text[1:])
    powers: Dict[int, int] = {}

    def convert(run: str) -> int:
        if len(run) <= _DIGITS_CUTOFF:
            return int(run)
        k = len(run) // 2
        if k not in powers:
            powers[k] = 10 ** k
        return convert(run[:-k]) * powers[k] + convert(run[-k:])

    return convert(text)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _int(value) -> int:
    """A JSON integer as it is; TypeError for anything else, a bool, a float
    or a numeric string included."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _list(value) -> list:
    """A JSON list as it is; TypeError for anything else, a string or an
    object included, which would be read by its characters or its keys."""
    if type(value) is not list:
        raise TypeError(f"{value!r} is not a list")
    return value


def _ints(values) -> tuple:
    """A list of JSON integers as a tuple, each checked by `_int`."""
    return tuple(map(_int, _list(values)))


def _unique(pairs, what: str) -> dict:
    """dict(pairs), except that a repeated key raises SpecError instead of
    letting the last entry win."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SpecError(f"duplicate {what} {key}")
        out[key] = value
    return out


def _obj_to_dist(entries) -> Dist:
    if not isinstance(entries, list) or not entries:
        raise SpecError("distribution must be a non-empty list")
    dist: Dist = {}
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(entry.get("c"), list):
            raise SpecError(f"distribution entry {entry!r} needs a list \"c\"")
        c = tuple(entry["c"])
        for x in c:
            if type(x) is not int:
                raise TypeError(f"{x!r} is not an integer")
        if c in dist:
            raise SpecError(f"duplicate vector {c} in distribution")
        dist[c] = parse_fraction(entry["p"])
    return dist


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

# what reading a document of the wrong shape raises: a number where a list
# or an object belongs, a missing key, a value that is not an integer
_SHAPE_ERRORS = (TypeError, KeyError, ValueError)


def obj_to_spec(obj) -> Union[GWSpec, PlainSpec]:
    """Decode a spec document.

    Pair mode and explicit plain mode yield a GWSpec; the direct plain form
    (degree distributions plus a parameter matrix) yields a PlainSpec.  A
    document of the wrong shape raises SpecError.
    """
    try:
        return _obj_to_spec(obj)
    except _SHAPE_ERRORS as err:
        raise SpecError(f"bad spec document: {err}") from None


def _obj_to_spec(obj) -> Union[GWSpec, PlainSpec]:
    if not isinstance(obj, dict):
        raise SpecError("spec document must be a JSON object")
    try:
        n = _int(obj["n"])
        mode = obj["mode"]
    except KeyError as err:
        raise SpecError(f"spec document lacks key {err}") from None
    if mode not in (PAIR, PLAIN):
        raise SpecError(f"unknown mode {mode!r}")

    if mode == PLAIN and "degree_dist" in obj:
        degree_dist: Dict[int, Dict[int, Fraction]] = _unique((
            (_int(entry["type"]),
             _unique(((_int(e["d"]), parse_fraction(e["p"])) for e in _list(entry["dist"])),
                     f"degree in the law of type {entry['type']}:"))
            for entry in _list(obj["degree_dist"])
        ), "degree_dist entry for type")
        params_rows = _list(obj["params"])
        if len(params_rows) != n:
            raise SpecError("params matrix must have n rows")
        params = {
            i + 1: tuple(parse_fraction(p) for p in _list(row))
            for i, row in enumerate(params_rows)
        }
        return PlainSpec(n=n, degree_dist=degree_dist, params=params)

    def key(entry):
        if mode == PAIR:
            return _int(entry["parent"]), _int(entry["child"])
        return _int(entry["type"])

    offspring = _unique((
        (key(entry), _obj_to_dist(entry["dist"]))
        for entry in _list(obj.get("offspring", []))
    ), "offspring entry for")
    return GWSpec(n=n, mode=mode, offspring=offspring)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def _pad(depth: int) -> str:
    return "\n" + " " * depth


def _law_pieces(depth: int) -> tuple:
    """(open, sep, mid, between, close): the fixed text of a law whose items
    stand at indent `depth`, as json.dumps(sort_keys=True, indent=2) writes
    the list of {"c", "p"} objects.  Entry k is sep.join(c_k) + mid + p_k,
    and the law is open + between.join(entries) + close."""
    item, key, inner = _pad(depth), _pad(depth + 2), _pad(depth + 4)
    head = "{" + key + '"c": [' + inner
    tail = '"' + item + "}"
    return ("[" + item + head, "," + inner, key + "]," + key + '"p": "',
            tail + "," + item + head, tail + _pad(depth - 2) + "]")


# a law's pieces at its two indents: neighbor laws and descendant laws
_NEIGHBOR_LAW, _DESCENDANT_LAW = _law_pieces(8), _law_pieces(10)


def _law_json(dist: Dist, pieces: tuple) -> str:
    """A law written from the `_law_pieces` of its indent."""
    head, sep, mid, between, close = pieces
    return head + between.join([
        sep.join(map(str, c)) + mid + str(p) for c, p in sorted(dist.items())
    ]) + close


def measure_json(measure: RootMeasure) -> str:
    """The canonical text of a verified measure document, written in one
    pass.

    The schema fixes every key order and indent, and a RootMeasure has no
    empty list (n >= 1, every law non-empty), so the text is that of
    `canonical_json` on the document's object tree without the tree."""
    spec = measure.descendants
    if spec.mode == PAIR:
        laws = [
            '{\n        "child": ' + str(child) + ',\n        "dist": '
            + _law_json(spec.offspring[(parent, child)], _DESCENDANT_LAW)
            + ',\n        "parent": ' + str(parent) + "\n      }"
            for parent, child in sorted(spec.offspring)
        ]
    else:
        laws = [
            '{\n        "dist": ' + _law_json(spec.offspring[i], _DESCENDANT_LAW)
            + ',\n        "type": ' + str(i) + "\n      }"
            for i in sorted(spec.offspring)
        ]
    neighbors = [
        '{\n      "dist": ' + _law_json(measure.neighbor_dist[i], _NEIGHBOR_LAW)
        + ',\n      "label": ' + str(i) + "\n    }"
        for i in sorted(measure.neighbor_dist)
    ]
    root = [
        '{\n      "label": ' + str(i) + ',\n      "p": "' + str(p) + '"\n    }'
        for i, p in sorted(measure.root_dist.items())
    ]
    return (
        '{\n  "descendants": {\n    "mode": ' + _quote(spec.mode)
        + ',\n    "n": ' + str(spec.n)
        + ',\n    "offspring": [\n      ' + ",\n      ".join(laws)
        + '\n    ]\n  },\n  "neighbors": [\n    ' + ",\n    ".join(neighbors)
        + '\n  ],\n  "root": [\n    ' + ",\n    ".join(root)
        + '\n  ],\n  "verified": true\n}\n'
    )


def obj_to_measure(obj) -> RootMeasure:
    if not isinstance(obj, dict):
        raise SpecError("measure document must be a JSON object")
    try:
        descendants = obj_to_spec(obj["descendants"])
    except KeyError:
        raise SpecError("measure document lacks descendants") from None
    if isinstance(descendants, PlainSpec):
        raise SpecError("measure descendants must be explicit offspring laws")
    try:
        root_dist = _unique((
            (_int(e["label"]), parse_fraction(e["p"])) for e in _list(obj.get("root", []))
        ), "root entry for label")
        neighbor_dist = _unique((
            (_int(e["label"]), _obj_to_dist(e["dist"]))
            for e in _list(obj.get("neighbors", []))
        ), "neighbors entry for label")
    except _SHAPE_ERRORS as err:
        raise SpecError(f"bad measure document: {err}") from None
    return RootMeasure(n=descendants.n, root_dist=root_dist, neighbor_dist=neighbor_dist,
                       descendants=descendants)


# ---------------------------------------------------------------------------
# Templates and weights
# ---------------------------------------------------------------------------

def obj_to_template(obj) -> SupportTemplate:
    try:
        n = _int(obj["n"])
        classes = tuple(
            SupportClass(_int(e["label"]), _ints(e["c"]))
            for e in _list(obj["classes"])
        )
    except _SHAPE_ERRORS as err:
        raise SpecError(f"bad template document: {err}") from None
    return SupportTemplate(n=n, classes=classes)


def obj_to_weights(obj) -> Weights:
    try:
        return _unique((
            (SupportClass(_int(e["label"]), _ints(e["c"])),
             parse_fraction(e["p"]))
            for e in _list(obj["weights"])
        ), "weight for class")
    except _SHAPE_ERRORS as err:
        raise SpecError(f"bad weights document: {err}") from None


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------

def _class_obj(cls: SupportClass) -> dict:
    return {"label": cls.label, "c": list(cls.vector)}


def report_to_obj(report: CheckReport) -> dict:
    out = {
        "mode": PAIR,
        "ok": report.ok(),
        "failed": report.failed_names(),
        "labels_realized": report.labels_realized,
        "strongly_connected": report.strongly_connected,
        "condition_i": "pass" if report.condition_i else "fail",
        "condition_ii": (
            "skipped" if report.condition_ii is None
            else "pass" if report.condition_ii else "fail"
        ),
        "connected_support": (
            "skipped" if report.connected_support is None else report.connected_support
        ),
    }
    if report.missing_label is not None:
        out["missing_label"] = report.missing_label
    if report.unreachable_pair is not None:
        out["unreachable_pair"] = [list(k) for k in report.unreachable_pair]
    if report.condition_i_counterexample is not None:
        i, j, k, c = report.condition_i_counterexample
        out["condition_i_counterexample"] = {"i": i, "j": j, "k": k, "c": list(c)}
    if report.violating_cycle is not None:
        out["violating_cycle"] = [_class_obj(cls) for cls in report.violating_cycle]
    return out


def violations_to_obj(violations) -> list:
    """The detailed-balance violations of a `verify` report."""
    return [
        {"first": _class_obj(u), "second": _class_obj(v), "lhs": str(lhs), "rhs": str(rhs)}
        for (u, v, lhs, rhs) in violations
    ]


def plain_report_to_obj(report: PlainCheckReport) -> dict:
    out = {
        "mode": PLAIN,
        "ok": report.ok(),
        "failed": report.failed_names(),
        "multinomial": "pass" if report.multinomial else report.multinomial_error,
        "cycles": (
            "skipped" if report.cycles is None
            else "pass" if report.cycles else "fail"
        ),
        "connected": "skipped" if report.connected is None else report.connected,
    }
    if report.multinomial_witness is not None:
        out["witness"] = [
            list(x) if isinstance(x, tuple) else x for x in report.multinomial_witness
        ]
    if report.violating_cycle is not None:
        out["violating_cycle"] = list(report.violating_cycle)
    return out


# ---------------------------------------------------------------------------
# Class selectors ("label:(c1,...,cn)") and files
# ---------------------------------------------------------------------------

_SELECTOR_RE = re.compile(r"^(\d+):\((\d+(?:,\d+)*)\)$")


def parse_class_selector(text: str) -> SupportClass:
    m = _SELECTOR_RE.match(text.strip())
    if not m:
        raise SpecError(f"bad class selector {text!r}; expected label:(c1,...,cn)")
    return SupportClass(
        int(m.group(1)), tuple(int(x) for x in m.group(2).split(","))
    )


@contextmanager
def default_int_limit():
    """Python's default int <-> str limit of 4,300 digits, where Python has
    one, for the block, and the caller's limit restored after it: no
    integer an input can use is longer, and converting a longer one costs
    time quadratic in its digits, so `int()` refuses it before converting
    it, with a ValueError."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def load_json(path):
    """The JSON document at `path`, parsed under `default_int_limit`: a
    longer integer literal is malformed, as is a document nested too deeply
    to parse.  Rational strings keep any length."""
    with open(path) as fh:
        text = fh.read()
    try:
        with default_int_limit():
            return json.loads(text)
    except RecursionError:
        raise SpecError(f"{path}: JSON nested too deeply to parse") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise SpecError(f"{path}: JSON integer literal longer than 4300 digits") from None


def save_json(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def load_spec(path) -> Union[GWSpec, PlainSpec]:
    return obj_to_spec(load_json(path))


def load_measure(path) -> RootMeasure:
    return obj_to_measure(load_json(path))


def save_measure(path, measure: RootMeasure) -> None:
    save_json(path, measure_json(measure))
