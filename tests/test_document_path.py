"""Differential tests of the document path: the canonical writer's
independence of key order, the one-pass measure writer against json.dumps
of the measure's object tree, the rational parser against Fraction's own,
and the integer sum checks of `validate_dist` and `check_weights` against
the Fraction sum (oracles in `tests/oracles.py`), on fuzzed inputs, on
every document the random corpora serialize and on every call of the
three benchmark workloads."""

import itertools
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwrev import core
from gwrev import fileformats as ff
from gwrev.cli import main
from gwrev.core import GWSpec, InvalidDistributionError, PAIR, RootMeasure, SpecError
from gwrev.norelabel import construct_plain_measure
from gwrev.parametrizer import assemble_measure

from .conftest import dense_grid, three_label_plain
from .oracles import (
    corpus_measures,
    fraction_parse,
    json_canonical,
    measure_obj,
    random_corpus,
    summing_validate_dist,
)

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# ---------------------------------------------------------------------------
# The writer
# ---------------------------------------------------------------------------

TRICKY_STRINGS = ["", "\x00", "\x1f", "\x7f", '"', "\\", "/", " ", "é", "\ud800",
                  "\udfff", "\U0001f600", "a\nb\tc", "1/2"]
STRINGS = st.one_of(
    st.text(max_size=6),
    st.text(st.characters(exclude_categories=()), max_size=4),  # lone surrogates too
    st.sampled_from(TRICKY_STRINGS),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10 ** 60), 10 ** 60),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    STRINGS,
)
TREES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(STRINGS, kids, max_size=4),
    max_leaves=25,
)


def reversed_keys(tree):
    """The tree with every dict's keys inserted in reverse order."""
    if isinstance(tree, dict):
        return {key: reversed_keys(tree[key]) for key in reversed(list(tree))}
    if isinstance(tree, list):
        return [reversed_keys(x) for x in tree]
    return tree


def assert_canonical(tree):
    # the text does not depend on the order the keys were inserted in, and
    # it reads back as the tree (compared as text: NaN is unequal to itself)
    text = ff.canonical_json(tree)
    assert ff.canonical_json(reversed_keys(tree)) == text
    assert ff.canonical_json(json.loads(text)) == text


@FUZZ
@given(TREES)
def test_writer_is_canonical_on_any_tree(tree):
    assert_canonical(tree)


def test_writer_is_canonical_on_nested_empty_containers():
    for tree in ([], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[], {}], {"b": [{}]}],
                 {"": [[]], "\x00": {"x": {}}}):
        assert_canonical(tree)


@pytest.mark.parametrize("value", [{"a": 1, 2: "b"}, F(1, 2), {1, 2}, b"x", object()])
def test_writer_rejects_what_is_not_a_json_tree(value):
    with pytest.raises(TypeError):
        ff.canonical_json(value)


# ---------------------------------------------------------------------------
# The parser
# ---------------------------------------------------------------------------

LITERALS = st.one_of(
    st.text(st.sampled_from("0123456789/-+ \t\n._abe٣𝟑"), max_size=8),
    st.from_regex(r"\s*[-+]?\d{1,4}(/[-+]?\d{1,4})?\s*", fullmatch=True),
    st.sampled_from(["+3", "3/-4", "1/0", "0/0", "-0", "-0/7", "007/010", "6/8", " 3/4 ",
                     "3 /4", "3/ 4", "1.5", "1e3", "a/b", "", " ", "١٢/٣", "1_000",
                     "3\n", "\n-2/5\n", "--1", "1//2", "1/2/3", "9" * 5000]),
)


def parsed(parse, text):
    try:
        value = parse(text)
    except (SpecError, ValueError) as err:
        return type(err), str(err)
    return type(value), value


@FUZZ
@given(LITERALS)
def test_parser_matches_fraction_on_any_string(text):
    assert parsed(ff.parse_fraction, text) == parsed(fraction_parse, text)


@pytest.mark.parametrize("value", [0, 1, -3, 10 ** 40])
def test_parser_takes_json_integers(value):
    assert ff.parse_fraction(value) == fraction_parse(value) == F(value)


@pytest.mark.parametrize("value", [True, False, 0.5, 1.0, None, [1], {"p": "1"}, F(1, 2)])
def test_parser_rejects_other_types(value):
    with pytest.raises(TypeError):
        ff.parse_fraction(value)


# ---------------------------------------------------------------------------
# The sum check
# ---------------------------------------------------------------------------

FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=40)


@st.composite
def distributions(draw):
    """Mostly laws that sum to 1, some with one entry bent out of shape."""
    n = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=0, max_size=6,
                            unique=True))
    raw = [draw(st.integers(1, 30)) for _ in vectors]
    dist = {c: F(r, sum(raw)) for c, r in zip(vectors, raw)}
    if vectors and draw(st.booleans()):
        c = draw(st.sampled_from(vectors))
        dist[c] = draw(st.one_of(FRACTIONS, st.integers(-1, 2), st.floats(0, 1),
                                 st.sampled_from([F(0), F(-1, 3), F(4, 3)])))
    if vectors and draw(st.integers(0, 5)) == 0:
        c = draw(st.sampled_from(vectors))
        dist[draw(st.sampled_from([c + (0,), c[:-1], (-1,) + c[1:]]))] = dist.pop(c)
    return dist, n, draw(st.sampled_from([0, 0, 1, 2]))


def validated(validate, dist, n, min_total):
    try:
        validate(dist, n, min_total=min_total)
    except InvalidDistributionError as err:
        return str(err)
    return None


@FUZZ
@given(distributions())
def test_validate_dist_matches_the_fraction_sum(case):
    dist, n, min_total = case
    assert validated(core.validate_dist, dist, n, min_total) == validated(
        summing_validate_dist, dist, n, min_total)


def checked_weights(values, zero):
    """None when `check_weights` accepts the values, keyed 1, 2, ..., else
    its message."""
    try:
        core.check_weights(dict(enumerate(values, start=1)), "w", zero=zero)
    except SpecError as err:
        return str(err)
    return None


@FUZZ
@given(st.lists(FRACTIONS, min_size=1, max_size=8), st.booleans())
def test_check_weights_is_the_fraction_identity(values, zero):
    # the range of each weight, then the Fraction sum
    normalized = [v / sum(values) for v in values] if sum(values) else values
    interval = "[0, 1]" if zero else "(0, 1]"
    for ws in (values, normalized):
        out = next(((k, w) for k, w in enumerate(ws, start=1)
                    if not (0 <= w if zero else 0 < w) or w > 1), None)
        if out is not None:
            expected = f"w: the weight of {out[0]} is {out[1]}, not a Fraction in {interval}"
        elif sum(ws, F(0)) != 1:
            expected = f"w sum to {sum(ws, F(0))}, expected 1"
        else:
            expected = None
        assert checked_weights(ws, zero) == expected


# one fault of a law entry (c, p) each, by what it breaks
FAULTS = {
    "length": lambda c, p: (c + (0,), p),
    "negative count": lambda c, p: ((-1,) + c[1:], p),
    "total below min_total": lambda c, p: ((0,) * len(c), p),
    "not a Fraction": lambda c, p: (c, float(p)),
    "outside (0, 1]": lambda c, p: (c, p + 1),
    "sum": lambda c, p: (c, p / 2),
}


@pytest.mark.parametrize("first, second", list(itertools.permutations(FAULTS, 2)))
def test_validate_dist_reports_faults_in_the_order_of_the_fraction_sum(first, second):
    entries = [FAULTS[first]((1, 0), F(1, 3)), FAULTS[second]((0, 2), F(2, 3))]
    dist = dict(entries)
    assert len(dist) == 2
    raised = []
    for validate in (core.validate_dist, summing_validate_dist):
        with pytest.raises(InvalidDistributionError) as err:
            validate(dist, 2, min_total=1)
        raised.append((err.type, str(err.value)))
    assert raised[0] == raised[1]
    # the first entry's fault, unless it is the bad sum, which shows only
    # once every entry has passed
    vector, _ = entries[1] if first == "sum" else entries[0]
    assert str(vector) in raised[0][1]


# ---------------------------------------------------------------------------
# Every document of the random corpora
# ---------------------------------------------------------------------------

def corpus_documents():
    for doc in random_corpus():
        yield measure_obj(doc) if isinstance(doc, RootMeasure) else doc


def rationals(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "p" and isinstance(value, str):
                yield value
            else:
                yield from rationals(value)
    elif isinstance(node, list):
        for item in node:
            yield from rationals(item)


def test_corpus_documents_are_written_and_read_as_before():
    count = 0
    for doc in corpus_documents():
        assert json.loads(ff.canonical_json(doc)) == doc
        for literal in rationals(doc):
            assert parsed(ff.parse_fraction, literal) == parsed(fraction_parse, literal)
        count += 1
    assert count > 700


# ---------------------------------------------------------------------------
# The measure writer
# ---------------------------------------------------------------------------

def one_label_measure():
    """n = 1: one root weight, one neighbor law, one offspring law."""
    spec = GWSpec(n=1, mode=PAIR, offspring={(1, 1): {(0,): F(1, 3), (2,): F(2, 3)}})
    return RootMeasure(n=1, root_dist={1: F(1)},
                       neighbor_dist={1: {(1,): F(1, 5), (3,): F(4, 5)}}, descendants=spec)


def test_measure_writer_matches_the_oracle_on_the_corpora():
    measures = corpus_measures()
    assert {m.descendants.mode for m in measures} == {"pair", "plain"}
    for measure in measures:
        assert ff.measure_json(measure) == json_canonical(measure_obj(measure))
    assert len(measures) > 150


def test_measure_writer_matches_the_oracle_on_small_measures():
    for measure in (one_label_measure(), construct_plain_measure(three_label_plain())):
        assert ff.measure_json(measure) == json_canonical(measure_obj(measure))


@pytest.mark.parametrize("k", [4, 8, 10])
def test_measure_writer_matches_the_oracle_on_64_bit_grids(k):
    measure = assemble_measure(*dense_grid(k, seed=1, bits=64))
    assert max(p.denominator for p in measure.root_dist.values()).bit_length() > 64
    assert ff.measure_json(measure) == json_canonical(measure_obj(measure))


def test_save_measure_writes_the_oracle_text(tmp_path):
    measure = one_label_measure()
    ff.save_measure(tmp_path / "m.json", measure)
    assert (tmp_path / "m.json").read_text() == json_canonical(measure_obj(measure))


# ---------------------------------------------------------------------------
# Every call of the three benchmark workloads
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["exact_dense", "mixed_corpus", "monte_carlo"])
def test_benchmark_calls_match_the_old_document_path(name, tmp_path, monkeypatch, capsys):
    # every written measure, parsed rational and validated law of a whole
    # pass is compared with the old path on the spot, and every measure file
    # with the text its call was checked for; emitted reports are counted
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.build(name, 5, tmp_path)
    monkeypatch.chdir(tmp_path)
    seen = {"documents": 0, "literals": 0, "laws": 0}
    if name != "monte_carlo":
        seen["measures"] = 0
    write, write_measure = ff.canonical_json, ff.measure_json
    parse, validate = ff.parse_fraction, core.validate_dist
    written = []

    def checked_write(obj):
        seen["documents"] += 1
        return write(obj)

    def checked_write_measure(measure):
        seen["measures"] += 1
        text = write_measure(measure)
        assert text == json_canonical(measure_obj(measure))
        written.append(text)
        return text

    def checked_parse(text):
        seen["literals"] += 1
        assert parsed(parse, text) == parsed(fraction_parse, text)
        return parse(text)

    def checked_validate(dist, n, *, min_total=0):
        seen["laws"] += 1
        expected = validated(summing_validate_dist, dist, n, min_total)
        assert validated(validate, dist, n, min_total) == expected
        validate(dist, n, min_total=min_total)

    monkeypatch.setattr(ff, "canonical_json", checked_write)
    monkeypatch.setattr(ff, "measure_json", checked_write_measure)
    monkeypatch.setattr(ff, "parse_fraction", checked_parse)
    monkeypatch.setattr(core, "validate_dist", checked_validate)
    for op in wl.ops:
        assert main(op.argv) == op.expect, op.argv
        if written:
            out = next(path for path in op.outputs if path.endswith(".json"))
            assert (tmp_path / out).read_bytes() == written.pop().encode(), op.argv
        assert not written, op.argv
    capsys.readouterr()
    assert min(seen.values()) > 0, seen
