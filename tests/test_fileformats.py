import json
import random
import sys
import time
from fractions import Fraction as F

import pytest

from gwrev import fileformats as ff
from gwrev.cli import main
from gwrev.constructor import construct_measure
from gwrev.core import SpecError, SupportClass
from gwrev.norelabel import PlainSpec
from gwrev.parametrizer import assemble_measure

from .oracles import (
    json_canonical,
    measure_obj,
    plain_spec_to_obj,
    random_admissible_instance,
    spec_to_obj,
    template_to_obj,
    weights_to_obj,
)


def test_fraction_round_trip():
    for text, value in [("3/8", F(3, 8)), ("1", F(1)), ("0", F(0))]:
        assert ff.parse_fraction(text) == value
        assert str(value) == text  # the writers' form
    assert ff.parse_fraction("6/8") == F(3, 4)  # lenient in
    assert str(F(6, 8)) == "3/4"  # strict out
    with pytest.raises(SpecError):
        ff.parse_fraction("0.5")
    with pytest.raises(SpecError):
        ff.parse_fraction("a/b")


def test_long_digit_runs_convert_as_int_does():
    # above the cutoff a run is converted by halves; the value is int()'s, at
    # the split edges and at random lengths, in any decimal script and signed
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rng = random.Random(17)
        # ASCII, Arabic-Indic and Devanagari digits, mixed within a run
        alphabet = "0123456789" + "".join(map(chr, range(0x660, 0x66a))) + "".join(
            map(chr, range(0x966, 0x970)))
        cut = ff._DIGITS_CUTOFF
        lengths = [cut - 1, cut, cut + 1, 2 * cut - 1, 2 * cut, 2 * cut + 1]
        lengths += [rng.randint(1, 20_000) for _ in range(60)]
        for length in lengths:
            digits = "".join(rng.choices(alphabet, k=length))
            assert ff._decimal(digits) == int(digits)
            den = rng.choice("123456789") + digits[1:]
            assert ff.parse_fraction(f"-{digits}/{den}") == F(-int(digits), int(den))
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_rational_string_reads_in_subquadratic_time(tmp_path, capsys):
    # int() takes about a second on the two 300,001-digit sides
    side = "1" + "0" * 300_000
    law = {"parent": 1, "child": 1, "dist": [{"c": [1], "p": f"{side}/{side}"}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"mode": "pair", "n": 1, "offspring": [law]}))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 0
    elapsed = time.perf_counter() - start
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert elapsed < 0.5, f"check took {elapsed:.2f} s"


def test_spec_round_trip(pair_spec):
    obj = spec_to_obj(pair_spec)
    again = ff.obj_to_spec(json.loads(ff.canonical_json(obj)))
    assert again == pair_spec
    assert ff.canonical_json(spec_to_obj(again)) == ff.canonical_json(obj)


def test_measure_round_trip(pair_spec):
    measure = construct_measure(pair_spec)
    text = ff.measure_json(measure)
    assert text == json_canonical(measure_obj(measure))
    again = ff.obj_to_measure(json.loads(text))
    assert again == measure
    assert ff.measure_json(again) == text


def test_equal_measures_serialize_byte_identically(pair_spec, template):
    from .conftest import two_label_weights

    constructed = construct_measure(pair_spec)
    assembled = assemble_measure(template, two_label_weights(F(1, 2), F(1, 2)))
    assert ff.measure_json(constructed) == ff.measure_json(assembled)


def test_round_trip_over_random_measures():
    rng = random.Random(47)
    for _ in range(10):
        template, weights = random_admissible_instance(rng, rng.randint(1, 4))
        measure = assemble_measure(template, weights)
        text = ff.measure_json(measure)
        again = ff.obj_to_measure(json.loads(text))
        assert again == measure
        assert ff.measure_json(again) == text


def test_plain_spec_round_trip(plain_spec):
    obj = plain_spec_to_obj(plain_spec)
    again = ff.obj_to_spec(json.loads(ff.canonical_json(obj)))
    assert isinstance(again, PlainSpec)
    assert again == plain_spec


def test_template_and_weights_round_trip(template):
    from .conftest import two_label_weights

    obj = template_to_obj(template)
    assert ff.obj_to_template(json.loads(ff.canonical_json(obj))).classes == template.classes
    weights = two_label_weights(F(1, 3), F(2, 7))
    wobj = weights_to_obj(weights)
    assert ff.obj_to_weights(json.loads(ff.canonical_json(wobj))) == weights


def test_class_selector_parsing():
    assert ff.parse_class_selector("1:(1,1)") == SupportClass(1, (1, 1))
    assert ff.parse_class_selector("2:(0,3)") == SupportClass(2, (0, 3))
    with pytest.raises(SpecError):
        ff.parse_class_selector("1:(1,)")
    with pytest.raises(SpecError):
        ff.parse_class_selector("(1,1)")


def test_bad_documents_are_rejected():
    with pytest.raises(SpecError):
        ff.obj_to_spec({"mode": "pair"})
    with pytest.raises(SpecError):
        ff.obj_to_spec({"n": 2, "mode": "weird", "offspring": []})
    with pytest.raises(SpecError):
        ff.obj_to_spec(
            {"n": 2, "mode": "pair",
             "offspring": [{"parent": 1, "child": 1, "dist": []}]}
        )
    with pytest.raises(SpecError):
        ff.obj_to_measure({"root": []})


def test_validation_happens_on_load(pair_spec):
    obj = spec_to_obj(pair_spec)
    obj["offspring"][0]["dist"][0]["p"] = "1/7"  # no longer sums to 1
    with pytest.raises(Exception):
        ff.obj_to_spec(obj)
