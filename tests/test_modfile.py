"""Tests for the module file format."""

from __future__ import annotations

import pytest

from oracles import save, serialize_json
from steen.catalogue import get_module
from steen.milnor import an
from steen.modfile import load, parse, parse_json, serialize

ROUND_TRIP_NAMES = ("joker", "joker1", "joker(3)", "jokerP", "joker2P1", "a1", "w4")


def test_text_round_trip_is_byte_exact():
    for name in ROUND_TRIP_NAMES:
        M = get_module(name)
        text = serialize(M)
        N = parse(text)
        assert serialize(N) == text
        assert N.name == M.name
        assert N.algebra == M.algebra
        assert N.gens == M.gens
        assert N.degrees == M.degrees
        assert N.tables == M.tables


def test_json_round_trip():
    for name in ROUND_TRIP_NAMES:
        M = get_module(name)
        text = serialize_json(M)
        N = parse_json(text)
        assert N.name == M.name
        assert N.algebra == M.algebra
        assert N.gens == M.gens
        assert N.degrees == M.degrees
        assert N.tables == M.tables
        assert serialize_json(N) == text


def test_save_and_load(tmp_path):
    M = get_module("jokerP")
    text_path = tmp_path / "m.mod"
    json_path = tmp_path / "m.json"
    save(M, text_path)
    save(M, json_path)
    assert text_path.read_text() == serialize(M)
    assert json_path.read_text() == serialize_json(M)
    for path in (text_path, json_path):
        N = load(path)
        assert N.gens == M.gens
        assert N.tables == M.tables


def test_parse_literal_example():
    text = """
# a module with one interesting operation
module sample over A(1)

gen a 0
gen b 1
gen c 3
sq 1 a = b
sq 2 b = c
"""
    M = parse(text)
    assert M.name == "sample"
    assert M.algebra == an(1)
    assert M.gens == ("a", "b", "c")
    assert M.degrees == (0, 1, 3)
    assert M.tables == {1: (2, 0, 0), 2: (0, 4, 0)}
    assert M.validate() == []


def test_sum_targets():
    text = "module m over A(1)\ngen a 0\ngen b 1\ngen c 1\nsq 1 a = b + c\n"
    M = parse(text)
    assert M.tables == {1: (6, 0, 0)}
    assert serialize(M) == text


def test_parse_errors():
    cases = [
        ("", "empty"),
        ("# only comments\n", "empty"),
        ("module m on A\n", "expected 'module"),
        ("module m over B2\n", "bad algebra"),
        ("module m over A(x)\n", "bad algebra"),
        ("module m over A\ngen a\n", "expected 'gen"),
        ("module m over A\ngen a 0\ngen a 1\n", "duplicate id"),
        ("module m over A\ngen a 0\nfoo bar\n", "unknown directive"),
        ("module m over A\ngen a 0\nsq 1 b = a\n", "unknown id"),
        ("module m over A\ngen a 0\nsq 1 a = b\n", "unknown id"),
        ("module m over A\ngen a 0\ngen b 1\ngen c 1\nsq 1 a = b c\n", "joined"),
        (
            "module m over A\ngen a 0\ngen b 1\nsq 1 a = b\nsq 1 a = b\n",
            "repeated sq",
        ),
        ("module m over A\ngen a x\n", "line 2: bad degree 'x'"),
        ("module m over A\ngen a 0\nsq one a = a\n", "line 3: bad operation 'one'"),
        ("module m over A\ngen a 0\nsq 0 a = a\n", "line 3: bad operation '0'"),
        ("polymodule p\npolygen g x real\n", "line 2: bad degree 'x'"),
        (
            "module m over A(1)\ngen a 0\ngen b 0\nsq 1 a = b\n",
            "line 4: Sq\\^1 a hits b of wrong degree",
        ),
    ]
    for text, fragment in cases:
        with pytest.raises(ValueError, match=fragment):
            parse(text)


def test_error_messages_carry_line_numbers():
    text = "module m over A\ngen a 0\n\n# comment\nsq 1 a = zz\n"
    with pytest.raises(ValueError, match="line 5"):
        parse(text)


def test_polymodule_round_trip():
    from steen.unstable import bso3, bsu3

    for P in (bso3(), bsu3(), bso3().with_relations((3, 0), (0, 2))):
        assert parse(serialize(P)) == P


def test_polymodule_literal_text():
    text = "\n".join(
        [
            "polymodule BSO(3)",
            "# characteristic classes",
            "polygen w2 2 real",
            "polygen w3 3 real",
            "rel w2^3",
            "rel w2 w3^2",
        ]
    )
    P = parse(text)
    assert P.name == "BSO(3)"
    assert P.generators == (("w2", 2, "real"), ("w3", 3, "real"))
    assert P.relations == ((3, 0), (1, 2))


def test_polymodule_parse_errors():
    cases = [
        ("polymodule\n", "expected 'polymodule"),
        ("polymodule p\npolygen w 2\n", "expected 'polygen"),
        ("polymodule p\npolygen w 2 octonionic\n", "expected 'polygen"),
        ("polymodule p\npolygen w 2 real\nrel\n", "expected 'rel"),
        ("polymodule p\npolygen w 2 real\nrel v^2\n", "bad factor"),
        ("polymodule p\npolygen w 2 real\nrel w^x\n", "bad factor"),
        ("polymodule p\npolygen w 2 real\ngen a 0\n", "unknown directive"),
    ]
    for text, fragment in cases:
        with pytest.raises(ValueError, match=fragment):
            parse(text)
