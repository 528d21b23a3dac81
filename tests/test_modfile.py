"""Tests for the module file format."""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import save, serialize_json
from steen.catalogue import get_module
from steen.cli import main
from steen.milnor import an
from steen.modfile import ParseError, load, parse, parse_json, serialize

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
        (
            "module m over A(1)\ngen a 0\ngen b 0\nsq 1 a = b\n",
            "line 4: Sq\\^1 a hits b of wrong degree",
        ),
    ]
    for text, fragment in cases:
        with pytest.raises(ValueError, match=fragment):
            parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("module m over A(١)\ngen a 0\n", "line 1: bad algebra 'A(١)'; use A or A(n)"),
        ("module m over A(1)\ngen a 0\ngen b ٢\n", "line 3: bad degree '٢'"),
        ("module m over A(1)\ngen a 0\ngen b 2\nsq ٢ a = b\n", "line 4: bad operation '٢'"),
    ],
    ids=["algebra", "degree", "operation"],
)
def test_integers_are_ascii_decimal(text, message):
    # int() reads any Unicode decimal digit; the format takes 0-9 only
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


def test_error_messages_carry_line_numbers():
    text = "module m over A\ngen a 0\n\n# comment\nsq 1 a = zz\n"
    with pytest.raises(ValueError, match="line 5"):
        parse(text)


def test_checks_of_the_builder_name_their_line():
    cases = [
        ("", "line 1: empty module file"),
        ("module m over A(1)\ngen a+ 0\n", "line 2: bad id 'a+'"),
        ("module m over A(1)\ngen a 0\ngen b 4\nsq 4 a = b\n", "line 4: Sq^4 is not in A(1)"),
        (
            "module m over A(1)\ngen a 0\ngen b 1\nsq 1 a = b + b\nsq 1 a = b\n",
            "line 4: repeated target b",
        ),
        (
            "module m over A(1)\ngen a 0\ngen b 1\ngen c 1\nsq 1 a = b\nsq 1 a = c\n",
            "line 6: repeated sq 1 a",
        ),
        ("polymodule p\npolygen w 2 real\n", "line 1: expected 'module <name> over <algebra>'"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == message
        assert message.startswith(caught.value.where + ": ")


def _payload(**fields) -> str:
    payload = {"module": "m", "algebra": "A(1)", "gens": [["a", 0], ["b", 1]], "sq": {}}
    return json.dumps(payload | fields)


@pytest.mark.parametrize(
    "text, message",
    [
        (_payload(sq={"2": {"a": ["b"]}}), "json: sq 2 a: Sq^2 a hits b of wrong degree"),
        (_payload(algebra="A(0)", sq={"2": {"a": []}}), "json: sq 2 a: Sq^2 is not in A(0)"),
        (_payload(sq={"1": {"a": ["b", "b"]}}), "json: sq 1 a: repeated target b"),
        (_payload(sq={"1": {"a": ["c"]}}), "json: sq 1 a: unknown id c"),
        (_payload(sq={"1": {"a b": ["b"]}}), "json: sq 1: bad id 'a b'"),
        (_payload(sq={"1": {"a": ["b\nc"]}}), "json: sq 1 a: bad id 'b\\nc'"),
        (_payload(sq={"0": {"a": ["a"]}}), "json: sq 0: k must be at least 1"),
        (_payload(gens=[["a", 0], ["a", 1]]), "json: gens entry 1: duplicate id a"),
        (_payload(gens=[["a=b", 0]]), "json: gens entry 0: bad id 'a=b'"),
        (_payload(gens=[["a", 0, 1]]), "json: gens entry 0: expected an [id, degree] pair"),
        (_payload(gens=[["a", True]]), "json: gens entry 0: expected an [id, degree] pair"),
        (_payload(module="two words"), "json: bad module name 'two words'"),
        (_payload(comment="x"), "json: unknown key 'comment'"),
        ('{"module": ', "json: line 1 column 12: Expecting value"),
        ("[" * 100_000, "json: nested too deeply"),
        (
            _payload().replace('["b", 1]', '["b", 1' + "0" * 5000 + "]"),
            "json: gens entry 1: expected an [id, degree] pair",
        ),
    ],
    ids=lambda value: value[:60],
)
def test_json_refusals_name_their_key_path(text, message):
    with pytest.raises(ParseError) as caught:
        parse_json(text)
    assert str(caught.value) == message


# -- fuzzing the readers: every input is read, refused in one line, or invalid

_ALGEBRAS = ("A", "A(0)", "A(1)", "A(2)", "A(3)", "A(12)", "A(99999999999)")
_WORDS = (
    "module", "over", "gen", "sq", "=", "+", "#", "polymodule", "polygen", "rel", "real",
    "complex", "w^2", "w^x", "x0", "x1", "zz", "A", "A(1)", "A(x)", "A()", "B", "-1", "0",
    "1", "2", "4", "x",
)


def _skeleton(rnd):
    """An algebra, gens x0, x1, ... and Sq^k lines, mostly of the right degree.

    Many of these are modules; which ones validate is left to chance.  A
    line between two gens a degree apart gets that k.  About one in four of
    the other lines, such as those naming an id no gen has, is kept with a
    random k.  Degrees in -8..8 keep every span at most 16, so no file can
    start a long walk, and no edit below writes a number outside them.
    """
    degrees = [rnd.randint(-8, 8) for _ in range(rnd.randint(0, 5))]
    sq: dict[str, dict[str, list[str]]] = {}
    for _ in range(rnd.randint(0, 6)):
        i, j, k = rnd.randint(0, 5), rnd.randint(0, 5), rnd.randint(1, 16)
        if max(i, j) < len(degrees) and degrees[j] > degrees[i]:
            k = degrees[j] - degrees[i]
        elif rnd.random() < 0.75:
            continue
        targets = sq.setdefault(str(k), {}).setdefault(f"x{i}", [])
        if f"x{j}" not in targets:
            targets.append(f"x{j}")
    gens = [[f"x{i}", d] for i, d in enumerate(degrees)]
    return rnd.choice(_ALGEBRAS), gens, sq


def _text_file(rnd):
    algebra, gens, sq = _skeleton(rnd)
    lines = [f"module m over {algebra}"] + [f"gen {g} {d}" for g, d in gens]
    for k, row in sq.items():
        lines += [f"sq {k} {src} = {' + '.join(ts)}" for src, ts in row.items()]
    # up to three edits that may break the file anywhere, header included:
    # a token replaced, dropped or inserted, or a line spliced in
    for _ in range(rnd.choice((0, 0, 1, 1, 2, 3))):
        n = rnd.randint(0, len(lines))
        tokens = lines[n].split() if n < len(lines) else []
        edit = rnd.choice(("replace", "drop", "insert", "line"))
        if not tokens or edit == "line":
            noise = rnd.choices(_WORDS, k=rnd.randint(0, 6))
            lines.insert(n, " ".join(noise) or f"polygen w {rnd.randint(-8, 8)} real")
            continue
        p = rnd.randrange(len(tokens))
        if edit == "drop":
            del tokens[p]
        else:
            tokens[p : p + (edit == "replace")] = [rnd.choice(_WORDS)]
        lines[n] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _any_json(rnd, depth=2):
    kind = rnd.randrange(7 if depth else 5)
    if kind == 5:
        return [_any_json(rnd, depth - 1) for _ in range(rnd.randint(0, 3))]
    if kind == 6:
        return {rnd.choice(_WORDS): _any_json(rnd, depth - 1) for _ in range(rnd.randint(0, 3))}
    return (None, rnd.random() < 0.5, rnd.randint(-8, 8), rnd.choice(_WORDS), "")[kind]


def _edited(rnd, value):
    """value with one entry, at any depth, dropped or replaced by any JSON."""
    value = dict(value) if isinstance(value, dict) else list(value)
    key = rnd.choice(sorted(value) if isinstance(value, dict) else range(len(value)))
    inner = value[key]
    edit = rnd.choice(("drop", "deeper", "replace"))
    if edit == "drop":
        del value[key]
    elif edit == "deeper" and isinstance(inner, (dict, list)) and inner:
        value[key] = _edited(rnd, inner)
    else:
        value[key] = _any_json(rnd)
    return value


def _json_file(rnd):
    algebra, gens, sq = _skeleton(rnd)
    payload = {"module": "m", "algebra": algebra, "gens": gens, "sq": sq}
    for _ in range(rnd.randint(0, 3)):
        if payload:
            payload = _edited(rnd, payload)
    text = json.dumps(payload)
    # maybe nest it in arrays or objects, at times deeper than the recursion limit
    if rnd.random() < 0.1:
        depth = rnd.randint(1, 3 * sys.getrecursionlimit())
        opening, closing = rnd.choice((("[", "]"), ('{"a": ', "}")))
        text = opening * depth + text + closing * depth
    # and maybe cut the text short
    return text[: rnd.randint(0, len(text))] if rnd.random() < 0.3 else text


def _read_or_refuse_in_one_line(read, text):
    try:
        read(text)
    except ParseError as exc:
        assert "\n" not in str(exc)
        assert str(exc).startswith(("line ", "json"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True), st.booleans())
def test_readers_and_commands_refuse_bad_files_in_one_line(rnd, as_json):
    name, text = ("m.json", _json_file(rnd)) if as_json else ("m.mod", _text_file(rnd))
    _read_or_refuse_in_one_line(parse_json if as_json else parse, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        for command in ("validate", "show"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, str(path)])
            if code == 2:
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert err.getvalue().startswith("steen: ")
            else:
                assert code in (0, 1) and err.getvalue() == ""
