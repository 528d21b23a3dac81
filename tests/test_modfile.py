"""Tests for the module file format."""

from __future__ import annotations

import io
import json
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


# -- fuzzing the readers: every input is read, refused in one line, or invalid

_ALGEBRAS = ("A", "A(0)", "A(1)", "A(2)", "A(3)", "A(12)")
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
    # and maybe cut the text short
    return text[: rnd.randint(0, len(text))] if rnd.random() < 0.3 else text


def _read_or_refuse_in_one_line(read, text):
    try:
        read(text)
    except ValueError as exc:
        assert "\n" not in str(exc)


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
