"""Module files: the text format, read and written, and JSON, read only.

The text format is line-based:

    module <name> over A | A(<n>)
    gen <id> <degree>
    sq <k> <id> = <id> [+ <id>]*

Blank lines and lines starting with '#' are ignored.  The sq lines for
k = 2^e define the module, and omitted ones mean the action is zero.  Lines
for composite k are optional claims: absent ones are derived from the
generators, present ones are checked by validate.  Serialization writes gens
in basis order and every nonzero sq line, composites included, with k
ascending, sources in basis order, so files round-trip byte for byte.

JSON is an input format only: an object with the keys module, algebra,
gens (a list of [id, degree] pairs) and sq (k -> id -> list of ids), read
by `parse_json` and by `load` for a .json path.  Every command writes text.
Both readers yield located gens (where, id, degree) and sq entries (where,
k, id, targets) for one builder, and every refusal is a ParseError that
starts with its line or JSON key path (`json: sq 1 x0: unknown id b`).
"""

from __future__ import annotations

import re
from pathlib import Path

from steen.milnor import Algebra, an, full_a
from steen.module import FiniteModule, is_id

__all__ = ["ParseError", "load", "parse", "parse_algebra", "parse_json", "serialize"]

_ALGEBRA_RE = re.compile(r"A(\(([0-9]+)\))?")


class ParseError(ValueError):
    """A refused module file: `<where>: <message>`, where is a line or JSON key path."""

    def __init__(self, where: str, message: str) -> None:
        super().__init__(f"{where}: {message}")
        self.where = where


def _number(digits: str) -> int | None:
    """int(digits), or None for more digits than int() converts."""
    try:
        return int(digits)
    except ValueError:
        return None


def parse_algebra(token: str, where: str) -> Algebra:
    """`A` (the whole algebra) or `A(n)`."""
    match = _ALGEBRA_RE.fullmatch(token)
    if match and match.group(2) is None:
        return full_a()
    n = _number(match.group(2)) if match else None
    if n is None:
        raise ParseError(where, f"bad algebra {token!r}; use A or A(n)")
    return an(n)


def _integer(token: str, where: str, what: str, least: int | None = None) -> int:
    value = _number(token) if re.fullmatch(r"-?[0-9]+", token) else None
    if value is None or (least is not None and value < least):
        raise ParseError(where, f"bad {what} {token!r}")
    return value


def serialize(M: FiniteModule) -> str:
    lines = [f"module {M.name} over {M.algebra.name}"]
    lines += [f"gen {g} {d}" for g, d in zip(M.gens, M.degrees)]
    for k, table in sorted(M.tables.items()):
        lines += [f"sq {k} {g} = {' + '.join(M.ids_of(r))}" for g, r in zip(M.gens, table) if r]
    return "\n".join(lines) + "\n"


def _build(name: str, algebra: Algebra, gens: list, sqs: list) -> FiniteModule:
    """The module of located gens (where, id, degree) and sq entries (where,
    k, id, targets), each refused where it was written if it is bad."""
    index: dict[str, int] = {}
    degrees: list[int] = []
    for where, g, d in gens:
        if not is_id(g):
            raise ParseError(where, f"bad id {g!r}")
        if g in index:
            raise ParseError(where, f"duplicate id {g}")
        index[g] = len(degrees)
        degrees.append(d)
    rows: dict[tuple[int, int], int] = {}
    for where, k, src, targets in sqs:
        if src not in index:
            raise ParseError(where, f"unknown id {src}")
        row = 0
        for t in targets:
            if t not in index:
                raise ParseError(where, f"unknown id {t}")
            if degrees[index[t]] != degrees[index[src]] + k:
                raise ParseError(where, f"Sq^{k} {src} hits {t} of wrong degree")
            if row >> index[t] & 1:
                raise ParseError(where, f"repeated target {t}")
            row |= 1 << index[t]
        if (k, index[src]) in rows:
            raise ParseError(where, f"repeated sq {k} {src}")
        if not algebra.contains((k,)):
            raise ParseError(where, f"Sq^{k} is not in {algebra.name}")
        rows[k, index[src]] = row
    ks = {k for k, _ in rows}
    tables = {k: tuple(rows.get((k, i), 0) for i in range(len(degrees))) for k in ks}
    return FiniteModule(name, algebra, tuple(index), tuple(degrees), tables)


def parse(text: str) -> FiniteModule:
    """Read the text format."""
    lines = [(f"line {n}", raw.split()) for n, raw in enumerate(text.splitlines(), start=1)]
    lines = [(where, tokens) for where, tokens in lines if tokens and tokens[0][0] != "#"]
    if not lines:
        raise ParseError("line 1", "empty module file")
    where, head = lines[0]
    if len(head) != 4 or head[0] != "module" or head[2] != "over":
        raise ParseError(where, "expected 'module <name> over <algebra>'")
    algebra = parse_algebra(head[3], where)
    gens, sqs = [], []
    for where, tokens in lines[1:]:
        if tokens[0] == "gen":
            if len(tokens) != 3:
                raise ParseError(where, "expected 'gen <id> <degree>'")
            gens.append((where, tokens[1], _integer(tokens[2], where, "degree")))
        elif tokens[0] == "sq":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError(where, "expected 'sq <k> <id> = <targets>'")
            targets = tokens[4::2]
            if tokens[5::2] != ["+"] * (len(targets) - 1):
                raise ParseError(where, "targets must be joined with '+'")
            k = _integer(tokens[1], where, "operation", least=1)
            sqs.append((where, k, tokens[2], targets))
        else:
            raise ParseError(where, f"unknown directive {tokens[0]!r}")
    return _build(head[1], algebra, gens, sqs)


def _json_field(payload: dict, key: str, kind: type, what: str):
    if key not in payload:
        raise ParseError("json", f"missing key {key!r}")
    if not isinstance(payload[key], kind):
        raise ParseError("json", f"{key!r} must be {what}")
    return payload[key]


def _json_ids(value, where: str) -> list[str]:
    """A list of ids; each is one token, so messages that name it stay one line."""
    if not isinstance(value, list) or not all(isinstance(g, str) for g in value):
        raise ParseError(where, "expected a list of ids")
    for g in value:
        if not is_id(g):
            raise ParseError(where, f"bad id {g!r}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = {}
    for k, value in pairs:
        if k in out:
            raise ParseError("json", f"repeated key {k!r}")
        out[k] = value
    return out


def parse_json(text: str) -> FiniteModule:
    """Read the JSON format."""
    import json

    try:
        # an integer too long for int() reads as None, which no field accepts
        payload = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_number)
    except json.JSONDecodeError as exc:
        raise ParseError(f"json: line {exc.lineno} column {exc.colno}", exc.msg) from None
    except RecursionError:
        raise ParseError("json", "nested too deeply") from None
    if not isinstance(payload, dict):
        raise ParseError("json", "expected an object")
    name = _json_field(payload, "module", str, "a string")
    if name.split() != [name]:
        raise ParseError("json", f"bad module name {name!r}")
    algebra = parse_algebra(_json_field(payload, "algebra", str, "a string"), "json")
    gens = []
    for i, pair in enumerate(_json_field(payload, "gens", list, "a list of [id, degree] pairs")):
        where = f"json: gens entry {i}"
        if not isinstance(pair, list) or [type(x) for x in pair] != [str, int]:
            raise ParseError(where, "expected an [id, degree] pair")
        gens.append((where, *pair))
    sq = _json_field(payload, "sq", dict, "an object")
    for key in payload:
        if key not in ("module", "algebra", "gens", "sq"):
            raise ParseError("json", f"unknown key {key!r}")
    sqs = []
    for key, rows in sq.items():
        k = _number(key) if key.isdecimal() else None
        if k is None or not isinstance(rows, dict):
            raise ParseError("json", f"sq entry {key!r} must map ids to lists of ids")
        if key != str(k):
            raise ParseError("json", f"sq key {key!r} must be written {str(k)!r}")
        if k < 1:
            raise ParseError(f"json: sq {key}", "k must be at least 1")
        for src, targets in rows.items():
            _json_ids([src], f"json: sq {key}")
            where = f"json: sq {key} {src}"
            sqs.append((where, k, src, _json_ids(targets, where)))
    return _build(name, algebra, gens, sqs)


def load(path: str | Path) -> FiniteModule:
    """A module file, JSON for a .json path; an unreadable or non-UTF-8 file is a ValueError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None
    if path.suffix == ".json":
        return parse_json(text)
    return parse(text)
