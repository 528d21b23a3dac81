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
Polynomial modules for the unstable layer use

    polymodule <name>
    polygen <name> <degree> real | complex
    rel <factor> [<factor>]*       (factor: name or name^e)

JSON is an input format only: an object with the keys module, algebra,
gens (a list of [id, degree] pairs) and sq (k -> id -> list of ids), read
by `parse_json` and by `load` for a .json path.  Every command writes text.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from steen.gf2 import bits
from steen.milnor import Algebra, an, full_a
from steen.module import FiniteModule

__all__ = [
    "load",
    "parse",
    "parse_algebra",
    "parse_json",
    "serialize",
]

_ALGEBRA_RE = re.compile(r"A(\((\d+)\))?")


def parse_algebra(token: str, where: str) -> Algebra:
    """`A` (the whole algebra) or `A(n)`."""
    match = _ALGEBRA_RE.fullmatch(token)
    if not match:
        raise ValueError(f"{where}: bad algebra {token!r}; use A or A(n)")
    return full_a() if match.group(2) is None else an(int(match.group(2)))


def _integer(token: str, lineno: int, what: str, least: int | None = None) -> int:
    if re.fullmatch(r"-?\d+", token) and (least is None or int(token) >= least):
        return int(token)
    raise ValueError(f"line {lineno}: bad {what} {token!r}")


def serialize(M) -> str:
    from steen.unstable import PolyModule

    if isinstance(M, PolyModule):
        lines = [f"polymodule {M.name}"]
        for g, d, flavor in M.generators:
            lines.append(f"polygen {g} {d} {flavor}")
        for rel in M.relations:
            factors = " ".join(
                g if e == 1 else f"{g}^{e}"
                for (g, _, _), e in zip(M.generators, rel)
                if e
            )
            lines.append(f"rel {factors}")
        return "\n".join(lines) + "\n"
    lines = [f"module {M.name} over {M.algebra.name}"]
    for g, d in zip(M.gens, M.degrees):
        lines.append(f"gen {g} {d}")
    for k in sorted(M.tables):
        table = M.tables[k]
        for i in range(M.dim):
            if table[i]:
                targets = " + ".join(M.gens[j] for j in bits(table[i]))
                lines.append(f"sq {k} {M.gens[i]} = {targets}")
    return "\n".join(lines) + "\n"


def parse(text: str):
    """Parse the text format; returns a FiniteModule or a PolyModule."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line.split()))
    if not lines:
        raise ValueError("empty module file")
    if lines[0][1][0] == "polymodule":
        return _parse_poly(lines)
    return _parse_finite(lines)


def _parse_finite(lines: list[tuple[int, list[str]]]) -> FiniteModule:
    lineno, head = lines[0]
    if len(head) != 4 or head[0] != "module" or head[2] != "over":
        raise ValueError(f"line {lineno}: expected 'module <name> over <algebra>'")
    name = head[1]
    algebra = parse_algebra(head[3], f"line {lineno}")
    gens: list[str] = []
    degrees: list[int] = []
    index: dict[str, int] = {}
    actions: list[tuple[int, int, str, list[str]]] = []
    for lineno, tokens in lines[1:]:
        if tokens[0] == "gen":
            if len(tokens) != 3:
                raise ValueError(f"line {lineno}: expected 'gen <id> <degree>'")
            if tokens[1] in index:
                raise ValueError(f"line {lineno}: duplicate id {tokens[1]}")
            index[tokens[1]] = len(gens)
            gens.append(tokens[1])
            degrees.append(_integer(tokens[2], lineno, "degree"))
        elif tokens[0] == "sq":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ValueError(f"line {lineno}: expected 'sq <k> <id> = <targets>'")
            targets = tokens[4::2]
            if tokens[5::2] != ["+"] * (len(targets) - 1):
                raise ValueError(f"line {lineno}: targets must be joined with '+'")
            k = _integer(tokens[1], lineno, "operation", least=1)
            actions.append((lineno, k, tokens[2], targets))
        else:
            raise ValueError(f"line {lineno}: unknown directive {tokens[0]!r}")
    tables: dict[int, list[int]] = {}
    for lineno, k, src, targets in actions:
        if src not in index:
            raise ValueError(f"line {lineno}: unknown id {src}")
        row = 0
        for t in targets:
            if t not in index:
                raise ValueError(f"line {lineno}: unknown id {t}")
            if degrees[index[t]] != degrees[index[src]] + k:
                raise ValueError(f"line {lineno}: Sq^{k} {src} hits {t} of wrong degree")
            row ^= 1 << index[t]
        table = tables.setdefault(k, [0] * len(gens))
        if table[index[src]]:
            raise ValueError(f"line {lineno}: repeated sq {k} {src}")
        table[index[src]] = row
    return FiniteModule(
        name,
        algebra,
        tuple(gens),
        tuple(degrees),
        {k: tuple(rows) for k, rows in tables.items()},
    )


def _parse_poly(lines: list[tuple[int, list[str]]]):
    from steen.unstable import PolyModule

    lineno, head = lines[0]
    if len(head) != 2:
        raise ValueError(f"line {lineno}: expected 'polymodule <name>'")
    name = head[1]
    gens: list[tuple[str, int, str]] = []
    known: set[str] = set()
    relations: list[tuple[int, ...]] = []
    factor_re = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(\^(\d+))?$")
    for lineno, tokens in lines[1:]:
        if tokens[0] == "polygen":
            if len(tokens) != 4 or tokens[3] not in ("real", "complex"):
                raise ValueError(
                    f"line {lineno}: expected 'polygen <name> <degree> real|complex'"
                )
            gens.append((tokens[1], _integer(tokens[2], lineno, "degree"), tokens[3]))
            known.add(tokens[1])
        elif tokens[0] == "rel":
            if len(tokens) < 2:
                raise ValueError(f"line {lineno}: expected 'rel <factor>...'")
            exponents = [0] * len(gens)
            for factor in tokens[1:]:
                match = factor_re.match(factor)
                if not match or match.group(1) not in known:
                    raise ValueError(f"line {lineno}: bad factor {factor!r}")
                which = next(
                    i for i, (g, _, _) in enumerate(gens) if g == match.group(1)
                )
                exponents[which] += int(match.group(3) or 1)
            relations.append(tuple(exponents))
        else:
            raise ValueError(f"line {lineno}: unknown directive {tokens[0]!r}")
    return PolyModule(name, tuple(gens), tuple(relations))


def _json_field(payload: dict, key: str, kind: type, what: str):
    if key not in payload:
        raise ValueError(f"json: missing key {key!r}")
    if not isinstance(payload[key], kind):
        raise ValueError(f"json: {key!r} must be {what}")
    return payload[key]


def _json_ids(value, index: dict[str, int], where: str) -> list[int]:
    if not isinstance(value, list) or not all(isinstance(g, str) for g in value):
        raise ValueError(f"json: {where} must be a list of ids")
    for g in value:
        if g not in index:
            raise ValueError(f"json: {where}: unknown id {g!r}")
    return [index[g] for g in value]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = {}
    for k, value in pairs:
        if k in out:
            raise ValueError(f"json: repeated key {k!r}")
        out[k] = value
    return out


def parse_json(text: str) -> FiniteModule:
    payload = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(payload, dict):
        raise ValueError("json: expected an object")
    name = _json_field(payload, "module", str, "a string")
    algebra = parse_algebra(_json_field(payload, "algebra", str, "a string"), "json")
    pairs = _json_field(payload, "gens", list, "a list of [id, degree] pairs")
    for pair in pairs:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and isinstance(pair[0], str)
            and type(pair[1]) is int
        ):
            raise ValueError(f"json: gens entry {pair!r} is not an [id, degree] pair")
    gens = tuple(g for g, _ in pairs)
    degrees = tuple(d for _, d in pairs)
    index = {g: i for i, g in enumerate(gens)}
    tables: dict[int, tuple[int, ...]] = {}
    for k, rows in _json_field(payload, "sq", dict, "an object").items():
        if not k.isdecimal() or not isinstance(rows, dict):
            raise ValueError(f"json: sq entry {k!r} must map ids to lists of ids")
        if k != str(int(k)):
            raise ValueError(f"json: sq key {k!r} must be written {str(int(k))!r}")
        table = [0] * len(gens)
        for src, targets in rows.items():
            (i,) = _json_ids([src], index, f"sq {k}")
            for j in _json_ids(targets, index, f"sq {k} {src}"):
                table[i] ^= 1 << j
        tables[int(k)] = tuple(table)
    return FiniteModule(name, algebra, gens, degrees, tables)


def load(path: str | Path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    if path.suffix == ".json":
        return parse_json(text)
    return parse(text)
