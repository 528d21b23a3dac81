"""Joker-tower names are spelled in `catalogue.py` alone.

`tower_name` prints every tower name and `_parse_tower` reads it back; any
other module that needs a name calls `tower_name`, so no hand-written
`f"joker({n})"` can drift from the catalogue's spelling.  A name is an
f-string whose leading text starts with `joker` and runs into an interpolated
value with no space; prose such as `f"joker admits {count} structures"` is
not a name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import steen

SOURCES = sorted(p for p in Path(steen.__file__).parent.glob("*.py") if p.name != "catalogue.py")


def _spells_a_tower(node: ast.JoinedStr) -> bool:
    first = node.values[0] if node.values else None
    text = first.value if isinstance(first, ast.Constant) else ""
    return text.startswith("joker") and len(node.values) > 1 and " " not in text


def test_only_catalogue_py_spells_tower_names():
    spelled = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.JoinedStr) and _spells_a_tower(node)
    ]
    assert spelled == []
