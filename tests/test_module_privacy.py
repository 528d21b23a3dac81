"""How a double acts is decided in `module.py` alone.

A module's doubling, its `FreeMap` and its given tables are read only inside
`steen.module`; every other module acts through `act`, `act_mono`, `images`
or the derived tables, so no second copy of the Verschiebung can drift from
the first.
"""

from __future__ import annotations

import ast
from pathlib import Path

import steen

PRIVATE = {"doubling", "_action", "_generators", "_claims"}
SOURCES = sorted(p for p in Path(steen.__file__).parent.glob("*.py") if p.name != "module.py")


def test_only_module_py_reads_how_a_module_acts():
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    ]
    assert reads == []
