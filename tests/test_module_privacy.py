"""Private state is read in its owner's file alone.

A module's doubling, its `FreeMap` and its given tables are read only inside
`steen.module`; every other module acts through `act`, `act_mono`, `images`
or the derived tables, so no second copy of the Verschiebung can drift from
the first.  Both eliminations of `steen.gf2` keep their rows in `_rows`;
every other module asks through their methods, so the resolver's top-bit
rule reads `TopEchelon.has_top`, not a copy of the rows behind it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import steen
from steen.gf2 import Echelon, TopEchelon

OWNERS = [
    ("module.py", {"doubling", "_action", "_generators", "_claims"}),
    ("gf2.py", {"_rows"}),
]


def test_both_eliminations_keep_their_rows_in_rows():
    assert "_rows" in Echelon.__slots__ and "_rows" in TopEchelon.__slots__


@pytest.mark.parametrize("owner, private", OWNERS, ids=[owner for owner, _ in OWNERS])
def test_only_the_owner_reads_its_private_state(owner, private):
    sources = sorted(p for p in Path(steen.__file__).parent.glob("*.py") if p.name != owner)
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert reads == []
