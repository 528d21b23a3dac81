"""Each certified object in `src/steen` is built by one recipe, in one place.

`unstable.cube_quotient` is the one recipe for the cube-quotient
certificates that `steen unstable` and the ledger share, so it alone calls
`truncate_quotient`.  A transcribed diagram only checks an entry, so
`hand_table` is called by the catalogue's cross-check `_entry_checks` alone,
and no entry is built from the picture that checks it.  The ledger takes the
joker towers and A(1) from the catalogue, so `verify.py` doubles nothing
itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import steen

SOURCES = sorted(Path(steen.__file__).parent.glob("*.py"))


def _callers(name: str) -> set[tuple[str, str]]:
    """(file, top-level definition) of every call of name; "" at module level."""
    found = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if called == name:
                    found.add((path.name, getattr(top, "name", "")))
    return found


def test_only_cube_quotient_truncates_a_quotient():
    assert _callers("truncate_quotient") == {("unstable.py", "cube_quotient")}


def test_only_the_cross_check_reads_the_pictures():
    assert _callers("hand_table") == {("catalogue.py", "_entry_checks")}


def test_the_ledger_doubles_nothing_itself():
    assert {owner for path, owner in _callers("double") if path == "verify.py"} == set()
