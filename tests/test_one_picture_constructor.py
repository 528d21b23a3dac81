"""The catalogue builds every transcribed diagram through one constructor.

`hand_table` draws each diagram from its A(1) picture by one rule: a k-fold
double shifts the degrees and Sq keys by k, and an extension adds a
bottom-to-top row or none.  So `catalogue.py` calls `FiniteModule(` exactly
once, and a new diagram goes into the picture table, not into a constructor
call of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

from steen import catalogue


def _constructs(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name == "FiniteModule"


def test_catalogue_calls_the_module_constructor_once():
    path = Path(catalogue.__file__)
    tree = ast.parse(path.read_text(), str(path))
    calls = [node.lineno for node in ast.walk(tree) if _constructs(node)]
    assert len(calls) == 1, calls
