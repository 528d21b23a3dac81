"""The profile of A(n) is spelled in one place: `Algebra` in `milnor.py`.

Slot i of A(n) holds the exponents below 2^(n+2-i) (Adams and Margolis,
1974).  Every basis, count and containment check reads that rule from
`Algebra.exponent_bound`, so the arithmetic `<expr>.n + <int literal>` that
spells it appears only there and in `Algebra.top_degree`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import steen

SOURCES = sorted(Path(steen.__file__).parent.glob("*.py"))
OWNERS = {"exponent_bound", "top_degree"}


def _owned(tree: ast.Module) -> set[int]:
    """ids of the nodes inside the owning methods of Algebra."""
    return {
        id(node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "Algebra"
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name in OWNERS
        for node in ast.walk(method)
    }


def test_only_algebra_spells_the_profile():
    spelled = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owned = _owned(tree)
        spelled += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Attribute)
            and node.left.attr == "n"
            and isinstance(node.right, ast.Constant)
            and type(node.right.value) is int
            and id(node) not in owned
        ]
    assert spelled == []
