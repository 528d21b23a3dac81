"""Each certified object in `src/steen` is built by one recipe, in one place.

`unstable.cube_quotient` is the one recipe for the cube-quotient
certificates that `steen unstable` and the ledger share, so it alone calls
`truncate_quotient`.  A transcribed diagram only checks an entry, so
`hand_table` is called by the catalogue's cross-check `_entry_checks` alone,
and no entry is built from the picture that checks it.  The ledger takes the
joker towers and A(1) from the catalogue, so `verify.py` doubles nothing
itself.  The columns of Sq(2^e) come from the one-row Milnor kernel
`_one_row_product`, not through the product cache, and the digit rule that
kernel walks is written once for one row and once for the general matrices.
The antipode reads the Sq(2^e) plans, so only the ledger's round trips
rewrite into admissible words.
"""

from __future__ import annotations

import ast
from pathlib import Path

import steen

SOURCES = sorted(Path(steen.__file__).parent.glob("*.py"))


def _is_digit_step(node: ast.AST) -> bool:
    """(x + 1) & ~c: the next value after x that shares no binary digit with c."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.right, ast.UnaryOp)
        and isinstance(node.right.op, ast.Invert)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add)
        and isinstance(node.left.right, ast.Constant)
        and node.left.right.value == 1
    )


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


def test_sq_columns_come_from_the_one_row_kernel():
    assert ("milnor.py", "generator_matrix") in _callers("_one_row_product")
    assert ("milnor.py", "generator_matrix") not in _callers("_product_monomials")


def test_only_the_ledger_rewrites_into_admissible_words():
    # chi reads the Sq(2^e) plans; admissible words serve the round trips alone
    assert _callers("to_admissible") == {("verify.py", "_property_sweeps")}


def test_the_digit_rule_is_written_once_per_matrix_shape():
    steps = [
        (path.name, getattr(top, "name", ""))
        for path in SOURCES
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if _is_digit_step(node)
    ]
    assert sorted(steps) == [("milnor.py", "_one_row_product"), ("milnor.py", "_product_monomials")]
