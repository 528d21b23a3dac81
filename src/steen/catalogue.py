"""Catalogue of the named joker-family modules and their cross-checks.

Every entry is built by a recipe (cyclic quotient, doubling, dual, extension)
and, where a transcribed action diagram exists, cross-checked against it by
isomorphism search.  Diagram transcriptions follow the drawing convention
that short edges are the action of the smaller generator (Sq^1, or Sq^2 in
doubled pictures) and long edges the larger one.  The joker towers are named
by `tower_name` alone, and `_parse_tower` reads back exactly the names it prints.
"""

from __future__ import annotations

import re
from functools import lru_cache

from steen.milnor import an, full_a, sq
from steen.module import (
    FiniteModule,
    cyclic_quotient,
    double,
    dualize,
    extension_enumerate,
    find_isomorphism,
    restrict,
    shift,
)

__all__ = ["MODULE_NAMES", "get_module", "hand_table", "tower_name", "verify_catalogue"]

MODULE_NAMES: tuple[str, ...] = (
    "joker",
    "joker0",
    "joker1",
    "joker(2)",
    "joker(3)",
    "joker(4)",
    "joker(5)",
    "joker(6)",
    "joker(7)",
    "joker(8)",
    "joker(2)0",
    "joker(2)1",
    "joker(3)0",
    "joker(3)1",
    "jokerP",
    "jokerP1",
    "jokerPP1",
    "joker2P1",
    "joker2PP1",
    "w0",
    "w1",
    "w2",
    "w4",
    "a1",
)


def tower_name(n: int, eps: str = "") -> str:
    """The joker over A(n), or with eps "0"/"1" its zero/nonzero extension."""
    return f"joker{eps}" if n == 1 else f"joker({n}){eps}"


def _parse_tower(name: str) -> tuple[int, str] | None:
    """(n, eps) for a name that `tower_name` prints (n >= 2 in parentheses), else None."""
    m = re.fullmatch(r"joker(?:\(([2-9]|[1-9][0-9]+)\))?([01]?)", name)
    return None if m is None else (int(m[1] or 1), m[2])


def _pick_extension(M: FiniteModule, k: int, nonzero: bool, name: str) -> FiniteModule:
    """The unique extension over the whole algebra with Sq^k zero or not."""
    found = [
        ext
        for ext in extension_enumerate(M, full_a(), name)
        if bool(ext.table(k)[0]) == nonzero
    ]
    if len(found) != 1:
        raise ArithmeticError(f"{M.name}: expected one Sq^{k} extension choice")
    return found[0]


@lru_cache(maxsize=None)
def get_module(name: str) -> FiniteModule:
    """Build, validate, and cache the named catalogue module."""
    M = _build(name)
    problems = M.validate()
    if problems:
        raise ArithmeticError(f"catalogue entry {name}: {problems[0]}")
    return M


def _build(name: str) -> FiniteModule:
    if name == "joker":
        return cyclic_quotient(an(1), [sq(3)], "joker")
    if name in ("joker0", "joker1"):
        return _pick_extension(get_module("joker"), 4, name == "joker1", name)
    tower = _parse_tower(name)
    if tower is not None:  # n >= 2: every n = 1 name is handled above
        n, eps = tower
        return double(get_module(tower_name(1, eps)), n - 1, name)
    if name == "jokerP":
        return cyclic_quotient(an(1), [sq(2, 1)], "jokerP")
    if name == "jokerP1":
        return _pick_extension(get_module("jokerP"), 4, True, name)
    if name == "jokerPP1":
        return restrict(shift(dualize(get_module("jokerP1")), 4), an(1), "jokerPP1")
    if name == "joker2P1":
        return double(get_module("jokerP1"), 1, "joker2P1")
    if name == "joker2PP1":
        return restrict(shift(dualize(get_module("joker2P1")), 8), an(2), "joker2PP1")
    if name == "w0":
        return cyclic_quotient(an(1), [sq(1), sq(2)], "w0")
    if name == "w1":
        return cyclic_quotient(an(1), [sq(2)], "w1")
    if name == "w2":
        return hand_table("w2")
    if name == "w4":
        return shift(dualize(get_module("w1")), 3, "w4")
    if name == "a1":
        return cyclic_quotient(an(1), [], "a1")
    raise KeyError(f"unknown catalogue module {name!r}")


# -- transcribed action diagrams -------------------------------------------------

# The joker: a spine of five classes with Sq^1 on the bottom and top pairs
# and Sq^2 connecting degrees 0-2, 1-3, 2-4.
_JOKER_SQ1 = (2, 0, 0, 16, 0)
_JOKER_SQ2 = (4, 8, 16, 0, 0)


def hand_table(name: str) -> FiniteModule | None:
    """The transcribed diagram for the entry, or None when the functorial
    construction is the only source (doubles beyond n = 3, duals, tensors)."""
    tower = (1, "") if name == "w2" else _parse_tower(name)
    if tower is not None and tower[0] <= 3:
        # the joker spine doubled k times; joker1 adds Sq^(4 << k) bottom to top
        n, eps = tower
        k = n - 1
        tables = {1 << k: _JOKER_SQ1, 2 << k: _JOKER_SQ2}
        if eps == "1":
            tables[4 << k] = (16, 0, 0, 0, 0)
        algebra = full_a() if eps else an(n)
        spine5 = ("x0", "x1", "x2", "x3", "x4")
        return FiniteModule(name, algebra, spine5, tuple(d << k for d in range(5)), tables)
    if name in ("jokerP", "jokerP1"):
        # joker spine with a whisker at degree 3 fed by Sq^1 from degree 2;
        # the extended version also has Sq^4 from bottom to top
        gens = ("x0", "x1", "x2", "x3", "y3", "x4")
        tables = {1: (2, 0, 16, 32, 0, 0), 2: (4, 8, 32, 0, 0, 0)}
        if name == "jokerP1":
            tables[4] = (32, 0, 0, 0, 0, 0)
        algebra = an(1) if name == "jokerP" else full_a()
        return FiniteModule(name, algebra, gens, (0, 1, 2, 3, 3, 4), tables)
    if name == "jokerPP1":
        # whisker at degree 1 feeding Sq^1 into the spine at degree 2
        gens = ("x0", "x1", "y1", "x2", "x3", "x4")
        return FiniteModule(
            name,
            an(1),
            gens,
            (0, 1, 1, 2, 3, 4),
            {1: (2, 0, 8, 0, 32, 0), 2: (8, 16, 0, 32, 0, 0)},
        )
    if name == "joker2P1":
        # doubled whiskered joker: whisker at degree 6 fed by Sq^2 from 4
        gens = ("x0", "x2", "x4", "x6", "y6", "x8")
        return FiniteModule(
            name,
            an(2),
            gens,
            (0, 2, 4, 6, 6, 8),
            {2: (2, 0, 16, 32, 0, 0), 4: (4, 8, 32, 0, 0, 0)},
        )
    if name == "joker2PP1":
        # doubled version of the degree-1 whisker picture
        gens = ("x0", "x2", "y2", "x4", "x6", "x8")
        return FiniteModule(
            name,
            an(2),
            gens,
            (0, 2, 2, 4, 6, 8),
            {2: (2, 0, 8, 0, 32, 0), 4: (8, 16, 0, 32, 0, 0)},
        )
    if name == "w0":
        return FiniteModule(name, an(1), ("x0",), (0,), {})
    if name == "w1":
        # the question mark: Sq^1 at the bottom, Sq^2 above it
        return FiniteModule(
            name, an(1), ("x0", "x1", "x3"), (0, 1, 3), {1: (2, 0, 0), 2: (0, 4, 0)}
        )
    if name == "w4":
        # the reversed question mark: Sq^2 at the bottom, Sq^1 above it
        return FiniteModule(
            name, an(1), ("x0", "x2", "x3"), (0, 2, 3), {1: (0, 4, 0), 2: (2, 0, 0)}
        )
    if name == "a1":
        # left multiplication on the Milnor basis of A(1), computed by hand
        gens = ("x0", "x1", "x2", "x3", "x3a", "x4", "x5", "x6")
        return FiniteModule(
            name,
            an(1),
            gens,
            (0, 1, 2, 3, 3, 4, 5, 6),
            {
                1: (2, 0, 16, 32, 0, 0, 128, 0),
                2: (4, 24, 32, 64, 64, 128, 0, 0),
            },
        )
    return None


# -- verification -----------------------------------------------------------------


def _entry_checks(name: str) -> list[str]:
    problems = []
    M = get_module(name)
    hand = hand_table(name)
    if hand is not None:
        problems.extend(f"diagram: {p}" for p in hand.validate())
        candidate = M if M.algebra == hand.algebra else restrict(M, hand.algebra)
        if find_isomorphism(candidate, hand) is None:
            problems.append("construction does not match the transcribed diagram")
    if name == "joker2P1":
        # cyclic presentation: the three exterior primitives plus Sq^4 Sq^6
        rels = [sq(1), sq(0, 1), sq(0, 0, 1), sq(4) * sq(6)]
        quotient = cyclic_quotient(an(2), rels, "joker2P1-presentation")
        if find_isomorphism(restrict(M, an(2)), quotient) is None:
            problems.append("cyclic presentation fails")
        if M.act_mono((8,), 1) != 1 << 5:
            problems.append("Sq^8 should carry the bottom class to the top")
    if name == "w2" and find_isomorphism(M, get_module("joker")) is None:
        problems.append("should be isomorphic to the joker")
    return problems


def verify_catalogue() -> list[tuple[str, str]]:
    """Cross-check every entry; returns (name, 'ok' or first problem)."""
    report = []
    for name in MODULE_NAMES:
        try:
            problems = _entry_checks(name)
        except Exception as exc:  # surface builder errors as entries
            problems = [str(exc)]
        report.append((name, problems[0] if problems else "ok"))
    return report
