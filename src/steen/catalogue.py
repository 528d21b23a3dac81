"""Catalogue of the named joker-family modules and their cross-checks.

Every entry is built by a recipe (cyclic quotient, doubling, dual, extension)
and, where a transcribed action diagram exists, cross-checked against it by
isomorphism search.  Each diagram is drawn once over A(1), short edges Sq^1
and long edges Sq^2; its doubles and extensions follow one rule: a k-fold
double shifts its degrees and Sq keys by k, and an extension adds Sq^(4 << k)
from bottom to top or leaves it zero.  The joker towers are named by
`tower_name` alone, and `_parse_tower` reads back exactly the names it prints.
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
    # the cyclic modules: A(1) over the left ideal of the relations
    relations = {
        "joker": [sq(3)], "jokerP": [sq(2, 1)], "w0": [sq(1), sq(2)], "w1": [sq(2)],
        "w2": [sq(3)], "a1": [],
    }
    if name in relations:
        return cyclic_quotient(an(1), relations[name], name)
    if name in ("joker0", "joker1"):
        return _pick_extension(get_module("joker"), 4, name == "joker1", name)
    tower = _parse_tower(name)
    if tower is not None:  # n >= 2: every n = 1 name is handled above
        n, eps = tower
        return double(get_module(tower_name(1, eps)), n - 1, name)
    if name == "jokerP1":
        return _pick_extension(get_module("jokerP"), 4, True, name)
    if name == "jokerPP1":
        return restrict(shift(dualize(get_module("jokerP1")), 4), an(1), "jokerPP1")
    if name == "joker2P1":
        return double(get_module("jokerP1"), 1, "joker2P1")
    if name == "joker2PP1":
        return restrict(shift(dualize(get_module("joker2P1")), 8), an(2), "joker2PP1")
    if name == "w4":
        return shift(dualize(get_module("w1")), 3, "w4")
    raise KeyError(f"unknown catalogue module {name!r}")


# -- transcribed action diagrams -------------------------------------------------

# Each picture over A(1): its class ids, each naming its degree, and Sq^1 and Sq^2 rows.
_PICTURES: dict[str, tuple[str, tuple[int, ...], tuple[int, ...]]] = {
    # a five-class spine: Sq^1 on the bottom and top pairs, Sq^2 from degrees 0, 1, 2
    "joker": ("x0 x1 x2 x3 x4", (2, 0, 0, 16, 0), (4, 8, 16, 0, 0)),
    # the joker spine with a whisker at degree 3 fed by Sq^1 from degree 2
    "jokerP": ("x0 x1 x2 x3 y3 x4", (2, 0, 16, 32, 0, 0), (4, 8, 32, 0, 0, 0)),
    # a whisker at degree 1 feeding Sq^1 into the spine at degree 2
    "jokerPP1": ("x0 x1 y1 x2 x3 x4", (2, 0, 8, 0, 32, 0), (8, 16, 0, 32, 0, 0)),
    "w0": ("x0", (0,), (0,)),
    # the question mark: Sq^1 at the bottom, Sq^2 above it
    "w1": ("x0 x1 x3", (2, 0, 0), (0, 4, 0)),
    # the reversed question mark: Sq^2 at the bottom, Sq^1 above it
    "w4": ("x0 x2 x3", (0, 4, 0), (2, 0, 0)),
    # left multiplication on the Milnor basis of A(1), computed by hand
    "a1": (
        "x0 x1 x2 x3 x3a x4 x5 x6", (2, 0, 16, 32, 0, 0, 128, 0), (4, 24, 32, 64, 64, 128, 0, 0)
    ),
}

# name -> (picture, doubling k, extension); towers up to n = 3 come from `_parse_tower`
_DRAWN: dict[str, tuple[str, int, str]] = {
    **{picture: (picture, 0, "") for picture in _PICTURES},
    "w2": ("joker", 0, ""),
    "jokerP1": ("jokerP", 0, "1"),
    "joker2P1": ("jokerP", 1, ""),
    "joker2PP1": ("jokerPP1", 1, ""),
}


def hand_table(name: str) -> FiniteModule | None:
    """The transcribed diagram for the entry, or None when the functorial
    construction is the only source (doubles beyond n = 3, duals, tensors).
    Each picture is drawn once over A(1); its k-fold double lies over A(1 + k),
    an extension over A with Sq^(4 << k) zero ("0") or bottom to top ("1")."""
    tower = _parse_tower(name)
    drawn = ("joker", tower[0] - 1, tower[1]) if tower and tower[0] <= 3 else _DRAWN.get(name)
    if drawn is None:
        return None
    picture, k, eps = drawn
    ids, sq1, sq2 = _PICTURES[picture]
    gens = tuple(ids.split())
    tables = {1 << k: sq1, 2 << k: sq2}
    if eps == "1":
        tables[4 << k] = (1 << len(gens) - 1,) + (0,) * (len(gens) - 1)
    degrees = tuple(int(re.sub(r"\D", "", g)) << k for g in gens)
    return FiniteModule(name, full_a() if eps else an(1 + k), gens, degrees, tables)


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
