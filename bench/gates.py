"""Output gates that do not trust the program under test.

Every job's stdout (and any file it writes) must match a sha256 recorded from
a known-good commit, in ``reference.json``.  On top of that, a few outputs are
checked against facts the benchmark holds itself:

- the sphere's Ext chart against the classical Adams E2 page,
- the acceptance ledger must print thirteen PASS lines,
- every obstruction report for n >= 4 must conclude NonRealizable.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "SPHERE_E2",
    "check_ledger",
    "check_nonrealizable",
    "check_sphere_chart",
    "sha256",
]

LEDGER_CRITERIA = 13

# Adams E2 page of the sphere at p = 2, Ext_A^{s,t}(F2, F2), as
# (stem t - s, s) -> rank for s <= 12 and stem <= 20; every other cell in that
# window is zero.  Classical names in the comments.
SPHERE_E2_WINDOW = (12, 20)
SPHERE_E2: dict[tuple[int, int], int] = {
    **{(0, s): 1 for s in range(13)},  # h0^s
    (1, 1): 1,  # h1
    (2, 2): 1,  # h1^2
    (3, 1): 1,  # h2
    (3, 2): 1,  # h0 h2
    (3, 3): 1,  # h0^2 h2 = h1^3
    (6, 2): 1,  # h2^2
    **{(7, s): 1 for s in range(1, 5)},  # h0^k h3, k = 0..3
    (8, 2): 1,  # h1 h3
    (8, 3): 1,  # c0
    (9, 3): 1,  # h1^2 h3
    (9, 4): 1,  # h1 c0
    (9, 5): 1,  # P h1
    (10, 6): 1,  # h1 P h1
    (11, 5): 1,  # P h2
    (11, 6): 1,  # h0 P h2
    (11, 7): 1,  # h0^2 P h2
    (14, 2): 1,  # h3^2
    (14, 3): 1,  # h0 h3^2
    (14, 4): 1,  # d0
    (14, 5): 1,  # h0 d0
    (14, 6): 1,  # h0^2 d0
    **{(15, s): 1 for s in range(1, 9)},  # h0^k h4, k = 0..7
    (15, 5): 2,  # h0^4 h4, h1 d0
    (16, 2): 1,  # h1 h4
    (16, 6): 1,  # h1^2 d0 (target of d2 e0)
    (16, 7): 1,  # P c0
    (17, 3): 1,  # h1^2 h4
    (17, 4): 1,  # e0
    (17, 5): 1,  # h0 e0 = h2 d0
    (17, 6): 1,  # h0^2 e0 (target of d2 f0)
    (17, 7): 1,  # h0^3 e0 = h1^3 d0 (target of d2 of h1 e0 = h0 f0)
    (17, 8): 1,  # h1 P c0
    (17, 9): 1,  # P^2 h1
    (18, 2): 1,  # h2 h4
    (18, 3): 1,  # h0 h2 h4
    (18, 4): 2,  # h0^2 h2 h4 = h1^3 h4, f0
    (18, 5): 1,  # h1 e0 = h0 f0
    (18, 10): 1,  # h1 P^2 h1
    (19, 3): 1,  # c1
    (19, 9): 1,  # P^2 h2
    (19, 10): 1,  # h0 P^2 h2
    (19, 11): 1,  # h0^2 P^2 h2
    (20, 4): 1,  # g
    (20, 5): 1,  # h0 g
    (20, 6): 1,  # h0^2 g
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _chart_ranks(text: str) -> dict[tuple[int, int], int]:
    """(stem, s) -> rank from a text chart; '+' (ten or more) reads as 10."""
    lines = text.splitlines()
    stems = [int(tok) for tok in lines[0].split()]
    ranks = {}
    for line in lines[1:]:
        s, *cells = line.split()
        if len(cells) != len(stems):
            raise ValueError(f"chart row {s} has {len(cells)} cells for {len(stems)} stems")
        for stem, cell in zip(stems, cells):
            ranks[(stem, int(s))] = 0 if cell == "." else 10 if cell == "+" else int(cell)
    return ranks


def check_sphere_chart(stdout: bytes) -> list[str]:
    try:
        ranks = _chart_ranks(stdout.decode())
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return [f"unreadable chart: {exc}"]
    s_max, stem_max = SPHERE_E2_WINDOW
    problems = []
    for stem in range(stem_max + 1):
        for s in range(s_max + 1):
            want = SPHERE_E2.get((stem, s), 0)
            got = ranks.get((stem, s))
            if got != want:
                problems.append(f"E2 rank at (stem {stem}, s {s}) is {got}, expected {want}")
    return problems


def check_ledger(stdout: bytes) -> list[str]:
    lines = stdout.decode(errors="replace").splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = [line for line in lines if line.startswith("FAIL")]
    problems = [f"ledger line: {line}" for line in failed]
    if passed != LEDGER_CRITERIA:
        problems.append(f"ledger printed {passed} PASS lines, expected {LEDGER_CRITERIA}")
    return problems


def check_nonrealizable(stdout: bytes) -> list[str]:
    if "conclusion: NonRealizable" in stdout.decode(errors="replace").splitlines():
        return []
    return ["obstruction report does not conclude NonRealizable"]
