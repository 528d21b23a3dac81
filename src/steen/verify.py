"""Built-in acceptance ledger: headline facts recomputed from scratch.

Each criterion re-derives one fact the package stands on and raises on any
mismatch; all arithmetic is exact over GF(2), so there are no tolerances.
The registry is shared by the verify-suite subcommand and the test suite so
both report the same thirteen lines.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Callable, NamedTuple

from steen.catalogue import get_module, tower_name, verify_catalogue
from steen.gf2 import bits
from steen.milnor import (
    Element,
    _product_monomials,
    antipode,
    basis_index,
    full_a,
    an,
    milnor_basis,
    milnor_primitive,
    sq,
    sq_word,
    to_admissible,
    admissible_words,
)
from steen.module import (
    FiniteModule,
    coaction,
    cyclic_quotient,
    dualize,
    extension_enumerate,
    find_isomorphism,
    shift,
    tensor,
    trivial_module,
)
from steen.dual import poly_mul, poly_pow, zeta_in_xi
from steen.obstruction import check_hypotheses, obstruction_report
from steen.resolution import (
    Resolution,
    ext_chart,
    minimal_resolution,
    resolution_checks,
)
from steen.unstable import bso3, cube_quotient, wu_action

__all__ = ["CRITERIA", "Criterion", "run_all", "run_criterion"]


class Criterion(NamedTuple):
    """One ledger entry: a stable slug and the check."""

    slug: str
    run: Callable[[], str]


def run_criterion(criterion: Criterion) -> tuple[bool, str]:
    """Execute one check; never raises, returns (ok, detail)."""
    if sys.flags.optimize:  # -O strips the asserts the checks are made of
        return False, "not checked: Python runs with -O, which strips the ledger's asserts"
    try:
        return True, criterion.run()
    except AssertionError as exc:
        return False, f"assertion failed: {exc}" if str(exc) else "assertion failed"
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"


def run_all(write: Callable[[str], None] = print) -> bool:
    """Run every criterion, print one ledger line each, report overall."""
    all_ok = True
    for criterion in CRITERIA:
        ok, detail = run_criterion(criterion)
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'}  {criterion.slug:<13} {detail}")
    write("verify-suite: all criteria pass" if all_ok else "verify-suite: FAILURES")
    return all_ok


# -- shared computations --------------------------------------------------------


@lru_cache(maxsize=None)
def _sphere_resolution() -> Resolution:
    A = full_a()
    return minimal_resolution(A, trivial_module(A, name="S"), 12, 32)


@lru_cache(maxsize=None)
def _presentation_resolution(n: int) -> Resolution:
    top = {1: 3, 2: 6, 3: 12}[n]
    return minimal_resolution(an(n), get_module(tower_name(n)), 1, 2 * top + 2)


# -- the criteria ---------------------------------------------------------------


def _antipode_identities() -> str:
    assert antipode(sq(1)) == sq(1)
    assert antipode(sq(2)) == sq(2)
    assert antipode(sq(4)) == sq(4) + sq(2) * sq(2)
    assert sq(1) * sq(2) == sq(3)
    assert sq(2) * sq(2) == sq(1) * sq(2) * sq(1)
    return (
        "chi Sq^1 = Sq^1, chi Sq^2 = Sq^2, chi Sq^4 = Sq^4 + Sq^2 Sq^2, "
        "Sq^1 Sq^2 = Sq^3, Sq^2 Sq^2 = Sq^1 Sq^2 Sq^1"
    )


def _joker_duality() -> str:
    for n in (1, 2, 3):
        span = 1 << (n + 1)
        low = get_module(tower_name(n, "0"))
        high = get_module(tower_name(n, "1"))
        iso = find_isomorphism(shift(dualize(low), span), high)
        assert iso is not None, f"dual comparison fails for n = {n}"
    assert find_isomorphism(get_module("joker0"), get_module("joker1")) is None
    return (
        "shifted dual of the zero extension is the nonzero extension for "
        "n = 1, 2, 3; the two extensions themselves are not isomorphic"
    )


def _doubling_presentations() -> str:
    def p(s: int, t: int) -> Element:
        return sq(*milnor_primitive(s, t))

    presentations = {
        2: (
            [p(0, 1), p(0, 2), p(0, 3), sq(6)],
            [p(0, 1), p(0, 2), sq(6)],
        ),
        3: (
            [p(0, 1), p(0, 2), p(0, 3), p(1, 1), p(1, 2), sq(12)],
            [p(0, 1), p(1, 1), p(1, 2), sq(12)],
        ),
    }
    for n, (full_list, trimmed) in presentations.items():
        D = get_module(tower_name(n))
        for rels in (full_list, trimmed):
            Q = cyclic_quotient(an(n), list(rels), f"quotient({n})")
            assert find_isomorphism(D, Q) is not None, (n, len(rels))
    return (
        "double(joker, n-1) matches the cyclic quotient of A(n) for n = 2, 3, "
        "with and without the redundant degree-7 primitive at n = 2"
    )


def _presentation_degrees() -> str:
    expected = {1: [3], 2: [1, 3, 6], 3: [1, 2, 6, 12]}
    for n, stage1 in expected.items():
        R = _presentation_resolution(n)
        assert R.degrees[0] == [0], f"n = {n} is not cyclic"
        assert sorted(R.degrees[1]) == stage1, f"n = {n}: {sorted(R.degrees[1])}"
    return "stage-1 generator degrees are {3}, {1,3,6}, {1,2,6,12}"


def _sphere_chart() -> str:
    C = ext_chart(_sphere_resolution())
    window = {(s, t - s): r for (s, t), r in C.ranks.items()}
    for spot in ((1, 1), (1, 3), (1, 7), (1, 15), (2, 14), (5, 9), (5, 11)):
        assert window.get(spot) == 1, f"rank at (s, stem) = {spot}"
    for s in range(13):
        assert window.get((s, 0), 0) >= 1, f"missing tower dot at s = {s}"
    for spot in ((1, 2), (1, 4), (1, 5), (1, 6)):
        assert spot not in window, f"phantom dot at (s, stem) = {spot}"
    return (
        "sphere chart has rank 1 at the seven marked (s, stem) spots, "
        "a full vertical tower over stem 0, and empty cells at s = 1, "
        "stems 2, 4, 5, 6"
    )


def _detection_classes() -> str:
    R1 = minimal_resolution(an(1), get_module("jokerPP1"), 0, 12)
    assert sorted(R1.degrees[0]) == [0, 1], sorted(R1.degrees[0])
    R2 = minimal_resolution(an(2), get_module("joker2PP1"), 0, 12)
    assert sorted(R2.degrees[0]) == [0, 2], sorted(R2.degrees[0])
    return (
        "hom-degree generators sit exactly in degrees {0, 1} over A(1) "
        "and {0, 2} over A(2) for the whiskered one extensions"
    )


def _wall_relation() -> str:
    J2 = get_module("joker(2)")
    rel = sq_word((4, 4)) + sq_word((2, 4, 2))
    assert rel, "the relation collapses to zero in the algebra"
    for i in range(J2.dim):
        assert J2.act(rel, 1 << i) == 0, f"survives on {J2.gens[i]}"
    return "Sq^4 Sq^4 + Sq^2 Sq^4 Sq^2 annihilates every class of joker(2)"


def _extension_counts() -> str:
    A = full_a()
    on_joker = extension_enumerate(get_module("joker"), A)
    on_a1 = extension_enumerate(get_module("a1"), A)
    assert len(on_joker) == 2, f"joker admits {len(on_joker)} structures"
    assert len(on_a1) == 4, f"a1 admits {len(on_a1)} structures"
    return "whole-algebra structures: exactly 2 on joker and exactly 4 on A(1)"


def _unstable_quotients() -> str:
    assert wu_action(bso3(), 1, (1, 0)) == {(0, 1)}, "Sq^1 w_2"
    for space, degrees in (("bso3", [2, 3, 4, 5, 6]), ("bsu3", [4, 6, 8, 10, 12])):
        Q, matches = cube_quotient(space)
        assert sorted(Q.degrees) == degrees, sorted(Q.degrees)
        assert list(matches.values()) == [True, False], matches
    return (
        "Sq^1 w_2 = w_3; the w_2-cube and c_2-cube quotients are "
        "one-dimensional per degree and match the shifted zero extensions"
    )


def _tensor_cells() -> str:
    A = full_a()
    A3 = FiniteModule("A3", A, ("x3", "x5", "x6"), (3, 5, 6), {2: (2, 0, 0), 1: (0, 4, 0)})
    B1 = FiniteModule("B1", A, ("y1", "y2"), (1, 2), {1: (2, 0)})
    assert not A3.validate() and not B1.validate()
    T = tensor(A3, B1)
    assert find_isomorphism(T, shift(get_module("jokerP1"), 4)) is not None
    lo = T.gens.index("x3y1")
    hi = T.gens.index("x6y2")
    assert T.act_mono((4,), 1 << lo) == 1 << hi, "Sq^4 x3y1"
    A5 = FiniteModule("A5", A, ("x5", "x9", "x11"), (5, 9, 11), {4: (2, 0, 0), 2: (0, 4, 0)})
    B3 = FiniteModule("B3", A, ("y3", "y5"), (3, 5), {2: (2, 0)})
    assert not A5.validate() and not B3.validate()
    T2 = tensor(A5, B3)
    assert find_isomorphism(T2, shift(get_module("joker2P1"), 8)) is not None
    return (
        "3-cell times 2-cell tensors realize both shifted whiskered one "
        "extensions, with Sq^4(x3y1) = x6y2 on the nose"
    )


def _coactions() -> str:
    def transcript(M) -> dict[int, frozenset]:
        out: dict[int, set] = {}
        for monomial, j in coaction(M, M.dim - 1):
            out.setdefault(j, set()).add(monomial)
        return {j: frozenset(s) for j, s in out.items()}

    t0 = transcript(get_module("joker0"))
    t1 = transcript(get_module("joker1"))
    z1 = zeta_in_xi(1)
    z2 = zeta_in_xi(2)
    xi2 = frozenset({(0, 1)})
    expected0 = {
        4: frozenset({()}),
        3: frozenset({(1,)}),
        2: frozenset({(2,)}),
        1: z2,
        0: poly_mul(z1, xi2),
    }
    assert t0 == expected0, "coaction transcript of the joker0 top class"
    expected1 = dict(expected0)
    expected1[0] = poly_mul(z1, z2)
    assert t1 == expected1, "coaction transcript of the joker1 top class"
    assert t0[0] ^ t1[0] == poly_pow(z1, 4)
    return (
        "top-class coactions agree except in the bottom coefficient, "
        "which differs by exactly zeta_1^4"
    )


def _obstruction_reports() -> str:
    for n in range(4, 9):
        report = obstruction_report(n)
        assert report.conclusion == "NonRealizable", f"n = {n}: {report.conclusion}"
        assert all(h.ok for h in report.hypothesis_checks), f"n = {n} hypotheses"
        for term in report.terms:
            assert term.gate_ok, f"n = {n}: soundness gate at ({term.i},{term.j})"
            assert term.verdict == "vanishes", f"n = {n}: ({term.i},{term.j})"
        assert report.target_nonzero, f"n = {n} target"
    try:
        check_hypotheses(3)
    except ValueError:
        rejected = True
    else:
        rejected = False
    assert rejected, "n = 3 must be rejected by the k >= 3 hypothesis"
    return (
        "towers n = 4..8 are non-realizable with every certificate vanishing "
        "and every soundness gate green; n = 3 fails the k >= 3 hypothesis"
    )


def _product_tables(cap: int) -> dict[tuple[int, int], list[list[int]]]:
    """table[p, q][i][j]: x_i y_j, for the i-th and j-th Milnor monomials of
    degrees p and q, p + q <= cap, as a bitset over the basis of degree p + q.

    Each product comes from `_product_monomials`, Milnor's matrix formula,
    not from the Sq(2^e) matrices, whose recurrence assumes associativity.
    Its bits are ORed in from one {monomial: bit} map per degree: the terms
    of a product are distinct, so OR is their sum.
    """
    basis = {d: milnor_basis(d) for d in range(1, cap)}
    bit = {d: {m: 1 << i for i, m in enumerate(milnor_basis(d))} for d in range(2, cap + 1)}
    table: dict[tuple[int, int], list[list[int]]] = {}
    for p in range(1, cap):
        for q in range(1, cap - p + 1):
            bit_pq = bit[p + q]
            rows = table[p, q] = []
            for x in basis[p]:
                row = []
                for y in basis[q]:
                    xy = 0
                    for t in _product_monomials(x, y):
                        xy |= bit_pq[t]
                    row.append(xy)
                rows.append(row)
    return table


def _associativity_triples(
    cap: int, table: dict[tuple[int, int], list[list[int]]] | None = None
) -> int:
    """Check (xy)z = x(yz) on every triple of positive-degree monomials.

    The degrees of x, y and z sum to at most cap, and the products come from
    `table`, by default a fresh `_product_tables(cap)`.  Returns the number
    of triples.

    For each x and each pair of degrees (|y|, |z|) the check runs over every
    y_j and z_k at once, on ints with a W-bit slot at (j*K + k)*W, where K
    is the number of z and W the largest basis size up to degree cap.  (xy)z
    is, for each j, the XOR of the packed rows m z over the monomials m of
    x y_j, shifted to row j.  x(yz) is the XOR over monomials m of
    (x m) * spread[m], where spread[m] has bit (j*K + k)*W set for each
    y_j z_k that holds m: as x m < 2^W the product has no carries and copies
    x m into those slots.  The slots run in the order of j, then k, so the
    lowest differing bit names the triple a loop over x, y, z fails first.
    """
    basis = {d: milnor_basis(d) for d in range(1, cap + 1)}
    width = max(len(b) for b in basis.values())
    if table is None:
        table = _product_tables(cap)
    # packed[p, r][m]: the products m z over the degree-r monomials z, one slot per z
    packed = {
        key: [sum(mz << k * width for k, mz in enumerate(row)) for row in rows]
        for key, rows in table.items()
    }
    # spread[q, r]: (m, mask) with bit (j*K + k)*W of mask set when y_j z_k holds m
    spread: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (q, r), rows in table.items():
        if q + r == cap:  # no room left for x
            continue
        masks: dict[int, int] = {}
        for j, row in enumerate(rows):
            for slot, yz in enumerate(row, start=j * len(basis[r])):
                for m in bits(yz):
                    masks[m] = masks.get(m, 0) | 1 << slot * width
        spread[q, r] = list(masks.items())
    triples = 0
    for da in range(1, cap - 1):
        for db in range(1, cap - da):
            # (j, the monomials of x y_j) for each x, the zero products left out
            xy_bits = [[(j, [*bits(xy)]) for j, xy in enumerate(xs) if xy] for xs in table[da, db]]
            for dc in range(1, cap - da - db + 1):
                left = packed[da + db, dc]  # (xy) z, row by monomial of xy
                right = table[da, db + dc]  # x (yz), column by monomial of yz
                spreads = spread[db, dc]
                stride = len(basis[dc]) * width  # one row of slots per y
                for i, xy_row in enumerate(xy_bits):
                    lhs = 0
                    for j, xy in xy_row:
                        row = 0
                        for m in xy:
                            row ^= left[m]
                        lhs ^= row << j * stride
                    x_times = right[i]
                    rhs = 0
                    for m, mask in spreads:
                        rhs ^= x_times[m] * mask
                    if lhs != rhs:
                        j, k = divmod(next(bits(lhs ^ rhs)) // width, len(basis[dc]))
                        raise AssertionError((basis[da][i], basis[db][j], basis[dc][k]))
                triples += len(basis[da]) * len(basis[db]) * len(basis[dc])
    return triples


def _property_sweeps() -> str:
    """The algebra's laws and the engines' invariants, swept.

    One `_product_tables` build serves both sweeps: associativity, then the
    antipode identities, which read its entries of degree <= 16.  chi in
    degree d is a matrix whose column i is chi of the i-th basis monomial,
    so chi of any element is the XOR of the columns at its bits.  A failure
    names the monomial or the pair (a, b).
    """
    cap = 24
    table = _product_tables(cap)
    triples = _associativity_triples(cap, table)
    A = full_a()
    chi: dict[int, list[int]] = {}
    for d in range(21):
        index = basis_index(A, d)
        chi[d] = [sum(1 << index[t] for t in antipode(sq(*m)).monomials) for m in milnor_basis(d)]
        for i, m in enumerate(milnor_basis(d)):
            back = 0
            for c in bits(chi[d][i]):
                back ^= chi[d][c]
            assert back == 1 << i, m
    pairs = 0
    for da in range(1, 16):
        for db in range(1, 17 - da):
            ab, ba = table[da, db], table[db, da]
            for i, a in enumerate(milnor_basis(da)):
                for j, b in enumerate(milnor_basis(db)):
                    lhs = 0  # chi(ab)
                    for c in bits(ab[i][j]):
                        lhs ^= chi[da + db][c]
                    rhs = 0  # chi(b) chi(a)
                    for u in bits(chi[db][j]):
                        for v in bits(chi[da][i]):
                            rhs ^= ba[u][v]
                    assert lhs == rhs, (a, b)
                    pairs += 1
    for d in range(13):
        for w in admissible_words(d):
            assert to_admissible(sq_word(w)) == (w,), w
        for m in milnor_basis(d):
            el = Element([m])
            back = Element()
            for w in to_admissible(el):
                back += sq_word(w)
            assert back == el, m
    resolutions = [_sphere_resolution()] + [_presentation_resolution(n) for n in (1, 2, 3)]
    S1 = trivial_module(an(1), name="S")
    resolutions.append(minimal_resolution(an(1), S1, 6, 14))
    for R in resolutions:
        problems = resolution_checks(R)
        assert not problems, problems[:1]
    report = verify_catalogue()
    bad = [f"{name}: {msg}" for name, msg in report if msg != "ok"]
    assert not bad, bad[:1]
    return (
        f"associativity on {triples} monomial triples (degree <= {cap}), "
        f"antipode involution and anti-multiplicativity ({pairs} pairs), "
        "admissible-form round trips, d.d = 0 and minimality for 5 "
        "resolutions, and every catalogue entry validates"
    )


CRITERIA: tuple[Criterion, ...] = (
    Criterion("antipode", _antipode_identities),
    Criterion("duality", _joker_duality),
    Criterion("doubling", _doubling_presentations),
    Criterion("presentations", _presentation_degrees),
    Criterion("sphere-chart", _sphere_chart),
    Criterion("detection", _detection_classes),
    Criterion("wall-relation", _wall_relation),
    Criterion("extensions", _extension_counts),
    Criterion("unstable", _unstable_quotients),
    Criterion("tensor-cells", _tensor_cells),
    Criterion("coaction", _coactions),
    Criterion("obstruction", _obstruction_reports),
    Criterion("properties", _property_sweeps),
)
