"""Dual-algebra polynomials: conjugate generators and basis conversion."""

from __future__ import annotations

from oracles import substitute_zeta
from oracles import zeta as oracle_zeta
from steen.dual import poly_mul, zeta_in_xi
from steen.milnor import Element, antipode, milnor_basis, mono_degree

# conjugates of the first generators, frozen by hand
FROZEN_ZETAS = {
    0: {()},
    1: {(1,)},
    2: {(0, 1), (3,)},
    3: {(0, 0, 1), (1, 2), (4, 1), (7,)},
}


def test_frozen_zetas():
    for n, expected in FROZEN_ZETAS.items():
        assert zeta_in_xi(n) == frozenset(expected)


def test_zeta_against_oracle_recursion():
    # package recursion peels xi_i from the right, the oracle from the left
    for n in range(7):
        assert zeta_in_xi(n) == oracle_zeta(n)


def test_zeta_degrees():
    for n in range(1, 7):
        d = (1 << n) - 1
        for m in zeta_in_xi(n):
            assert mono_degree(m) == d


def test_substitution_is_involution():
    for d in range(13):
        for m in milnor_basis(d):
            p = frozenset({m})
            assert substitute_zeta(substitute_zeta(p)) == p


def test_substitution_is_ring_map():
    monos = [m for d in range(7) for m in milnor_basis(d)]
    for a in monos:
        for b in monos:
            if mono_degree(a) + mono_degree(b) > 8:
                continue
            pa, pb = frozenset({a}), frozenset({b})
            lhs = substitute_zeta(poly_mul(pa, pb))
            rhs = poly_mul(substitute_zeta(pa), substitute_zeta(pb))
            assert lhs == rhs, (a, b)


def test_substitution_matches_antipode_pairing():
    # <chi Sq(R), xi^E> = <Sq(R), zeta^E>: chi in the Milnor basis is dual
    # to expanding zeta monomials in the xi basis
    for d in range(11):
        basis = milnor_basis(d)
        for r in basis:
            chi = antipode(Element([r])).monomials
            dual_row = frozenset(e for e in basis if r in substitute_zeta(frozenset({e})))
            assert chi == dual_row, r
