"""Wu-formula action, truncated quotients, and range-limited comparisons."""

from __future__ import annotations

import pytest

from oracles import oracle_power_basis_count, oracle_wu_bso3
from steen.catalogue import get_module
from steen.milnor import DEGREE_CAP, an, full_a
from steen.module import double, find_isomorphism, shift
from steen.unstable import (
    PolyModule,
    bso3,
    bsu3,
    compare_range,
    truncate_quotient,
    wu_action,
)


def mul(p, q):
    out = set()
    for a in p:
        for b in q:
            out ^= {tuple(x + y for x, y in zip(a, b))}
    return frozenset(out)


def test_wu_on_generators_matches_direct_expansion():
    P = bso3()
    for r in range(1, 9):
        assert wu_action(P, r, (1, 0)) == oracle_wu_bso3(r, 2)
        assert wu_action(P, r, (0, 1)) == oracle_wu_bso3(r, 3)


def test_named_wu_values():
    P = bso3()
    assert wu_action(P, 1, (1, 0)) == {(0, 1)}  # Sq^1 w2 = w3
    assert wu_action(P, 2, (1, 0)) == {(2, 0)}  # top square: Sq^2 w2 = w2^2
    assert wu_action(P, 1, (0, 1)) == frozenset()  # Sq^1 w3 = 0
    assert wu_action(P, 3, (0, 1)) == {(0, 2)}  # top square: Sq^3 w3 = w3^2
    # Sq^2 w3 = w2 w3: the formula with w_1 = 0 forces the nonzero value,
    # and the Sq^2 edge from w3 up to w2*w3 in the joker picture needs it;
    # a vanishing Sq^2 w3 would disconnect that diagram.
    assert wu_action(P, 2, (0, 1)) == {(1, 1)}


def test_complex_generator_values():
    B = bsu3()
    assert wu_action(B, 2, (1, 0)) == {(0, 1)}  # Sq^2 c2 = c3 (c1 = 0)
    assert wu_action(B, 4, (1, 0)) == {(2, 0)}  # top square: Sq^4 c2 = c2^2
    assert wu_action(B, 4, (0, 1)) == {(1, 1)}  # Sq^4 c3 = c2 c3
    assert wu_action(B, 6, (0, 1)) == {(0, 2)}  # top square: Sq^6 c3 = c3^2
    for r in (1, 3, 5, 7):  # odd squares vanish on generators
        assert wu_action(B, r, (1, 0)) == frozenset()
        assert wu_action(B, r, (0, 1)) == frozenset()


def monomials_up_to(P, top):
    out = []
    for d in range(0, top + 1):
        out.extend((d, m) for m in P.monomials(d))
    return out


def test_instability_axioms():
    for P in (bso3(), bsu3()):
        for d, m in monomials_up_to(P, 12):
            if d:
                square = tuple(2 * e for e in m)
                assert wu_action(P, d, m) == {square}
            for k in range(d + 1, d + 5):
                assert wu_action(P, k, m) == frozenset()


def test_cartan_consistency():
    for P in (bso3(), bsu3()):
        small = monomials_up_to(P, 8)
        for d1, m1 in small:
            for d2, m2 in small:
                if d1 + d2 > 10:
                    continue
                prod = tuple(x + y for x, y in zip(m1, m2))
                for k in range(1, 7):
                    lhs = wu_action(P, k, prod)
                    rhs = frozenset()
                    for i in range(k + 1):
                        rhs ^= mul(wu_action(P, i, m1), wu_action(P, k - i, m2))
                    assert lhs == rhs


def test_unit_and_zero_squares():
    P = bso3()
    assert wu_action(P, 0, (1, 1)) == {(1, 1)}
    assert wu_action(P, 0, (0, 0)) == {(0, 0)}
    assert wu_action(P, 5, (0, 0)) == frozenset()


def test_wu_argument_errors():
    P = PolyModule("tiny", (("w2", 2, "real"),))
    assert wu_action(P, DEGREE_CAP - 2, (1,)) == frozenset()
    with pytest.raises(ValueError, match="exceeds cap"):
        wu_action(P, DEGREE_CAP - 1, (1,))
    with pytest.raises(ValueError, match="negative"):
        wu_action(bso3(), -1, (1, 0))
    with pytest.raises(ValueError, match="bad monomial"):
        wu_action(bso3(), 1, (1, 0, 0))


def test_polymodule_validation():
    with pytest.raises(ValueError, match="duplicate"):
        PolyModule("p", (("w", 2, "real"), ("w", 3, "real")))
    with pytest.raises(ValueError, match="flavor"):
        PolyModule("p", (("w", 2, "quaternionic"),))
    with pytest.raises(ValueError, match="odd degree"):
        PolyModule("p", (("c", 3, "complex"),))
    with pytest.raises(ValueError, match="unit relation"):
        PolyModule("p", (("w", 2, "real"),), ((0,),))
    with pytest.raises(ValueError, match="bad relation"):
        PolyModule("p", (("w", 2, "real"),), ((-1,),))


def test_polymodule_is_an_immutable_value():
    P = bso3()
    for attr in ("name", "generators", "relations"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(P, attr, ())
        with pytest.raises(AttributeError, match="immutable"):
            delattr(P, attr)
    Q = bso3()
    assert P is not Q and P == Q and hash(P) == hash(Q)
    assert P != bsu3() and P != P.with_relations((3, 0))
    assert P.with_relations((3,)) == P.with_relations((3, 0))
    assert len({P, Q, P.with_relations((3,)), P.with_relations((3, 0))}) == 2


def test_with_relations_validates_and_pads():
    Q = bso3().with_relations((3,), (0, 2))
    assert Q.relations == ((3, 0), (0, 2))
    assert (Q.name, Q.generators) == (bso3().name, bso3().generators)
    with pytest.raises(ValueError, match="unit relation"):
        bso3().with_relations((0, 0))
    with pytest.raises(ValueError, match="bad relation"):
        bso3().with_relations((1, 1, 1))


def test_short_relations_are_padded():
    P = PolyModule("p", (("w2", 2, "real"), ("w3", 3, "real")), ((3,),))
    assert P.relations == ((3, 0),)
    assert P.with_relations((0, 2)).relations == ((0, 2),)


def test_reduced_monomial_counts():
    Q = bso3().with_relations((3, 0))
    for d in range(1, 13):
        assert len(Q.monomials(d)) == oracle_power_basis_count((2, 3), (3, d), d)
    B = bsu3().with_relations((3, 0))
    for d in range(1, 13):
        assert len(B.monomials(d)) == oracle_power_basis_count((4, 6), (3, d), d)


def test_bso_quotient_truncation():
    M = truncate_quotient(bso3().with_relations((3, 0)), full_a(), 6)
    assert M.dims() == {2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
    assert M.gens == ("w2", "w3", "w2^2", "w2*w3", "w3^2")
    assert M.validated


def test_bso_quotient_action_pattern():
    # the joker picture: w2 at the bottom, w3^2 on top
    M = truncate_quotient(bso3().with_relations((3, 0)), full_a(), 6)
    w2, w3, w22, w23, w33 = range(5)
    assert M.table(1) == (1 << w3, 0, 0, 1 << w33, 0)
    assert M.table(2) == (1 << w22, 1 << w23, 1 << w33, 0, 0)
    assert 4 not in M.tables  # Sq^4 w2 dies by instability


def test_bso_quotient_is_the_ground_extension():
    M = truncate_quotient(bso3().with_relations((3, 0)), full_a(), 6)
    assert compare_range(M, shift(get_module("joker0"), 2), 2, 6)
    assert not compare_range(M, shift(get_module("joker1"), 2), 2, 6)


def test_trivial_cap_two():
    M = truncate_quotient(bso3().with_relations((3, 0)), full_a(), 2)
    assert M.dims() == {2: 1}
    assert M.gens == ("w2",)


def test_closure_failure_reports_witness():
    Q = bso3().with_relations((3, 0))
    # Sq^1 w2^3 = w2^2 w3 escapes the ideal as soon as degree 7 is in range
    for cap in (7, 8):
        with pytest.raises(ValueError, match=r"leaves the relation ideal at w2\^2\*w3"):
            truncate_quotient(Q, full_a(), cap)
    assert wu_action(bso3(), 2, (3, 0)) == {(4, 0), (1, 2)}


def test_bsu_quotient_truncation():
    N = truncate_quotient(bsu3().with_relations((3, 0)), full_a(), 12)
    assert N.dims() == {4: 1, 6: 1, 8: 1, 10: 1, 12: 1}
    assert N.gens == ("c2", "c3", "c2^2", "c2*c3", "c3^2")


def test_bsu_quotient_is_the_doubled_ground_extension():
    N = truncate_quotient(bsu3().with_relations((3, 0)), full_a(), 12)
    assert compare_range(N, shift(get_module("joker(2)0"), 4), 4, 12)
    assert not compare_range(N, shift(get_module("joker(2)1"), 4), 4, 12)


def test_complex_rule_agrees_with_doubling():
    Q1 = truncate_quotient(bso3().with_relations((3, 0)), an(1), 6)
    Q2 = truncate_quotient(bsu3().with_relations((3, 0)), an(2), 12)
    assert find_isomorphism(double(Q1, 1), Q2) is not None


def test_compare_range_basics():
    M = truncate_quotient(bso3().with_relations((3, 0)), full_a(), 6)
    assert compare_range(M, M, 2, 6)
    assert compare_range(M, M, 3, 5)
    J = shift(get_module("joker1"), 2)
    assert compare_range(M, J, 2, 5)  # the extensions differ only at the top
    with pytest.raises(ValueError, match="across algebras"):
        compare_range(M, truncate_quotient(bso3().with_relations((3, 0)), an(1), 6), 2, 6)
