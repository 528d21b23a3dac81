"""Milnor-basis arithmetic: frozen identities, oracle sweeps, invariants."""

from __future__ import annotations

import random
from itertools import product as iproduct

import pytest

from oracles import (
    FULL_A,
    adem_expand,
    coproduct,
    oracle_antipode,
    oracle_product,
    reference_antipode_sq,
    reference_basis_count,
    reference_product_monomials,
    unit,
    verschiebung,
    xi_monomials,
)
from steen.milnor import (
    DEGREE_CAP,
    Element,
    FreeMap,
    _expansion_table,
    _product_monomials,
    admissible_words,
    an,
    antipode,
    basis_count,
    basis_index,
    enumerate_basis,
    full_a,
    generator_matrix,
    milnor_basis,
    milnor_primitive,
    milnor_product,
    mono_degree,
    sq,
    sq_word,
    to_admissible,
)

# hand-checked products, frozen; keys are (R, S), values the monomial set
FROZEN_PRODUCTS = {
    ((1,), (1,)): set(),
    ((1,), (2,)): {(3,)},
    ((2,), (1,)): {(3,), (0, 1)},
    ((2,), (2,)): {(1, 1)},
    ((3,), (1,)): {(1, 1)},
    ((0, 1), (1,)): {(1, 1)},
    ((1,), (0, 1)): {(1, 1)},
    ((2,), (0, 1)): {(2, 1)},
    ((2,), (3,)): {(2, 1)},
    ((3,), (2,)): set(),
    ((3,), (3,)): {(3, 1)},
    ((4,), (1,)): {(5,), (2, 1)},
    ((5,), (1,)): {(3, 1)},
    ((1,), (3,)): set(),
    ((1,), (5,)): set(),
    ((2, 1), (1,)): {(3, 1)},
    ((1,), (2, 1)): {(3, 1)},
    ((1, 1), (1,)): set(),
    ((1, 1), (2,)): {(3, 1)},
    ((0, 1), (2,)): {(2, 1)},
    ((4,), (2,)): {(6,), (3, 1), (0, 2)},
    ((2,), (4,)): {(6,), (3, 1)},
    ((4,), (6,)): {(7, 1), (4, 2)},
}

# hand-checked antipodes of the squares
FROZEN_ANTIPODES = {
    1: {(1,)},
    2: {(2,)},
    3: {(3,), (0, 1)},
    4: {(4,), (1, 1)},
}


def monomials_up_to(limit: int) -> list[tuple[int, ...]]:
    out = []
    for d in range(limit + 1):
        out.extend(milnor_basis(d))
    return out


def test_frozen_products():
    for (r, s), expected in FROZEN_PRODUCTS.items():
        assert (sq(*r) * sq(*s)).monomials == frozenset(expected), (r, s)


def test_unit_laws():
    for m in monomials_up_to(9):
        el = Element([m])
        assert unit() * el == el
        assert el * unit() == el
    assert sq() == unit()
    assert sq(0) == unit()


def test_product_against_dual_pairing_oracle():
    monos = [m for m in monomials_up_to(10) if m]
    for r in monos:
        for s in monos:
            if mono_degree(r) + mono_degree(s) > 10:
                continue
            assert (sq(*r) * sq(*s)).monomials == oracle_product(r, s), (r, s)


def test_product_degree_additive():
    monos = [m for m in monomials_up_to(12) if m]
    for r in monos:
        for s in monos:
            d = mono_degree(r) + mono_degree(s)
            if d > 12:
                continue
            prod = sq(*r) * sq(*s)
            for t in prod.monomials:
                assert mono_degree(t) == d


def _one_row_pairs(algebra, top):
    """The (Sq(2^e), x) pairs generator_matrix multiplies for |x| <= top."""
    return [
        ((1 << e,), m)
        for e in algebra.generator_exponents(top)
        for d in range(top + 1)
        for m in enumerate_basis(algebra, d)
    ]


def test_pruned_kernel_matches_the_whole_matrix_enumerator():
    # the kernel itself, so the sweep leaves the product cache as it was
    kernel = _product_monomials.__wrapped__
    pairs = [
        (r, s)
        for r in monomials_up_to(24)
        for s in monomials_up_to(24 - mono_degree(r))
    ]
    for algebra in (an(1), an(2), an(3)):
        pairs += _one_row_pairs(algebra, algebra.top_degree)
    pairs += _one_row_pairs(an(4), 40)  # all of A(4) is the slow test below
    # the one-row case Sq(k) Sq(s), k >= 1 not only 2^e, with k + |s| <= 32
    pairs += [
        ((k,), s) for d in range(1, 32) for s in milnor_basis(d) for k in range(1, 33 - d)
    ]
    for r, s in pairs:
        assert kernel(r, s) == reference_product_monomials(r, s), (r, s)


@pytest.mark.slow
def test_pruned_kernel_matches_on_all_of_a4():
    kernel = _product_monomials.__wrapped__
    A4 = an(4)
    for r, s in _one_row_pairs(A4, A4.top_degree):
        assert kernel(r, s) == reference_product_monomials(r, s), (r, s)


@pytest.mark.parametrize(
    "algebra, top",
    [(FULL_A, 40)]
    + [(an(n), 64) for n in range(4)]
    + [pytest.param(algebra, 64, marks=pytest.mark.slow) for algebra in (FULL_A, an(4), an(5))],
    ids=str,
)
def test_generator_columns_match_the_whole_matrix_enumerator(algebra, top):
    # every column Sq(2^e) Sq(x) of generator_matrix with |x| + 2^e <= top
    for d in range(top):
        for e in algebra.generator_exponents(top - d):
            index = basis_index(algebra, d + (1 << e))
            columns = generator_matrix(algebra, e, d)
            for x, column in zip(enumerate_basis(algebra, d), columns):
                terms = reference_product_monomials((1 << e,), x)
                assert column == sum(1 << index[t] for t in terms), (algebra, e, x)


def test_generator_matrices_leave_the_product_cache_empty():
    """Each (Sq(2^e), x) pair is asked for once, so its matrix skips the cache."""
    _product_monomials.cache_clear()
    for d in range(40):
        for e in FULL_A.generator_exponents(40 - d):
            generator_matrix.__wrapped__(FULL_A, e, d)
    assert _product_monomials.cache_info().currsize == 0


def test_associativity_exhaustive_low_degrees():
    monos = [m for m in monomials_up_to(8) if m]
    for r in monos:
        for s in monos:
            for t in monos:
                if mono_degree(r) + mono_degree(s) + mono_degree(t) > 11:
                    continue
                a, b, c = sq(*r), sq(*s), sq(*t)
                assert (a * b) * c == a * (b * c)


def test_associativity_random_higher_degrees():
    rng = random.Random(11)
    monos = [m for m in monomials_up_to(15) if m]
    for _ in range(150):
        r, s, t = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        a, b, c = sq(*r), sq(*s), sq(*t)
        assert (a * b) * c == a * (b * c)


def test_noncommutativity_witness():
    assert sq(1) * sq(2) != sq(2) * sq(1)


def test_element_arithmetic_and_rendering():
    a = sq(3) + sq(0, 1)
    assert len(a) == 2
    assert a + a == Element()
    assert str(a) == "Sq(0,1) + Sq(3)"
    assert str(Element()) == "0"
    assert str(unit()) == "1"
    assert not Element()
    assert Element([(3,), (3,)]) == Element()  # duplicates fold mod 2
    with pytest.raises(ValueError):
        (sq(1) + sq(2)).degree
    assert sq(2, 1).degree == 5
    assert Element().degree is None


def test_coproduct_counts_and_degrees():
    for m in monomials_up_to(10):
        pairs = coproduct(m)
        expected = 1
        for r in m:
            expected *= r + 1
        assert len(pairs) == expected
        assert len(set(pairs)) == expected
        d = mono_degree(m)
        for left, right in pairs:
            assert mono_degree(left) + mono_degree(right) == d
        assert ((), m) in pairs and (m, ()) in pairs


def tensor_of(a: Element, b: Element) -> set:
    return {(x, y) for x in a.monomials for y in b.monomials}


def test_coproduct_multiplicative_spot_checks():
    monos = [m for m in monomials_up_to(6) if m]
    for r in monos:
        for s in monos:
            if mono_degree(r) + mono_degree(s) > 7:
                continue
            # psi(a b) computed from psi(a) psi(b), componentwise products
            lhs: set = set()
            for al, ar in coproduct(r):
                for bl, br in coproduct(s):
                    for left in (sq(*al) * sq(*bl)).monomials:
                        for right in (sq(*ar) * sq(*br)).monomials:
                            lhs ^= {(left, right)}
            rhs: set = set()
            for t in (sq(*r) * sq(*s)).monomials:
                for pair in coproduct(t):
                    rhs ^= {pair}
            assert lhs == rhs, (r, s)


def test_admissible_words_form_bases():
    for d in range(15):
        words = admissible_words(d)
        assert len(words) == len(milnor_basis(d))
        for w in words:
            assert sum(w) == d
            assert all(w[i] >= 2 * w[i + 1] for i in range(len(w) - 1))
            assert all(k > 0 for k in w)


def test_to_admissible_frozen_values():
    assert to_admissible(sq(0, 1)) == ((2, 1), (3,))
    assert to_admissible(sq(1, 1)) == ((3, 1),)
    assert to_admissible(sq(3)) == ((3,),)  # single squares are already admissible


def test_to_admissible_round_trip():
    for d in range(13):
        for w in admissible_words(d):
            assert to_admissible(sq_word(w)) == (w,)
        for m in milnor_basis(d):
            acc = Element()
            for w in to_admissible(Element([m])):
                acc = acc + sq_word(w)
            assert acc == Element([m])


def words_up_to(total: int, max_len: int) -> list[tuple[int, ...]]:
    out = []
    for length in range(1, max_len + 1):
        for w in iproduct(*(range(1, total + 1),) * length):
            if sum(w) <= total:
                out.append(w)
    return out


def test_to_admissible_against_adem_oracle():
    for w in words_up_to(9, 3) + words_up_to(7, 4):
        assert set(to_admissible(sq_word(w))) == set(adem_expand(w)), w


def test_frozen_antipodes():
    for k, expected in FROZEN_ANTIPODES.items():
        assert antipode(sq(k)).monomials == frozenset(expected)


def test_antipode_of_sq_is_the_sum_of_the_milnor_basis():
    # Milnor's closed form chi(Sq^n) = sum_{|R| = n} Sq(R), which antipode
    # and dualize rely on, against the product recurrence
    for n in range(33):
        assert antipode(sq(n)) == reference_antipode_sq(n), n


def test_antipode_involution():
    for m in monomials_up_to(16):
        el = Element([m])
        assert antipode(antipode(el)) == el


def test_antipode_against_dual_oracle():
    for m in monomials_up_to(11):
        assert antipode(Element([m])).monomials == oracle_antipode(m), m


def test_antipode_anti_homomorphism():
    monos = [m for m in monomials_up_to(8) if m]
    for r in monos:
        for s in monos:
            if mono_degree(r) + mono_degree(s) > 10:
                continue
            lhs = antipode(sq(*r) * sq(*s))
            rhs = antipode(sq(*s)) * antipode(sq(*r))
            assert lhs == rhs, (r, s)


def test_antipode_preserves_degree():
    for m in monomials_up_to(14):
        el = antipode(Element([m]))
        if el:
            assert el.degree == mono_degree(m)


# -- subalgebras ---------------------------------------------------------------


def test_a1_basis():
    degrees = {d: enumerate_basis(an(1), d) for d in range(8)}
    assert degrees[0] == ((),)
    assert degrees[1] == ((1,),)
    assert degrees[2] == ((2,),)
    assert set(degrees[3]) == {(3,), (0, 1)}
    assert degrees[4] == ((1, 1),)
    assert degrees[5] == ((2, 1),)
    assert degrees[6] == ((3, 1),)
    assert degrees[7] == ()


def test_an_dimension_formula():
    for n in range(4):
        total = sum(len(enumerate_basis(an(n), d)) for d in range(an(n).top_degree + 1))
        assert total == 1 << ((n + 1) * (n + 2) // 2)


def test_top_degree_is_the_sum_over_the_profile():
    # the top class of A(n) is Sq(2^(n+1) - 1, 2^n - 1, ..., 1)
    for n in range(41):
        profile = sum(((1 << (n + 2 - i)) - 1) * ((1 << i) - 1) for i in range(1, n + 2))
        assert an(n).top_degree == profile


def test_a_huge_subalgebra_agrees_with_a_in_low_degrees():
    # n is compared by bit lengths, never shifted by
    huge = an(99_999_999_999)
    for d in range(12):
        assert enumerate_basis(huge, d) == milnor_basis(d)
        assert basis_count(huge, d) == basis_count(FULL_A, d)
    assert huge.generator_exponents(100) == FULL_A.generator_exponents(100) == list(range(7))
    assert huge.contains((1 << 40, 1 << 39))
    assert an(2).sq_bound(100) == 7 and huge.sq_bound(100) == 100


def _profile_allows(n: int | None, i: int, r: int) -> bool:
    # Adams-Margolis: slot i of A(n) holds r < 2^(n+2-i), and only 0 past slot n+1
    return n is None or r == 0 or (i <= n + 1 and r < 2 ** (n + 2 - i))


def test_the_exponent_rule_matches_a_brute_force_profile():
    monomials = {d: xi_monomials(d) for d in range(32)}
    for algebra in (FULL_A, *map(an, range(7))):
        n = algebra.n
        slots = 5 if n is None else n + 3
        edges = {(1 << k) + delta for k in range(slots + 1) for delta in (-1, 0, 1)}
        for i in range(1, slots + 1):
            for d in sorted(set(range(40)) | edges):
                brute = max(r for r in range(d + 1) if _profile_allows(n, i, r))
                assert algebra.exponent_bound(i, d) == brute, (algebra, i, d)
                if i == 1:
                    assert algebra.sq_bound(d) == brute, (algebra, d)
                m = (0,) * (i - 1) + (d,) if d else ()
                assert algebra.contains(m) == _profile_allows(n, i, d), (algebra, m)
        for d, ms in monomials.items():
            inside = [m for m in ms if all(_profile_allows(n, i, r) for i, r in enumerate(m, 1))]
            assert all(algebra.contains(m) for m in inside)
            assert enumerate_basis(algebra, d) == tuple(sorted(inside)), (algebra, d)


def test_the_exponent_rule_never_shifts_by_a_huge_n():
    n = 10**11
    huge = an(n)
    assert huge.exponent_bound(1, 1 << 200) == huge.sq_bound(1 << 200) == 1 << 200
    assert huge.exponent_bound(n + 1, 5) == 1
    assert huge.exponent_bound(n + 2, 5) == huge.exponent_bound(n + 3, 1) == 0


def test_an_membership_matches_enumeration():
    for n in range(3):
        algebra = an(n)
        for d in range(algebra.top_degree + 2):
            expected = tuple(m for m in milnor_basis(d) if algebra.contains(m))
            assert enumerate_basis(algebra, d) == expected


def test_sq_k_membership():
    for n in range(4):
        algebra = an(n)
        for k in range(1, (1 << (n + 2)) + 1):
            assert algebra.contains((k,)) == (k < (1 << (n + 1)))


def test_profile_stability():
    # A(n) agrees with the whole algebra strictly below degree 2^(n+1)
    for n in range(3):
        for d in range(1 << (n + 1)):
            assert enumerate_basis(an(n), d) == milnor_basis(d)
        top = 1 << (n + 1)
        assert (top,) in milnor_basis(top)
        assert (top,) not in enumerate_basis(an(n), top)


def test_subalgebra_closed_under_product():
    for n in (1, 2):
        algebra = an(n)
        basis = [
            m
            for d in range(algebra.top_degree + 1)
            for m in enumerate_basis(algebra, d)
        ]
        for r in basis:
            for s in basis:
                prod = milnor_product(sq(*r), sq(*s))
                for t in prod.monomials:
                    assert algebra.contains(t), (r, s, t)


def test_a3_closure_low_degrees():
    algebra = an(3)
    basis = [m for d in range(25) for m in enumerate_basis(algebra, d)]
    for r in basis:
        for s in basis:
            if mono_degree(r) + mono_degree(s) > 24:
                continue
            for t in (sq(*r) * sq(*s)).monomials:
                assert algebra.contains(t), (r, s, t)


@pytest.mark.slow
def test_a3_closure_exhaustive():
    algebra = an(3)
    top = algebra.top_degree
    basis = [m for d in range(top + 1) for m in enumerate_basis(algebra, d)]
    assert len(basis) == 1 << 10
    for r in basis:
        for s in basis:
            prod = milnor_product(sq(*r), sq(*s))
            for t in prod.monomials:
                assert algebra.contains(t), (r, s, t)


# -- primitives and Verschiebung ------------------------------------------------


def test_milnor_primitives():
    assert milnor_primitive(0, 1) == (1,)
    assert milnor_primitive(0, 2) == (0, 1)
    assert milnor_primitive(1, 1) == (2,)
    assert milnor_primitive(1, 2) == (0, 2)
    for s in range(4):
        for t in range(1, 5):
            p = milnor_primitive(s, t)
            assert mono_degree(p) == (1 << s) * ((1 << t) - 1)
    with pytest.raises(ValueError):
        milnor_primitive(0, 0)


def test_verschiebung_on_squares_and_primitives():
    for k in (1, 2):
        for m in range(0, 17):
            image = verschiebung(k, sq(m))
            if m % (1 << k) == 0:
                assert image == sq(m >> k)
            else:
                assert not image
    for s in range(4):
        for t in range(1, 4):
            for k in range(4):
                image = verschiebung(k, Element([milnor_primitive(s, t)]))
                if s >= k:
                    assert image == Element([milnor_primitive(s - k, t)])
                else:
                    assert not image


def test_verschiebung_is_algebra_map():
    monos = [m for m in monomials_up_to(8) if m]
    for k in (1, 2):
        for r in monos:
            for s in monos:
                if mono_degree(r) + mono_degree(s) > 10:
                    continue
                lhs = verschiebung(k, sq(*r) * sq(*s))
                rhs = verschiebung(k, sq(*r)) * verschiebung(k, sq(*s))
                assert lhs == rhs, (k, r, s)


def test_verschiebung_composes():
    for m in monomials_up_to(12):
        el = Element([m])
        assert verschiebung(1, verschiebung(1, el)) == verschiebung(2, el)


# -- caps and expansion ----------------------------------------------------------


def test_degree_cap_failures():
    # products take any degree; only whole-algebra bases stop at the cap
    assert milnor_product(sq(40), sq(30)).degree == 70
    assert enumerate_basis(full_a(), DEGREE_CAP)
    with pytest.raises(ValueError, match="exceeds cap"):
        enumerate_basis(full_a(), DEGREE_CAP + 1)
    # A(n) is bounded by its top class instead
    assert enumerate_basis(an(2), 65) == ()


def _expansions(algebra, d):
    """The plan of degree d read back per monomial: its (e, i') terms."""
    products, size = _expansion_table(algebra, d)
    terms = [[] for _ in range(size)]
    for e, i, targets in products:
        assert targets, "a product that is a term of no expansion"
        for m in targets:
            terms[m].append((e, i))
    return terms


def test_expansion_table_reassembles():
    for algebra in (an(1), an(2), FULL_A):
        top = 12 if algebra.n is None else min(algebra.top_degree, 12)
        for d in range(1, top + 1):
            basis = enumerate_basis(algebra, d)
            expansions = _expansions(algebra, d)
            assert len(expansions) == len(basis)
            for m, terms in zip(basis, expansions):
                acc = Element()
                for e, i in terms:
                    rest = enumerate_basis(algebra, d - (1 << e))[i]
                    acc = acc + sq(1 << e) * sq(*rest)
                assert acc == Element([m]), (algebra.name, m)


def test_expansion_products_are_sorted_by_exponent():
    # so FreeMap.block meets each e in one run
    for algebra in (FULL_A, an(1), an(2), an(3), an(4)):
        for d in range(1, 25):
            products = [(e, i) for e, i, _ in _expansion_table(algebra, d)[0]]
            assert products == sorted(products), (algebra.name, d)


def test_free_map_fetches_each_matrix_once_per_block():
    for algebra in (FULL_A, an(2)):
        calls = []

        def matrix(e, u):
            calls.append((e, u))
            return generator_matrix(algebra, e, u)

        f = FreeMap(algebra, matrix)
        f.add(3, 1)
        for k in range(1, 21):
            calls.clear()  # the blocks below k are cached by now
            f.block(0, k)
            exponents = sorted({e for e, _, _ in _expansion_table(algebra, k)[0]})
            assert calls == [(e, 3 + k - (1 << e)) for e in exponents], (algebra.name, k)


def test_each_generator_is_its_own_expansion():
    # so a FreeMap reads Sq(2^e) straight off the matrix of Sq(2^e)
    for algebra in (an(1), an(2), an(3), an(4), FULL_A):
        for e in range(7):
            if not algebra.contains((1 << e,)):
                continue
            position = basis_index(algebra, 1 << e)[(1 << e,)]
            assert _expansions(algebra, 1 << e)[position] == [(e, 0)]


def test_free_map_on_the_unit_is_the_regular_representation():
    # g -> 1 in the algebra itself: the image of Sq(x) g is x
    for algebra in (an(1), an(2), FULL_A):
        f = FreeMap(algebra, lambda e, u: generator_matrix(algebra, e, u))
        f.add(0, 1)
        top = 14 if algebra.n is None else algebra.top_degree
        for d in range(top + 1):
            size = len(enumerate_basis(algebra, d))
            assert f.block(0, d) == [1 << i for i in range(size)], (algebra.name, d)
        assert f.columns(top) == f.block(0, top)


def test_basis_index_follows_enumerate_basis():
    for algebra in (an(2), FULL_A):
        for d in range(20):
            index = basis_index(algebra, d)
            assert list(index) == list(enumerate_basis(algebra, d))
            assert list(index.values()) == list(range(len(index)))
    with pytest.raises(ValueError, match="exceeds cap"):
        basis_index(FULL_A, DEGREE_CAP + 1)


def test_basis_enumeration_is_lex_sorted():
    for d in range(12):
        basis = milnor_basis(d)
        assert list(basis) == sorted(basis)
        assert len(set(basis)) == len(basis)
        for m in basis:
            assert mono_degree(m) == d
            assert not m or m[-1] != 0


def test_basis_count_matches_the_enumerated_basis():
    for algebra in [FULL_A] + [an(n) for n in range(7)]:
        for d in range(-2, DEGREE_CAP + 1):
            assert basis_count(algebra, d) == len(enumerate_basis(algebra, d)), (algebra, d)


def test_basis_count_matches_the_sliding_window_far_out():
    # the obstruction gate asks for degrees below 2^12 (the alpha degrees of
    # n = 12); the samples also straddle each 2^b - 1 where the cached series
    # ends, and pass 4096, where the profile of A(11) first drops Sq(4096)
    alpha_degrees = {
        (1 << 12) - (1 << i) - (1 << j) + 1
        for i in range(12)
        for j in range(i, 12)
        if j != i + 1
    }
    ends = {(1 << b) + delta for b in range(1, 13) for delta in (-1, 0)}
    degrees = sorted(set(range(0, 4201, 105)) | alpha_degrees | ends)
    for algebra in (FULL_A, an(11), an(12)):
        for d in degrees:
            assert basis_count(algebra, d) == reference_basis_count(algebra, d), (algebra, d)


def test_basis_count_tells_a_from_a_subalgebra():
    # degree 4: Sq(4) and Sq(1,1) in A, but Sq(4) is outside A(1)
    assert basis_count(full_a(), 4) == 2
    assert basis_count(an(1), 4) == 1
    assert basis_count(an(1), an(1).top_degree) == 1
    assert basis_count(an(1), an(1).top_degree + 1) == 0
