"""Module layer: quotients, doubling, duals, tensors, Hom and isomorphisms."""

from __future__ import annotations

import pytest

from oracles import (
    all_pairs_associativity,
    commutes_with,
    is_isomorphism,
    reference_cyclic_quotient,
    reference_dualize,
    reference_isomorphism,
)
from steen import module
from steen.catalogue import MODULE_NAMES, get_module
from steen.milnor import an, full_a, sq
from steen.modfile import serialize
from steen.module import (
    FiniteModule,
    coaction,
    cyclic_quotient,
    double,
    dualize,
    extension_enumerate,
    find_isomorphism,
    hom_basis,
    restrict,
    shift,
    tensor,
    trivial_module,
)

A1 = an(1)
A2 = an(2)


def joker():
    return cyclic_quotient(A1, [sq(3)], "joker")


def question_mark():
    return cyclic_quotient(A1, [sq(2)], "w1")


def test_cyclic_quotient_joker_shape():
    J = joker()
    assert J.gens == ("x0", "x1", "x2", "x3", "x4")
    assert J.degrees == (0, 1, 2, 3, 4)
    # hand tables: Sq1 is x0->x1, x3->x4; Sq2 is x0->x2, x1->x3, x2->x4
    assert J.table(1) == (2, 0, 0, 16, 0)
    assert J.table(2) == (4, 8, 16, 0, 0)
    assert J.table(3) == (0, 16, 0, 0, 0)
    assert set(J.tables) == {1, 2, 3}
    assert J.validate() == []
    assert J.validated


def test_cyclic_quotient_full_a1():
    M = cyclic_quotient(A1, [], "a1")
    assert M.dim == 8
    assert M.dims() == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}
    assert M.gens == ("x0", "x1", "x2", "x3", "x3a", "x4", "x5", "x6")
    assert M.validate() == []


def test_cyclic_quotient_question_mark():
    W = question_mark()
    assert W.dims() == {0: 1, 1: 1, 3: 1}
    assert W.table(1) == (2, 0, 0)
    assert W.table(2) == (0, 4, 0)
    assert set(W.tables) == {1, 2}
    assert W.validate() == []


def test_cyclic_quotient_point():
    W = cyclic_quotient(A1, [sq(1), sq(2)], "w0")
    assert W.dims() == {0: 1}
    assert W.tables == {}
    assert W.validate() == []


# every cyclic presentation the catalogue and the ledger build, and the
# subalgebras themselves
PRESENTATIONS = {
    "joker": (A1, [sq(3)]),
    "jokerP": (A1, [sq(2, 1)]),
    "w0": (A1, [sq(1), sq(2)]),
    "w1": (A1, [sq(2)]),
    "joker(2) 4 relations": (A2, [sq(1), sq(0, 1), sq(0, 0, 1), sq(6)]),
    "joker(2) 3 relations": (A2, [sq(1), sq(0, 1), sq(6)]),
    "joker2P1": (A2, [sq(1), sq(0, 1), sq(0, 0, 1), sq(4) * sq(6)]),
    "joker(3) 6 relations": (an(3), [sq(1), sq(0, 1), sq(0, 0, 1), sq(2), sq(0, 2), sq(12)]),
    "joker(3) 4 relations": (an(3), [sq(1), sq(2), sq(0, 2), sq(12)]),
    "A(0)": (an(0), []),
    "A(1)": (A1, []),
    "A(2)": (A2, []),
}


@pytest.mark.parametrize("case", sorted(PRESENTATIONS))
def test_cyclic_quotient_matches_the_product_route(case):
    algebra, relations = PRESENTATIONS[case]
    Q = cyclic_quotient(algebra, relations, case)
    assert serialize(Q) == serialize(reference_cyclic_quotient(algebra, relations, case))


def test_dualize_matches_the_antipode_route():
    modules = [get_module(name) for name in MODULE_NAMES]
    modules += extension_enumerate(get_module("a1"), full_a())
    for M in modules:
        assert serialize(dualize(M)) == serialize(reference_dualize(M)), M.name


def test_validate_flags_broken_action():
    # drop Sq2 x1 -> x3 from the joker: Sq2 Sq2 no longer matches Sq(1,1)
    J = joker()
    broken = FiniteModule(
        "broken",
        A1,
        J.gens,
        J.degrees,
        {1: (2, 0, 0, 16, 0), 2: (4, 0, 16, 0, 0), 3: (0, 16, 0, 0, 0)},
    )
    assert broken.validate() != []
    assert not broken.validated


def test_constructor_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        FiniteModule("bad", A1, ("a", "b"), (0, 2), {1: (2, 0)})


def test_constructor_rejects_foreign_square():
    with pytest.raises(ValueError):
        FiniteModule("bad", A1, ("a", "b"), (0, 4), {4: (2, 0)})


def test_action_routes_and_degree_guard():
    J = joker()
    assert J.act_mono((1,), 1) == 2
    assert J.act_mono((0, 1), 1) == 8  # Sq(0,1) x0 = x3 via expansion
    assert J.act_mono((0, 1), 4) == 0  # degree 2+3 lands above the top
    assert J.act(sq(1) + sq(2), 1) == 6
    assert J.act_mono((), 21) == 21
    assert J.act_mono((0, 0, 1), 1) == 0  # above the top: silenced by degree
    with pytest.raises(ValueError):
        J.act_mono((4,), 1)  # within the span but outside A(1)


def test_double_joker():
    J2 = double(joker(), 1, "joker(2)")
    assert J2.algebra == A2
    assert J2.degrees == (0, 2, 4, 6, 8)
    assert set(J2.tables) == {2, 4, 6}
    assert J2.validate() == []
    assert J2.act_mono((2,), 1) == 2  # Sq2 acts as the base Sq1
    assert J2.act_mono((1,), 1) == 0
    assert J2.act_mono((4,), 1) == 4
    # outside A(2) the Verschiebung route needs a base action that A(1) lacks
    with pytest.raises(ValueError):
        J2.act_mono((8,), 1)


def test_double_composes():
    W = question_mark()
    once_twice = double(double(W, 1), 1)
    at_once = double(W, 2)
    assert once_twice.algebra == at_once.algebra == an(3)
    assert once_twice.degrees == at_once.degrees == (0, 4, 12)
    assert find_isomorphism(once_twice, at_once) is not None


def test_shift_materializes():
    S = shift(double(question_mark(), 1), 5)
    assert S.vsource is None
    assert S.degrees == (5, 7, 11)
    assert S.validate() == []


def test_dualize_question_mark():
    W = question_mark()
    D = dualize(W)
    assert D.gens == ("x0'", "x1'", "x3'")
    assert D.degrees == (0, -1, -3)
    assert D.table(1) == (0, 1, 0)
    assert D.table(2) == (0, 0, 2)
    assert D.validate() == []
    assert find_isomorphism(dualize(D), W) is not None


def test_dualize_commutes_with_double():
    W = question_mark()
    via_base = dualize(double(W, 1))
    assert via_base.vsource is not None
    direct = dualize(restrict(double(W, 1), A2))
    assert find_isomorphism(restrict(via_base, A2), direct) is not None


def test_restrict_guards_upward():
    with pytest.raises(ValueError):
        restrict(joker(), A2)
    J2 = double(joker(), 1)
    R = restrict(J2, A2)
    assert R.vsource is None
    assert R.tables == J2.tables
    assert R.validate() == []


def test_tensor_unit_and_cartan():
    J = joker()
    unit = trivial_module(A1, "w0")
    T = tensor(unit, J)
    assert T.dims() == J.dims()
    assert find_isomorphism(T, J) is not None
    W = question_mark()
    X = tensor(W, W)
    # Sq2(x1 (x) x1) = x3 (x) x1 + x1 (x) x3 by the Cartan rule
    assert X.gens[4] == "x1x1"
    assert X.table(2)[4] == (1 << 7) | (1 << 5)
    assert X.validate() == []
    assert find_isomorphism(tensor(J, W), tensor(W, J)) is not None


def test_coaction_lists_all_hits():
    W = question_mark()
    assert coaction(W, 2) == [((0, 1), 0), ((2,), 1), ((), 2)]
    assert coaction(W, 0) == [((), 0)]


def test_generator_tables_derive_composites():
    J = joker()
    rebuilt = FiniteModule(
        "again", A1, J.gens, J.degrees, {1: J.table(1), 2: J.table(2)}
    )
    assert rebuilt.tables == J.tables
    assert rebuilt.validate() == []


def test_extension_counts():
    exts = extension_enumerate(joker(), A2)
    assert len(exts) == 2
    patterns = sorted(ext.table(4)[0] for ext in exts)
    assert patterns == [0, 16]  # Sq4 x0 is either 0 or the top class
    a1 = cyclic_quotient(A1, [], "a1")
    assert len(extension_enumerate(a1, A2)) == 4


def test_extension_to_full_algebra():
    exts = extension_enumerate(joker(), full_a())
    assert len(exts) == 2
    for ext in exts:
        assert ext.algebra == full_a()
        assert ext.validate() == []


def test_find_isomorphism_deterministic_identity():
    J = joker()
    clone = FiniteModule(
        "clone", A1, ("a", "b", "c", "d", "e"), (0, 1, 2, 3, 4),
        {1: J.table(1), 2: J.table(2)},
    )
    found = find_isomorphism(J, clone)
    assert found is not None
    assert found.rows == (1, 2, 4, 8, 16)
    assert is_isomorphism(found)
    for k in (1, 2):
        assert commutes_with(found, k)


def test_find_isomorphism_rejects():
    J = joker()
    assert find_isomorphism(J, shift(J, 1)) is None
    with pytest.raises(ValueError):
        find_isomorphism(J, double(J, 1))
    exts = extension_enumerate(joker(), A2)
    assert find_isomorphism(exts[0], exts[1]) is None


def test_find_isomorphism_agrees_with_the_brute_force_search():
    a1 = cyclic_quotient(A1, [], "a1")
    modules = [get_module(name) for name in MODULE_NAMES]
    modules += extension_enumerate(a1, full_a())
    modules += [
        shift(dualize(get_module(name)), span)
        for name, span in (("joker0", 4), ("joker(2)0", 8), ("joker(3)0", 16))
    ]
    pairs = 0
    for M in modules:
        for N in modules:
            if M.algebra != N.algebra or M.dims() != N.dims():
                continue
            pairs += 1
            found = find_isomorphism(M, N)
            assert (found is None) == (reference_isomorphism(M, N) is None), (M, N)
            if found is not None:
                assert is_isomorphism(found)
                assert all(commutes_with(found, 1 << e) for e in range(M.span.bit_length()))
    assert pairs > len(modules)


def test_find_isomorphism_past_five_classes_in_a_degree():
    T = tensor(get_module("joker"), get_module("w2"))
    assert max(T.dims().values()) == 5
    assert find_isomorphism(T, T) is not None
    a1 = cyclic_quotient(A1, [], "a1")
    assert find_isomorphism(tensor(a1, a1), tensor(a1, a1)) is not None


def test_hom_basis_of_the_joker():
    J = joker()
    assert len(hom_basis(J, J)) == 1
    maps = hom_basis(J, J) + hom_basis(question_mark(), J) + hom_basis(J, shift(J, 2))
    maps += hom_basis(cyclic_quotient(A1, [], "a1"), J)
    assert len(maps) > 1
    for f in maps:
        assert commutes_with(f, 1) and commutes_with(f, 2)


def test_find_isomorphism_search_limit(monkeypatch):
    a1 = cyclic_quotient(A1, [], "a1")
    T = tensor(a1, a1)
    monkeypatch.setattr(module, "SEARCH_LIMIT", 4)
    with pytest.raises(ValueError, match="passed 4 tried sums") as exc:
        find_isomorphism(T, shift(T, 0, "copy"))
    message = str(exc.value)
    assert "\n" not in message
    assert f"{T.name} -> copy" in message


def _plain(M, name=None, tables=None):
    """M rebuilt from its Sq(2^e) tables alone, so validate checks its action."""
    tables = M.generator_tables if tables is None else tables
    return FiniteModule(name or M.name, M.algebra, M.gens, M.degrees, tables)


def _flipped(M):
    """M with one bit of one Sq(2^e) table flipped, for each admissible bit."""
    tables = M.generator_tables
    for k in module._generator_ks(M.algebra, M.span):
        for i in range(M.dim):
            for j in M.basis_at(M.degrees[i] + k):
                rows = list(tables.get(k, (0,) * M.dim))
                rows[i] ^= 1 << j
                yield _plain(M, f"{M.name}^{k}:{i}>{j}", {**tables, k: tuple(rows)})


def test_generator_check_agrees_with_all_pairs():
    # the all-pairs oracle takes seconds at span 32 and far longer past it,
    # so joker(4) .. joker(8) are left out
    a1 = cyclic_quotient(A1, [], "a1")
    modules = [get_module(name) for name in MODULE_NAMES]
    modules = [M for M in modules if M.span <= 16]
    modules += extension_enumerate(a1, full_a())
    modules = [_plain(M) for M in modules]
    modules += [N for M in modules for N in _flipped(M)]
    verdicts = []
    for M in modules:
        valid = M.validate() == []
        assert valid == (all_pairs_associativity(M) == []), M.name
        verdicts.append(valid)
    assert verdicts.count(True) >= 23 and verdicts.count(False) >= 100
