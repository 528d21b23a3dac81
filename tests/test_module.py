"""Module layer: quotients, doubling, duals, tensors, Hom and isomorphisms."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_pairs_associativity,
    commutes_with,
    is_isomorphism,
    reference_cyclic_quotient,
    reference_dualize,
    reference_isomorphism,
    reference_problems,
    reference_resolution,
    reference_tables,
    reference_terms,
    stage_terms,
)
from steen import milnor, module
from steen.catalogue import MODULE_NAMES, get_module
from steen.milnor import (
    Element,
    an,
    enumerate_basis,
    full_a,
    milnor_product,
    mono_degree,
    sq,
)
from steen.modfile import parse, serialize
from steen.module import (
    DOUBLING_MAX,
    FiniteModule,
    coaction,
    cyclic_quotient,
    double,
    dualize,
    extension_enumerate,
    find_isomorphism,
    hom_basis,
    is_id,
    restrict,
    shift,
    tensor,
    trivial_module,
)
from steen.resolution import minimal_resolution

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


@pytest.mark.parametrize("n", [1, 2])
def test_regular_representation_acts_by_the_product(n):
    # A(n) with no relations is A(n) acting on itself, so every basis monomial
    # x acts on every basis monomial y as the Milnor product x * y
    algebra = an(n)
    top = algebra.top_degree
    Q = cyclic_quotient(algebra, [], f"a{n}")
    monomials = [m for d in range(top + 1) for m in enumerate_basis(algebra, d)]
    pos = {m: i for i, m in enumerate(monomials)}
    pairs = 0
    for x in monomials:
        for y in monomials:
            if mono_degree(x) + mono_degree(y) > top:
                continue
            expected = sum(1 << pos[m] for m in milnor_product(sq(*x), sq(*y)).monomials)
            assert Q.act_mono(x, 1 << pos[y]) == expected, (x, y)
            pairs += 1
    assert pairs == {1: 37, 2: 2154}[n]


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


@pytest.mark.parametrize(
    "algebra, relations",
    [
        pytest.param(an(3), [], id="A(3)"),  # 30 classes in degree 36
        # up to 45 classes in one degree, about 7 s
        pytest.param(an(4), [sq(1), sq(4)], id="A(4)/(Sq1,Sq4)", marks=pytest.mark.slow),
    ],
)
def test_cyclic_quotient_names_every_class_in_ascii(algebra, relations):
    # a degree's classes are x<d>, x<d>a ... x<d>z, then x<d>_27, x<d>_28, ...
    Q = cyclic_quotient(algebra, relations, "q")
    assert len(set(Q.gens)) == Q.dim
    assert any("_" in g for g in Q.gens)
    for g, d in zip(Q.gens, Q.degrees):
        assert is_id(g) and g.isascii(), g
        assert re.fullmatch(rf"x{d}([a-z]|_[0-9]+)?", g), g


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


@pytest.mark.parametrize("n", [2, 3])
def test_cyclic_quotient_stops_once_the_ideal_fills_2n_degrees(monkeypatch, n):
    # the ideal is built only until it is everything in 2^n consecutive
    # degrees, not up to the top of A(n) (23 for A(2), 72 for A(3))
    targets: list[int] = []
    expansions: list[int] = []
    matrix, table = milnor.generator_matrix, milnor._expansion_table

    def spy_matrix(algebra, e, d):
        targets.append(d + (1 << e))
        return matrix(algebra, e, d)

    def spy_table(algebra, d):
        expansions.append(d)
        return table(algebra, d)

    monkeypatch.setattr(milnor, "generator_matrix", spy_matrix)
    monkeypatch.setattr(module, "generator_matrix", spy_matrix)
    monkeypatch.setattr(milnor, "_expansion_table", spy_table)
    cases = [case for case in PRESENTATIONS if case.startswith(f"joker({n})")]
    assert len(cases) == 2
    for case in cases:
        algebra, relations = PRESENTATIONS[case]
        targets.clear()
        expansions.clear()
        span = max(cyclic_quotient(algebra, relations, case).degrees)
        assert targets and max(targets) <= span + (1 << n), case
        assert expansions and max(expansions) <= span + (1 << n) - 1, case
    if n == 3:
        assert span + (1 << n) == 24


@st.composite
def presentations(draw, algebras=st.sampled_from([A1, A2])):
    algebra = draw(algebras)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, algebra.top_degree))
        basis = enumerate_basis(algebra, d)
        picks = draw(st.sets(st.sampled_from(basis), min_size=1))
        relations.append(Element(picks))
    return algebra, relations


@settings(max_examples=25, deadline=None)
@given(presentations())
def test_random_cyclic_quotients_match_the_product_route(presentation):
    algebra, relations = presentation
    Q = cyclic_quotient(algebra, relations, "q")
    assert serialize(Q) == serialize(reference_cyclic_quotient(algebra, relations, "q"))


@st.composite
def presentation_pairs(draw):
    algebra, relations = draw(presentations())
    return (algebra, relations), draw(presentations(st.just(algebra)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(presentation_pairs())
def test_random_doubles_duals_and_tensors_agree_across_routes(pair):
    (algebra, m_relations), (_, n_relations) = pair
    M = cyclic_quotient(algebra, m_relations, "M")
    N = cyclic_quotient(algebra, n_relations, "N")
    M2 = double(M, 1)
    # the dual through the base against the antipode acting on M2's own blocks
    if M2.span <= 16:
        assert serialize(dualize(M2)) == serialize(reference_dualize(M2))
    # the dual twice against the identity
    assert find_isomorphism(dualize(dualize(M)), M) is not None
    # doubling the tensor against tensoring the doubles
    if M.dim * N.dim <= 100:
        assert find_isomorphism(double(tensor(M, N), 1), tensor(M2, double(N, 1))) is not None


@settings(max_examples=25, deadline=None, derandomize=True)
@given(presentation_pairs())
def test_random_duals_homs_and_resolutions_agree_across_routes(pair):
    (algebra, m_relations), (_, n_relations) = pair
    M = cyclic_quotient(algebra, m_relations, "M")
    N = cyclic_quotient(algebra, n_relations, "N")
    # dualizing the tensor against tensoring the duals
    if M.dim * N.dim <= 100:
        assert find_isomorphism(dualize(tensor(M, N)), tensor(dualize(M), dualize(N))) is not None
    # Hom(M, N) against Hom(D(N), D(M)): f -> D(f) is a bijection
    assert len(hom_basis(M, N)) == len(hom_basis(dualize(N), dualize(M)))
    # the Sq(2^e) recurrence resolver against general Milnor products
    t_max = M.top + 8
    R = minimal_resolution(algebra, M, 3, t_max)
    ref = reference_resolution(algebra, M, 3, t_max)
    assert (R.degrees, R.values) == (ref.degrees, ref.values)
    assert stage_terms(R) == reference_terms(ref)


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


def test_double_refuses_k_past_its_bound():
    J = joker()
    top = double(J, DOUBLING_MAX)
    assert top.degrees == tuple(d << DOUBLING_MAX for d in J.degrees)
    assert str(max(top.degrees))  # still converts to text
    for k in (DOUBLING_MAX + 1, 99999999999):
        with pytest.raises(ValueError, match=f"at most {DOUBLING_MAX}$"):
            double(J, k)


def test_tensor_names_classes_by_position_when_ids_collide():
    left = FiniteModule("l", an(1), ("a", "ab"), (0, 1), {1: (2, 0)})
    right = FiniteModule("r", an(1), ("bc", "c"), (0, 2), {2: (2, 0)})
    T = tensor(left, right)  # a.bc and ab.c would both be abc
    assert T.gens == ("x0_0", "x0_1", "x1_0", "x1_1")
    assert T.validate() == []
    assert serialize(parse(serialize(T))) == serialize(T)
    # distinct concatenations keep their ids
    assert tensor(right, left).gens == ("bca", "bcab", "ca", "cab")


def test_double_composes():
    W = question_mark()
    once_twice = double(double(W, 1), 1)
    at_once = double(W, 2)
    assert once_twice.algebra == at_once.algebra == an(3)
    assert once_twice.degrees == at_once.degrees == (0, 4, 12)
    assert find_isomorphism(once_twice, at_once) is not None


def test_shift_keeps_a_double():
    S = shift(double(question_mark(), 1), 5)
    assert S.doubling == 1
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
    assert via_base.doubling == 1
    # the reference dualizes a double of small span by its own A(2) blocks
    direct = reference_dualize(restrict(double(W, 1), A2))
    assert find_isomorphism(restrict(via_base, A2), direct) is not None


def test_restrict_guards_upward():
    with pytest.raises(ValueError):
        restrict(joker(), A2)
    J2 = double(joker(), 1)
    R = restrict(J2, A2)
    assert R.doubling == 1
    assert R.tables == J2.tables == reference_tables(R)
    assert R.validate() == []


def test_restrict_refuses_a_larger_algebra():
    with pytest.raises(ValueError) as exc:
        restrict(joker(), A2)
    assert str(exc.value) == "joker is not a module over A(2)"


def test_catalogue_doubles_act_as_their_own_blocks():
    # the base route against the module's own blocks, where those are cheap
    for name in MODULE_NAMES:
        M = get_module(name)
        if M.doubling and M.span <= 16:
            assert M.tables == reference_tables(M), name


def test_a_double_acts_only_by_its_own_algebra():
    J2 = get_module("joker(2)")
    assert J2.act_mono((4,), 1) == 1 << 2
    with pytest.raises(ValueError, match=r"is not in A\(2\); cannot act on joker\(2\)"):
        J2.act_mono((8,), 1)


def test_a_double_over_a_wider_than_the_degree_cap_is_measured_by_its_base():
    # the basis budget reads the base's span, 4 here, over A as over A(n)
    J0 = get_module("joker0")
    D = double(J0, 5)
    assert D.span == 128
    assert D.validate() == []
    assert D.tables == {k << 5: table for k, table in J0.tables.items()}


def test_double_carries_composite_claims():
    W = question_mark()
    tables = {**W.generator_tables, 3: (1 << 2, 0, 0)}  # Sq^3 x0 = x3 is false
    false = FiniteModule("w", W.algebra, W.gens, W.degrees, tables)
    assert false.validate()
    assert double(false, 1).validate()


def test_deep_doubles_act_through_an_a1_base(monkeypatch):
    # a double read from a file or made by tensor is recognised from its
    # degrees, so validating it and deriving its tables expand over A(1) only
    expansion = milnor._expansion_table

    def only_a1(algebra, d):
        assert algebra == A1, f"expansion over {algebra.name} in degree {d}"
        return expansion(algebra, d)

    monkeypatch.setattr(milnor, "_expansion_table", only_a1)
    fixtures = Path(__file__).parent / "fixtures"
    assert parse((fixtures / "joker_8_.mod").read_text()).validate() == []
    # an invalid double is checked on its base too, in its own operations
    text = (fixtures / "joker_6_.mod").read_text().replace("sq 64 x0 = x2\n", "")
    assert parse(text).validate() == [
        "joker(6): (Sq^64*Sq(64))x0 = ['x4'] but acting in two steps gives []"
    ]
    J, J6 = joker(), get_module("joker(6)")
    assert tensor(J6, J6).tables == {j << 5: t for j, t in tensor(J, J).tables.items()}


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


def test_extension_refuses_a_smaller_algebra():
    with pytest.raises(ValueError) as exc:
        extension_enumerate(joker(), an(0))
    assert str(exc.value) == "A(0) does not contain A(1)"


def test_extension_search_past_the_limit_is_refused():
    # joker (x) joker -> A has 36 free table bits: 2^36 patterns to validate
    J = joker()
    with pytest.raises(ValueError) as exc:
        extension_enumerate(tensor(J, J), full_a())
    assert str(exc.value) == (
        "extensions of joker(x)joker to A: 68719476736 table patterns "
        f"exceed the search limit {module.SEARCH_LIMIT}"
    )


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
    """M rebuilt from its Sq(2^e) tables alone, so validate checks its action.

    A double stays one and is checked through its base.
    """
    tables = M.generator_tables if tables is None else tables
    return FiniteModule(name or M.name, M.algebra, M.gens, M.degrees, tables)


def _flipped(M):
    """M with one bit of one Sq(2^e) table flipped, for each admissible bit."""
    tables = M.generator_tables
    for k in (1 << e for e in M.algebra.generator_exponents(M.span)):
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


def test_validate_names_a_doubles_own_operations():
    # the base route's problems, written back in the module's own operations,
    # against the same checks run on the module's own blocks
    modules = [get_module(name) for name in MODULE_NAMES]
    modules = [M for M in modules if M.span <= 16]
    bases = ("joker", "jokerP", "jokerPP1", "w1", "w4", "a1")
    modules += [double(get_module(name), k) for name in bases for k in (1, 2)]
    mutants = [N for M in modules for N in _flipped(M)]
    invalid = 0
    for M in mutants:
        problems = M.validate()
        assert problems == reference_problems(M), M.name
        invalid += problems != []
    assert (len(mutants), invalid) == (239, 201)
