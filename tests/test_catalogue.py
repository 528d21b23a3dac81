"""Tests for the built-in module catalogue."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from steen import catalogue
from steen.catalogue import MODULE_NAMES, _parse_tower, get_module, tower_name, verify_catalogue
from steen.milnor import an, antipode, sq, sq_word
from steen.modfile import parse, serialize
from steen.module import coaction, dualize, find_isomorphism, restrict, shift
from steen.dual import poly_mul, poly_pow, zeta_in_xi

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / (name.replace("(", "_").replace(")", "_") + ".mod")


def degree_counts(M) -> dict[int, int]:
    return dict(Counter(M.degrees))


def test_catalogue_names_are_stable():
    assert len(MODULE_NAMES) == 24
    assert MODULE_NAMES[0] == "joker"
    assert "joker(8)" in MODULE_NAMES
    assert "a1" in MODULE_NAMES


def test_every_entry_verifies():
    report = verify_catalogue()
    assert [name for name, status in report if status != "ok"] == []


def _flagged(monkeypatch, picture, drawing) -> dict[str, str]:
    monkeypatch.setitem(catalogue._PICTURES, picture, drawing)
    return {name: status for name, status in verify_catalogue() if status != "ok"}


# jokerP draws jokerP, jokerP1 (with the Sq^4 row) and joker2P1 (doubled).
@pytest.mark.parametrize(
    "sq1, flagged",
    [
        # Sq^1 from x0 onto x2, two degrees up: the constructor refuses it
        (
            (4, 0, 16, 32, 0, 0),
            {
                "jokerP": "jokerP: Sq^1 x0 hits x2 of wrong degree",
                "jokerP1": "jokerP1: Sq^1 x0 hits x2 of wrong degree",
                "joker2P1": "joker2P1: Sq^2 x0 hits x2 of wrong degree",
            },
        ),
        # Sq^1 x1 = x2 too, so Sq^1 Sq^1 x0 = x2: validate refuses it
        (
            (2, 4, 16, 32, 0, 0),
            {
                name: f"diagram: {name}: (Sq^{k}*Sq({k}))x0 = [] "
                "but acting in two steps gives ['x2']"
                for name, k in (("jokerP", 1), ("jokerP1", 1), ("joker2P1", 2))
            },
        ),
    ],
)
def test_a_broken_picture_flags_the_entries_drawn_from_it(monkeypatch, sq1, flagged):
    ids, _, sq2 = catalogue._PICTURES["jokerP"]
    assert _flagged(monkeypatch, "jokerP", (ids, sq1, sq2)) == flagged


def test_a_picture_that_draws_another_module_is_caught(monkeypatch):
    jokerPP1 = catalogue._PICTURES["jokerPP1"]
    # drop the whisker's Sq^1 from y1 onto x2
    drawing = (jokerPP1[0], (2, 0, 0, 0, 32, 0), jokerPP1[2])
    assert _flagged(monkeypatch, "jokerPP1", drawing) == {
        "jokerPP1": "construction does not match the transcribed diagram",
        "joker2PP1": "construction does not match the transcribed diagram",
    }


def test_a_broken_joker_picture_flags_w2_as_a_diagram(monkeypatch):
    # w2 is built from its relation, so a bad picture breaks the diagram that
    # checks it, as for joker and its towers, and not the entry itself
    ids, _, sq2 = catalogue._PICTURES["joker"]
    get_module.cache_clear()
    try:
        flagged = _flagged(monkeypatch, "joker", (ids, (2, 0, 0, 0, 0), sq2))  # no Sq^1 x3
    finally:
        get_module.cache_clear()
    drawn = {tower_name(n, eps) for n in (1, 2, 3) for eps in ("", "0", "1")}
    assert set(flagged) == drawn | {"w2"}
    for name in ("joker", "w2"):
        assert flagged[name] == (
            f"diagram: {name}: (Sq^2*Sq(2))x0 = [] but acting in two steps gives ['x4']"
        )


def test_unknown_name_is_rejected():
    with pytest.raises(KeyError):
        get_module("jokers")


def test_tower_names_round_trip():
    towers = [name for name in MODULE_NAMES if _parse_tower(name) is not None]
    assert len(towers) == 14
    assert [tower_name(*_parse_tower(name)) for name in towers] == towers
    assert [name for name in MODULE_NAMES if name not in towers] == [
        "jokerP", "jokerP1", "jokerPP1", "joker2P1", "joker2PP1", "w0", "w1", "w2", "w4", "a1"
    ]


@pytest.mark.parametrize("name", ["joker(1)", "joker(02)", "joker(0)", "joker(x)", "joker(2)2"])
def test_non_canonical_tower_names_are_unknown(name):
    assert _parse_tower(name) is None
    with pytest.raises(KeyError, match="unknown catalogue module"):
        get_module(name)


def test_an_unlisted_canonical_tower_still_builds():
    M = get_module("joker(12)")
    assert "joker(12)" not in MODULE_NAMES
    assert (M.name, M.algebra, M.doubling) == ("joker(12)", an(12), 11)
    assert M.degrees == tuple(d << 11 for d in range(5))


def test_basic_shapes():
    assert degree_counts(get_module("joker")) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert degree_counts(get_module("joker(2)")) == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}
    assert degree_counts(get_module("joker(3)")) == {0: 1, 4: 1, 8: 1, 12: 1, 16: 1}
    assert degree_counts(get_module("jokerP")) == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1}
    assert degree_counts(get_module("jokerPP1")) == {0: 1, 1: 2, 2: 1, 3: 1, 4: 1}
    assert degree_counts(get_module("joker2P1")) == {0: 1, 2: 1, 4: 1, 6: 2, 8: 1}
    assert degree_counts(get_module("joker2PP1")) == {0: 1, 2: 2, 4: 1, 6: 1, 8: 1}
    assert get_module("w0").dim == 1
    assert get_module("w1").degrees == (0, 1, 3)
    assert sorted(get_module("w4").degrees) == [0, 2, 3]
    assert get_module("a1").dim == 8
    assert degree_counts(get_module("a1")) == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}


def test_algebras():
    assert get_module("joker").algebra.n == 1
    assert get_module("joker(3)").algebra.n == 3
    assert get_module("joker0").algebra.n is None
    assert get_module("joker(2)1").algebra.n is None
    assert get_module("a1").algebra.n == 1


def test_extension_tables_differ_in_one_operation():
    lower = get_module("joker0")
    upper = get_module("joker1")
    assert lower.table(4) == (0, 0, 0, 0, 0)
    assert upper.table(4) == (16, 0, 0, 0, 0)
    assert lower.tables[1] == upper.tables[1]
    assert lower.tables[2] == upper.tables[2]
    assert get_module("joker(2)1").act_mono((8,), 1) == 1 << 4
    assert get_module("joker(2)0").act_mono((8,), 1) == 0
    assert get_module("joker(3)1").act_mono((16,), 1) == 1 << 4
    assert get_module("joker(3)0").act_mono((16,), 1) == 0


def test_restriction_forgets_the_extension():
    for n in (2, 3):
        small = get_module(f"joker({n})")
        for eps in ("0", "1"):
            big = get_module(f"joker({n}){eps}")
            down = restrict(big, small.algebra)
            assert find_isomorphism(down, small) is not None


def test_doubling_tower():
    j = get_module("joker")
    j2 = get_module("joker(2)")
    assert j2.act_mono((2,), 1) == 1 << 1
    assert j2.act_mono((1,), 1) == 0
    assert j2.act_mono((3,), 1) == 0
    assert j2.act_mono((6,), 1 << 1) == 1 << 4
    j3 = get_module("joker(3)")
    assert j3.act_mono((4,), 1) == 1 << 1
    assert j3.act_mono((12,), 1 << 1) == 1 << 4
    assert j.act_mono((3,), 1 << 1) == 1 << 4


def test_duality_swaps_the_extensions():
    # the dual of the free extension is the trivial one, shifted back to 0
    pairs = [
        ("joker0", "joker1", 4),
        ("joker(2)0", "joker(2)1", 8),
        ("joker(3)0", "joker(3)1", 16),
    ]
    for low, high, span in pairs:
        flipped = shift(dualize(get_module(low)), span)
        assert find_isomorphism(flipped, get_module(high)) is not None
        back = shift(dualize(get_module(high)), span)
        assert find_isomorphism(back, get_module(low)) is not None


def test_conjugate_top_operation_swaps_the_extensions():
    # chi(Sq^{2^{n+1}}) hits the top class exactly when Sq^{2^{n+1}} does not,
    # mirroring the duality between the two extensions
    for name, k in (("joker", 4), ("joker(2)", 8), ("joker(3)", 16)):
        zero = get_module(name + "0")
        one = get_module(name + "1")
        assert zero.act(antipode(sq(k)), 1) == 1 << 4
        assert one.act(antipode(sq(k)), 1) == 0
        assert zero.act_mono((k,), 1) == 0
        assert one.act_mono((k,), 1) == 1 << 4


def test_whisker_arrows():
    P = get_module("jokerP")
    spine = [i for i, d in enumerate(P.degrees) if d == 2][0]
    deg3 = [i for i, d in enumerate(P.degrees) if d == 3]
    assert P.act_mono((1,), 1 << spine) != 0
    hit = P.act_mono((1,), 1 << spine)
    assert hit in {1 << i for i in deg3}
    # jokerPP1 runs the arrow the other way: the extra degree-1 class maps
    # onto the spine
    Q = get_module("jokerPP1")
    ones = [i for i, d in enumerate(Q.degrees) if d == 1]
    spine2 = [i for i, d in enumerate(Q.degrees) if d == 2][0]
    images = {i: Q.act_mono((1,), 1 << i) for i in ones}
    assert set(images.values()) == {0, 1 << spine2}
    bottom = Q.degrees.index(0)
    assert Q.act_mono((1,), 1 << bottom) != 0


def test_full_extensions_reach_the_top():
    assert get_module("jokerP1").act_mono((4,), 1) != 0
    assert get_module("joker2P1").act_mono((8,), 1) != 0
    # the whiskered duals live over a finite subalgebra again
    assert get_module("jokerPP1").algebra.n == 1
    assert get_module("joker2PP1").algebra.n == 2


def test_question_mark_duality():
    w1 = get_module("w1")
    w4 = get_module("w4")
    assert find_isomorphism(shift(dualize(w1), 3), w4) is not None


def test_w2_is_the_joker():
    assert find_isomorphism(get_module("w2"), get_module("joker")) is not None


def test_wall_relation_kills_the_double():
    # Sq^4 Sq^4 + Sq^2 Sq^4 Sq^2 annihilates the doubled module
    rel = sq_word((4, 4)) + sq_word((2, 4, 2))
    J2 = get_module("joker(2)")
    for i in range(J2.dim):
        assert J2.act(rel, 1 << i) == 0
    # both routes reach the top class from the bottom and cancel
    assert J2.act(sq_word((4, 4)), 1) == J2.act(sq_word((2, 4, 2)), 1) != 0


def test_coaction_of_the_top_class():
    J0 = get_module("joker0")
    J1 = get_module("joker1")
    top = J0.dim - 1

    def transcript(M):
        out = {}
        for monomial, j in coaction(M, top):
            out.setdefault(j, set()).add(monomial)
        return {j: frozenset(s) for j, s in out.items()}

    t0 = transcript(J0)
    t1 = transcript(J1)
    z1 = zeta_in_xi(1)
    z2 = zeta_in_xi(2)
    xi2 = frozenset({(0, 1)})
    assert t0[4] == frozenset({()})
    assert t0[3] == frozenset({(1,)})
    assert t0[2] == frozenset({(2,)})
    assert t0[1] == z2
    assert t0[0] == poly_mul(z1, xi2)
    # the free extension changes only the bottom coefficient, by zeta_1^4
    assert t1[1] == z2
    assert t1[0] == poly_mul(z1, z2)
    assert t0[0] ^ t1[0] == poly_pow(z1, 4)


def test_fixtures_are_current():
    for name in MODULE_NAMES:
        path = fixture_path(name)
        assert path.exists(), f"missing fixture for {name}"
        assert serialize(get_module(name)) == path.read_text(), name


def test_fixtures_parse_back():
    for name in MODULE_NAMES:
        M = parse(fixture_path(name).read_text())
        assert M.validate() == []
        assert find_isomorphism(M, get_module(name)) is not None
