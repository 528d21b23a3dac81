"""Tests for minimal resolutions and Ext charts."""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache

import pytest

from oracles import (
    differential_rank,
    free_basis,
    lambda_ext,
    lambda_h_rank,
    oracle_ext_a1,
    reference_h_lines,
    reference_rank,
    reference_resolution,
    reference_terms,
    stage_terms,
)
from steen import resolution
from steen.catalogue import MODULE_NAMES, get_module
from steen.milnor import Element, an, full_a, generator_matrix
from steen.module import (
    FiniteModule,
    double,
    dualize,
    find_isomorphism,
    restrict,
    shift,
    trivial_module,
)
from steen.resolution import (
    dump_resolution,
    emit_chart,
    ext_chart,
    minimal_resolution,
    resolution_checks,
)

# dot data of the classical mod-2 Adams E_2 chart for the sphere,
# {(s, stem): rank} complete for s <= 12 and stem <= 20
SPHERE_RANKS = {
    (0, 0): 1,
    (1, 0): 1, (1, 1): 1, (1, 3): 1, (1, 7): 1, (1, 15): 1,
    (2, 0): 1, (2, 2): 1, (2, 3): 1, (2, 6): 1, (2, 7): 1, (2, 8): 1,
    (2, 14): 1, (2, 15): 1, (2, 16): 1, (2, 18): 1,
    (3, 0): 1, (3, 3): 1, (3, 7): 1, (3, 8): 1, (3, 9): 1, (3, 14): 1,
    (3, 15): 1, (3, 17): 1, (3, 18): 1, (3, 19): 1,
    (4, 0): 1, (4, 7): 1, (4, 9): 1, (4, 14): 1, (4, 15): 1, (4, 17): 1,
    (4, 18): 2, (4, 20): 1,
    (5, 0): 1, (5, 9): 1, (5, 11): 1, (5, 14): 1, (5, 15): 2, (5, 17): 1,
    (5, 18): 1, (5, 20): 1,
    (6, 0): 1, (6, 10): 1, (6, 11): 1, (6, 14): 1, (6, 15): 1, (6, 16): 1,
    (6, 17): 1, (6, 20): 1,
    (7, 0): 1, (7, 11): 1, (7, 15): 1, (7, 16): 1, (7, 17): 1,
    (8, 0): 1, (8, 15): 1, (8, 17): 1,
    (9, 0): 1, (9, 17): 1, (9, 19): 1,
    (10, 0): 1, (10, 18): 1, (10, 19): 1,
    (11, 0): 1, (11, 19): 1,
    (12, 0): 1,
}


def sphere(algebra, name="S"):
    return trivial_module(algebra, name=name)


def test_presentation_degrees():
    R = minimal_resolution(an(1), get_module("joker"), 1, 10)
    assert R.degrees[1] == [3]
    R2 = minimal_resolution(an(2), get_module("joker(2)"), 1, 12)
    assert R2.degrees[1] == [1, 3, 6]
    R3 = minimal_resolution(an(3), get_module("joker(3)"), 1, 14)
    assert R3.degrees[1] == [1, 2, 6, 12]


def test_full_algebra_first_relation():
    R = minimal_resolution(full_a(), sphere(full_a()), 1, 1)
    assert R.degrees[0] == [0]
    assert R.degrees[1] == [1]


def test_restriction_route():
    R = minimal_resolution(an(1), get_module("joker0"), 1, 10)
    assert R.degrees[1] == [3]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_tower_read_one_algebra_down_is_a_double_of_the_a0_joker(n):
    # joker(n) over A(n-1) is the joker over A(0) doubled n-1 times; the
    # resolver restricts one, and the other is built over A(n-1) directly
    B = an(n - 1)
    down = restrict(get_module(f"joker({n})"), B)
    built = double(restrict(get_module("joker"), an(0)), n - 1)
    assert built.algebra == B
    assert find_isomorphism(down, built) is not None
    via_resolver = ext_chart(minimal_resolution(B, get_module(f"joker({n})"), 6, 32))
    assert via_resolver == ext_chart(minimal_resolution(B, built, 6, 32))


def test_resource_guards():
    S = sphere(an(1))
    with pytest.raises(ValueError):
        minimal_resolution(an(1), S, 17, 10)
    assert minimal_resolution(an(1), S, 2, 64).t_max == 64
    with pytest.raises(ValueError, match="between 0 and 64"):
        minimal_resolution(an(1), S, 2, 65)
    with pytest.raises(ValueError):
        minimal_resolution(full_a(), get_module("joker"), 1, 10)


def test_rejects_invalid_module():
    # Sq^1 Sq^1 = 0 is violated, so validation must fail
    bad = FiniteModule(
        "bad", an(1), ("a", "b", "c"), (0, 1, 2), {1: (2, 4, 0), 2: (4, 0, 0)}
    )
    with pytest.raises(ValueError):
        minimal_resolution(an(1), bad, 1, 6)


def test_differentials_compose_to_zero():
    for R in (
        minimal_resolution(an(1), get_module("joker"), 4, 14),
        minimal_resolution(an(1), sphere(an(1)), 6, 14),
        minimal_resolution(full_a(), sphere(full_a()), 4, 12),
        minimal_resolution(an(2), get_module("joker(2)"), 3, 16),
    ):
        assert resolution_checks(R) == []


def _copy(R):
    C = resolution.Resolution(R.algebra, R.module, R.s_max, R.t_max)
    C.degrees = [list(stage) for stage in R.degrees]
    C.values = [list(stage) for stage in R.values]
    return C


def test_resolution_checks_report_edited_differentials():
    """Edits of one stored differential of joker over A(1) are reported.

    Not every edit is: flipping bit 1 of d_1(g1_0) zeroes it, and d∘d = 0
    and minimality both still hold.  That gap is the exactness check of
    ROADMAP item 7, so it is left unasserted here.
    """
    R = minimal_resolution(an(1), get_module("joker"), 4, 14)

    C = _copy(R)
    C.values[1][0] ^= 1
    assert resolution_checks(C) == [
        "d0 d1 g1_0 is nonzero in joker",
        "d1 d2 g2_0 hits g0_0",
    ]

    C = _copy(R)
    C.values[2][0] ^= 1
    assert resolution_checks(C) == ["d2 d3 g3_1 hits g1_0"]

    # a stage-2 generator in the degree of g1_0, valued at its unit term
    C = _copy(R)
    C.degrees[2].insert(0, R.degrees[1][0])
    C.values[2].insert(0, 1)
    assert resolution_checks(C)[0] == "d 2 g2_0: unit coefficient on g1_0"

    # bits outside the target, reported before anything is decoded: C_0 has
    # dimension 2 in degree 3, and joker has one class in degree 0
    C = _copy(R)
    C.values[1][0] ^= 1 << 2
    assert resolution_checks(C) == ["d 1 g1_0: bit 2 is past dim C_0 = 2 in degree 3"]

    C = _copy(R)
    C.values[0][0] ^= 1 << 7
    assert resolution_checks(C) == ["d 0 g0_0: bit 7 is not a class of joker in degree 0"]


def test_rank_stability():
    small = ext_chart(minimal_resolution(an(1), sphere(an(1)), 5, 10)).ranks
    large = ext_chart(minimal_resolution(an(1), sphere(an(1)), 5, 14)).ranks
    for s in range(6):
        for t in range(11):
            assert small.get((s, t), 0) == large.get((s, t), 0)


def test_a1_sphere_matches_bar_oracle():
    ranks = ext_chart(minimal_resolution(an(1), sphere(an(1)), 6, 14)).ranks
    for s in range(7):
        for t in range(s + 9):
            assert ranks.get((s, t), 0) == oracle_ext_a1(s, t), (s, t)


@pytest.mark.parametrize(
    "s_max, stem_max", [(6, 15), (5, 20), pytest.param(7, 20, marks=pytest.mark.slow)]
)
def test_sphere_matches_the_lambda_algebra(s_max, stem_max):
    R = minimal_resolution(full_a(), sphere(full_a()), s_max, s_max + stem_max)
    ranks = ext_chart(R).ranks
    for s in range(s_max + 1):
        for stem in range(stem_max + 1):
            assert ranks.get((s, s + stem), 0) == lambda_ext(s, stem), (s, stem)


def test_h_lines_match_the_lambda_algebra():
    """Each h_i line map of the sphere's chart has the rank of h_i on H(Lambda).

    The lines come from the Sq(2^i) terms of the generators' values; the
    lambda algebra multiplies cycles by lambda_(2^i - 1) instead, so every
    map from (s, stem) to (s + 1, stem + 2^i - 1), i <= 3, s <= 5 and
    stem <= 12, gets a second route.
    """
    s_max, stem_max = 5, 12
    chart = ext_chart(minimal_resolution(full_a(), sphere(full_a()), s_max + 1, s_max + stem_max + 8))
    nonzero = 0
    for i in range(4):
        for s in range(s_max + 1):
            for stem in range(stem_max + 1):
                t = s + stem
                rows = [0] * chart.ranks.get((s, t), 0)
                for k, (s1, t1, a), (s2, t2, b) in chart.h_lines:
                    if k == i and (s1, t1, s2, t2) == (s, t, s + 1, t + (1 << i)):
                        rows[a] |= 1 << b
                r = reference_rank(rows)
                assert r == lambda_h_rank(i, s, stem), (i, s, stem)
                nonzero += r > 0
    assert nonzero == 34


def test_a1_sphere_is_the_ko_pattern():
    ranks = ext_chart(minimal_resolution(an(1), sphere(an(1)), 6, 14)).ranks
    expected = {(s, 0) for s in range(7)}
    expected |= {(1, 1), (2, 2)}
    expected |= {(s, 4) for s in range(3, 7)}
    expected |= {(s, 8) for s in range(4, 7)}
    got = {
        (s, t - s)
        for s in range(7)
        for t in range(15)
        if ranks.get((s, t), 0) and t - s <= 8
    }
    assert got == expected
    assert all(ranks.get((s, s), 0) == 1 for s in range(7))


def test_sphere_chart_matches_golden_dots():
    R = minimal_resolution(full_a(), sphere(full_a()), 12, 32)
    C = ext_chart(R)
    window = {
        (s, t - s): r for (s, t), r in C.ranks.items() if 0 <= t - s <= 20
    }
    assert window == SPHERE_RANKS


def test_h_lines_connect_adjacent_dots():
    R = minimal_resolution(an(1), sphere(an(1)), 6, 14)
    C = ext_chart(R)
    assert (0, (0, 0, 0), (1, 1, 0)) in C.h_lines
    assert (1, (0, 0, 0), (1, 2, 0)) in C.h_lines
    for i, (s1, t1, i1), (s2, t2, i2) in C.h_lines:
        assert s2 == s1 + 1
        assert t2 == t1 + (1 << i)
        assert i1 < C.ranks[(s1, t1)]
        assert i2 < C.ranks[(s2, t2)]


def test_whiskered_dual_detects_two_classes():
    R = minimal_resolution(an(1), get_module("jokerPP1"), 0, 10)
    C = ext_chart(R)
    assert C.ranks == {(0, 0): 1, (0, 1): 1}


def test_chart_text_golden():
    R = minimal_resolution(an(1), get_module("joker"), 2, 10)
    text = emit_chart(ext_chart(R), "text").decode()
    assert text == (
        "      0   1   2   3   4   5   6   7   8\n"
        "  2   .   .   1   .   .   .   1   .   .\n"
        "  1   .   .   1   .   .   .   .   .   .\n"
        "  0   1   .   .   .   .   .   .   .   .\n"
    )


def test_chart_svg_golden():
    R = minimal_resolution(an(1), get_module("joker"), 2, 10)
    C = ext_chart(R)
    svg = emit_chart(C, "svg")
    assert svg == emit_chart(C, "svg")
    assert svg.decode() == (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-10 -50 190 60">\n'
        '<g stroke="black" fill="black">\n'
        '<line x1="40" y1="-20" x2="40" y2="-40"/>\n'
        '<circle cx="0" cy="0" r="3"/>\n'
        '<circle cx="40" cy="-20" r="3"/>\n'
        '<circle cx="40" cy="-40" r="3"/>\n'
        '<circle cx="120" cy="-40" r="3"/>\n'
        "</g>\n"
        "</svg>\n"
    )


def test_chart_draws_classes_at_negative_stems():
    # D(joker0) lies in degrees -4..0, and d 0 g0_0 = x4' puts Ext^{0,-4} = F2
    R = minimal_resolution(full_a(), dualize(get_module("joker0")), 3, 10)
    C = ext_chart(R)
    assert C.stem_min == -4
    header, *rows = emit_chart(C, "text").decode().splitlines()
    stems = [int(stem) for stem in header.split()]
    assert stems == list(range(-4, 8))
    row0 = dict(zip(stems, rows[-1].split()[1:]))
    assert row0[-4] == "1"
    svg = emit_chart(C, "svg").decode()
    x0, y0, width, height = map(int, re.search(r'viewBox="([^"]+)"', svg)[1].split())
    dots = [tuple(map(int, xy)) for xy in re.findall(r'<circle cx="(-?\d+)" cy="(-?\d+)"', svg)]
    assert len(dots) == sum(C.ranks.values()) == 17
    for x, y in dots:
        assert x0 < x < x0 + width and y0 < y < y0 + height, (x, y)


def test_sphere_text_row_marks():
    R = minimal_resolution(full_a(), sphere(full_a()), 2, 22)
    text = emit_chart(ext_chart(R), "text").decode()
    row1 = next(line for line in text.splitlines() if line.startswith("  1"))
    cells = row1[3:]
    marks = [
        i // 4 for i in range(0, len(cells), 4) if cells[i : i + 4].strip() == "1"
    ]
    assert marks == [0, 1, 3, 7, 15]


def test_empty_chart_is_header_only():
    empty = FiniteModule("nothing", an(1), (), (), {})
    R = minimal_resolution(an(1), empty, 3, 8)
    out = emit_chart(ext_chart(R), "text").decode()
    assert out.count("\n") == 1
    assert out.startswith(" ")


def test_unknown_format_rejected():
    R = minimal_resolution(an(1), get_module("joker"), 1, 6)
    with pytest.raises(ValueError, match=r"^unknown chart format 'png'$"):
        emit_chart(ext_chart(R), "png")


def test_dump_format():
    R = minimal_resolution(an(1), get_module("joker"), 2, 10)
    assert dump_resolution(R) == (
        "d 0 g0_0 = x0\n"
        "d 1 g1_0 = Sq(3) g0_0\n"
        "d 2 g2_0 = Sq(1) g1_0\n"
        "d 2 g2_1 = Sq(2,1) g1_0\n"
    )


@lru_cache(maxsize=None)
def _window(name, s_max, t_max, algebra=None):
    """A catalogue module resolved over its own algebra, or the sphere over
    algebra (A when None)."""
    M = sphere(full_a() if algebra is None else algebra) if name == "sphere" else get_module(name)
    return minimal_resolution(M.algebra, M, s_max, t_max)


@pytest.mark.parametrize(
    "name, s_max, t_max, algebra",
    [
        ("sphere", 16, 40, None),
        ("joker(3)", 16, 40, None),
        ("joker(2)", 16, 64, None),
        ("joker0", 8, 30, None),
        ("jokerP1", 8, 30, None),
        ("sphere", 16, 40, an(0)),
        ("sphere", 16, 40, an(1)),
    ],
    ids=lambda v: str(v) if v is not None else "own",
)
def test_h_lines_match_the_decoded_terms(name, s_max, t_max, algebra):
    """The h_i bits ext_chart tests are the Sq(2^i) terms of the values; over
    A(0) and A(1) the Sq(2^i) outside the algebra draw nothing."""
    R = _window(name, s_max, t_max, algebra)
    lines = ext_chart(R).h_lines
    assert lines == reference_h_lines(R)
    top = 3 if R.algebra.n is None else min(R.algebra.n, 3)
    assert {i for i, _, _ in lines} == set(range(top + 1))


# sha256 of `chart --format svg`, the one output that draws the h_i lines
@pytest.mark.parametrize(
    "name, digest",
    [
        ("sphere", "a6defd6c193e856fa14a638e1bcd695ac8c478bd7028f418bc307468ec162b2d"),
        ("joker(3)", "da1f03adbc896952457b63dc9b72a9d161e37d29ac60cf53e9a3b3a7125fbe4a"),
    ],
)
def test_chart_svg_keeps_its_bytes(name, digest):
    svg = emit_chart(ext_chart(_window(name, 16, 40)), "svg")
    assert hashlib.sha256(svg).hexdigest() == digest


@pytest.mark.parametrize("name", ["sphere", "joker(3)"])
def test_free_module_matrix_shifts_every_block_to_its_offset(name):
    """Sq(2^e) on C_s is generator_matrix per block, each shifted to the start
    of its block in the target degree, the first block included."""
    R = _window(name, 8, 24)
    for free in R._free:
        for u in range(R.t_max + 1):
            for e in R.algebra.generator_exponents(R.t_max - u):
                target = free.offsets(u + (1 << e))
                expected = [
                    column << target[j]
                    for j, tj in enumerate(free.degrees)
                    if tj <= u
                    for column in generator_matrix(R.algebra, e, u - tj)
                ]
                assert free.matrix(e, u) == expected, (e, u)


# sha256 of the printed resolutions.  A chart shows only ranks and h_i lines,
# so a changed residual or generator choice shows here.
@pytest.mark.parametrize(
    "name, s_max, t_max, digest",
    [
        ("sphere", 16, 40, "3b1ee943ad127618a8d35d1378de37fd67b0938b5a2cd2aedbbca17abb749fa9"),
        ("joker(3)", 16, 40, "2089c611353a4fa8c2b4c06d2d213f4e4bcb0ee684a80bc0c7daa64005f1fa97"),
        ("joker(2)", 16, 64, "cf04ab5e2200bd47dbb92e9b3e346772d19b02e74782eb768f633ae69638cd74"),
        ("joker0", 8, 30, "fd9ff2c9b18254b83dbec6c9d1c7956ec3c8fb9a761bea5db1403e7dc6c8a960"),
        ("jokerP1", 8, 30, "5871563129a2f04f4ace2779687baeb6db9ac03d6066cd06f92ad4a4fbf91309"),
        pytest.param(
            "sphere",
            8,
            64,
            "dcc994e17b8f90ac4a88d8f4407ced694ebc707417877d9bbd102786d8e12dde",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_printed_resolution_keeps_its_bytes(name, s_max, t_max, digest):
    dump = dump_resolution(_window(name, s_max, t_max))
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


def test_echelon_add_runs_once_per_new_generator(monkeypatch):
    """Only the candidates that become generators are reduced to residuals."""
    added = []
    add = resolution.Echelon.add

    def spy(self, vec):
        added.append(vec)
        return add(self, vec)

    monkeypatch.setattr(resolution.Echelon, "add", spy)
    R = minimal_resolution(full_a(), sphere(full_a()), 6, 24)
    assert len(added) == sum(len(stage) for stage in R.degrees)


def _assert_the_full_window_cut_at(full, stem_max):
    """The resolution with stem_max holds the generators of full with
    t - s <= stem_max, each with its value, and no others."""
    R = minimal_resolution(full.algebra, full.module, full.s_max, full.t_max, stem_max)
    assert R.stem_max == stem_max and len(R.degrees) == full.s_max + 1
    for s, (degrees, values) in enumerate(zip(full.degrees, full.values)):
        kept = [t for t in degrees if t - s <= stem_max]
        assert degrees[: len(kept)] == kept
        assert (R.degrees[s], R.values[s]) == (kept, values[: len(kept)]), s
    assert resolution_checks(R) == []
    if stem_max >= resolution.chart_stem_max(full.s_max, full.t_max):
        assert emit_chart(ext_chart(R)) == emit_chart(ext_chart(full))


# (s_max, t_max, stem_max): the chart's own bound, a cut inside it, a window
# with t_max < s_max, a single stage, and stem 0 alone
STEM_WINDOWS = [(8, 24, 16), (8, 24, 5), (6, 3, 0), (0, 10, 10), (4, 16, 0)]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_stem_bound_keeps_every_generator_below_it(name):
    M = get_module(name)
    for s_max, t_max, stem_max in STEM_WINDOWS:
        full = minimal_resolution(M.algebra, M, s_max, t_max)
        _assert_the_full_window_cut_at(full, stem_max)


@pytest.mark.parametrize(
    "M, windows",
    [
        # bottom -4; a bound below stem 0 still keeps the stems it names
        (dualize(get_module("joker0")), [(5, 20, 15), (5, 20, 8), (5, 20, -2)]),
        # bottom 6, above both bounds: stage s starts at t = 6 + s
        (shift(get_module("joker"), 6), [(4, 16, 2), (4, 16, 5)]),
    ],
    ids=["D(joker0)", "joker[6]"],
)
def test_stem_bound_off_stem_zero(M, windows):
    for s_max, t_max, stem_max in windows:
        full = minimal_resolution(M.algebra, M, s_max, t_max)
        _assert_the_full_window_cut_at(full, stem_max)


def test_stem_bound_on_the_sphere_sends_fewer_columns(monkeypatch):
    """At (16, 40) the text chart prints stems up to 24: the resolution cut
    there is the full one's, and eliminates fewer columns."""
    columns = []
    init = resolution.TopEchelon.__init__

    def spy(self, vecs):
        columns.append(len(vecs))
        init(self, vecs)

    monkeypatch.setattr(resolution.TopEchelon, "__init__", spy)
    full = minimal_resolution(full_a(), sphere(full_a()), 16, 40)
    sent = sum(columns)
    columns.clear()
    _assert_the_full_window_cut_at(full, 24)
    assert 0 < sum(columns) < sent


def test_minimality_no_unit_entries():
    R = minimal_resolution(an(2), get_module("joker(2)"), 3, 16)
    assert all(x != () for stage in stage_terms(R) for terms in stage for _, x in terms)


def test_terms_start_at_stage_one():
    R = minimal_resolution(an(1), get_module("joker"), 2, 10)
    assert list(R.terms(1, 0)) == [(0, (3,))]
    with pytest.raises(ValueError):
        R.terms(0, 0)


@pytest.mark.parametrize(
    "algebra, M",
    [(an(2), get_module("joker(2)")), (full_a(), trivial_module(full_a()))],
    ids=["A(2) joker(2)", "A sphere"],
)
def test_resolver_keeps_every_stage_as_bitsets(monkeypatch, algebra, M):
    assert M.validate() == []

    def refuse(*args):
        raise AssertionError("the resolver built an algebra element")

    monkeypatch.setattr(resolution._FreeModule, "terms", refuse)
    monkeypatch.setattr(Element, "__init__", refuse)
    monkeypatch.setattr(Element, "from_set", staticmethod(refuse))
    R = minimal_resolution(algebra, M, 6, 24)
    monkeypatch.undo()
    assert [len(v) for v in R.values] == [len(d) for d in R.degrees]
    assert all(isinstance(v, int) for stage in R.values for v in stage)
    assert resolution_checks(R) == []


@pytest.mark.parametrize(
    "algebra, M",
    [(an(2), get_module("joker(2)")), (full_a(), trivial_module(full_a()))],
    ids=["A(2) joker(2)", "A sphere"],
)
def test_charts_and_dumps_build_no_element(monkeypatch, algebra, M):
    R = minimal_resolution(algebra, M, 6, 24)

    def refuse(*args):
        raise AssertionError("rendering built an algebra element")

    monkeypatch.setattr(Element, "__init__", refuse)
    monkeypatch.setattr(Element, "from_set", staticmethod(refuse))
    chart = ext_chart(R)
    assert chart.h_lines
    for format in ("text", "svg"):
        assert emit_chart(chart, format)
    assert dump_resolution(R).startswith("d 0 g0_0 = ")


# Sq^1 a = b + c is the only degree-1 image, so the stage-0 generator in
# degree 1 is the unit vector b, while its residual against the image is c
STAGE0_CHOICE = FiniteModule(
    "stage0", an(1), ("a", "b", "c", "d"), (0, 1, 1, 3), {1: (6, 0, 0, 0), 2: (0, 8, 0, 0)}
)

# (algebra, module, s_max, t_max) for the oracle and exactness checks
CASES = {
    "A(1) stage-0 choice": (an(1), STAGE0_CHOICE, 6, 20),
    "A(1) joker": (an(1), "joker", 6, 20),
    "A(1) sphere": (an(1), None, 8, 24),
    "A(2) joker(2)": (an(2), "joker(2)", 6, 24),
    "A(3) joker(3)": (an(3), "joker(3)", 5, 28),
    "A sphere": (full_a(), None, 12, 32),
    "A sphere t48": (full_a(), None, 3, 48),
    "A joker0": (full_a(), "joker0", 6, 24),
    "A D(joker0)": (full_a(), "D(joker0)", 5, 20),
}


def _module(algebra, name):
    if name is None:
        return sphere(algebra)
    if isinstance(name, FiniteModule):
        return name
    if name.startswith("D("):
        return dualize(get_module(name[2:-1]))
    return get_module(name)


@lru_cache(maxsize=None)
def _resolved(case):
    algebra, name, s_max, t_max = CASES[case]
    return minimal_resolution(algebra, _module(algebra, name), s_max, t_max)


@pytest.mark.parametrize("case", sorted(CASES))
def test_resolver_matches_product_route(case):
    algebra, name, s_max, t_max = CASES[case]
    R = _resolved(case)
    ref = reference_resolution(algebra, _module(algebra, name), s_max, t_max)
    assert R.degrees == ref.degrees
    assert R.values == ref.values
    assert stage_terms(R) == reference_terms(ref)


@pytest.mark.parametrize("case", sorted(CASES))
def test_resolution_is_exact(case):
    R = _resolved(case)
    for t in range(R.t_max + 1):
        dim_m = sum(1 for d in R.module.degrees if d == t)
        assert differential_rank(R, 0, t) == dim_m, f"epsilon not onto in degree {t}"
        ranks = [differential_rank(R, s, t) for s in range(R.s_max + 1)]
        for s in range(R.s_max):
            dim = len(free_basis(R, s, t))
            assert dim == ranks[s] + ranks[s + 1], (s, t)
