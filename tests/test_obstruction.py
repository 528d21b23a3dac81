"""The factorization-term vanishing sweep on the doubled joker towers."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from steen.catalogue import get_module
from steen.milnor import basis_count, enumerate_basis, full_a
from steen.module import double, trivial_module
from steen.obstruction import (
    _alpha_vanishes,
    admissible_pairs,
    check_hypotheses,
    format_report,
    obstruction_report,
    report_lines,
)
from steen.resolution import minimal_resolution


def test_admissible_pairs():
    assert admissible_pairs(0) == [(0, 0)]
    assert admissible_pairs(2) == [(0, 0), (0, 2), (1, 1), (2, 2)]
    assert admissible_pairs(3) == [
        (0, 0),
        (0, 2),
        (0, 3),
        (1, 1),
        (1, 3),
        (2, 2),
        (3, 3),
    ]
    for k in range(10):
        pairs = admissible_pairs(k)
        assert pairs == sorted(pairs)
        assert all(0 <= i <= j <= k and j != i + 1 for i, j in pairs)
        assert len(pairs) == (k + 1) * (k + 2) // 2 - k


def test_hypothesis_checks_for_n4():
    checks = check_hypotheses(4)
    assert [c.r for c in checks] == [0, 1, 2, 3]
    assert all(c.ok for c in checks)
    assert [c.degree for c in checks] == [9, 10, 12, 16]
    # r = 3 passes by zero action on an honestly nonzero degree
    assert [c.rank for c in checks] == [0, 0, 0, 1]


def test_small_and_large_n_are_rejected():
    for bad in (0, 1, 2, 3):
        with pytest.raises(ValueError, match="k >= 3"):
            check_hypotheses(bad)
    with pytest.raises(ValueError, match="k >= 3"):
        obstruction_report(3)
    with pytest.raises(ValueError, match="beyond the supported bound"):
        obstruction_report(13)


def test_report_for_n4_term_by_term():
    R = obstruction_report(4)
    assert (R.n, R.k, R.u_degree) == (4, 3, 8)
    table = [(t.i, t.j, t.phi_degree, t.rank, t.alpha_degree) for t in R.terms]
    assert table == [
        (0, 0, 9, 0, 15),
        (0, 2, 12, 0, 12),
        (0, 3, 16, 1, 8),
        (1, 1, 11, 0, 13),
        (1, 3, 17, 0, 7),
        (2, 2, 15, 0, 9),
        (3, 3, 23, 0, 1),
    ]
    assert all(t.verdict == "vanishes" for t in R.terms)
    assert all(t.gate_ok for t in R.terms)
    assert R.target_nonzero
    assert R.conclusion == "NonRealizable"


def test_n4_alpha_sweep_by_hand():
    # the only term with module classes sits in degree 16; every degree-8
    # element must kill it, and only Sq(8) survives the Verschiebung
    basis8 = enumerate_basis(full_a(), 8)
    assert basis8 == ((1, 0, 1), (2, 2), (5, 1), (8,))
    M = double(get_module("joker"), 3)
    (x2,) = M.basis_at(16)
    for mono in basis8:
        assert M.act_mono(mono, 1 << x2) == 0
    # while the target operation acts without vanishing
    (x1,) = M.basis_at(8)
    (x3,) = M.basis_at(24)
    assert M.act_mono((16,), 1 << x1) == 1 << x3


def test_alpha_sweep_matches_acting_by_every_monomial():
    # wherever A(n) and A agree in degree alpha, the sweep must say whether
    # some Milnor monomial of A moves a class of degree phi; it says no at 14
    # of the 470 pairs, so a sweep that always vanished would fail here
    answers = []
    for n in (4, 5):
        M = get_module(f"joker({n})")
        for alpha in range(1, 65):
            if basis_count(full_a(), alpha) != basis_count(M.algebra, alpha):
                continue
            basis = enumerate_basis(full_a(), alpha)
            for phi in sorted(M.dims()):
                expected = not any(
                    M.act_mono(m, 1 << i) for m in basis for i in M.basis_at(phi)
                )
                assert _alpha_vanishes(M, alpha, phi) == expected, (n, alpha, phi)
                answers.append(expected)
    assert (len(answers), answers.count(False)) == (470, 14)


def test_every_supported_n_is_non_realizable():
    for n in range(4, 13):
        R = obstruction_report(n)
        assert R.conclusion == "NonRealizable"
        assert all(c.ok for c in R.hypothesis_checks)
        assert all(t.gate_ok for t in R.terms)
        survivors = [(t.i, t.j) for t in R.terms if t.rank]
        assert survivors == [(0, n - 1)]
        assert [t.alpha_degree for t in R.terms if t.rank] == [1 << (n - 1)]


def test_term_degree_bookkeeping():
    for n in (4, 5, 6, 7):
        R = obstruction_report(n)
        for t in R.terms:
            assert t.phi_degree + t.alpha_degree == R.u_degree + (1 << (R.k + 1))
            assert 1 <= t.alpha_degree <= (1 << (R.k + 1)) - 1


def test_admissible_pairs_are_the_sphere_ext2():
    # Adams: Ext^(2,t) over A has one class h_i h_j per admissible pair, at
    # t = 2^i + 2^j, and nothing else, so the resolver confirms the term list
    R = minimal_resolution(full_a(), trivial_module(full_a()), 2, 32)
    ranks = {t: R.rank(2, t) for t in range(33) if R.rank(2, t)}
    assert ranks == {(1 << i) + (1 << j): 1 for i, j in admissible_pairs(4)}


def test_machine_lines():
    R = obstruction_report(4)
    lines = report_lines(R)
    assert len(lines) == 7
    assert lines[2] == "4 0 3 16 1 8 vanishes"
    shape = re.compile(r"^4 \d+ \d+ \d+ \d+ \d+ (vanishes|survives|unsound)$")
    assert all(shape.match(line) for line in lines)


def test_human_report_text():
    text = format_report(obstruction_report(4))
    assert "joker(4) tower: class u in degree 8, k = 3" in text
    assert "r=3  degree 16  rank 1  ok" in text
    assert "(0,3)  deg Phi u 16  rank 1  deg alpha 8  vanishes" in text
    assert "target Sq^16 u nonzero: True" in text
    assert text.rstrip().endswith("conclusion: NonRealizable")


def test_records_match_the_pinned_fixture():
    # every (i, j, phi, rank, alpha, verdict) record for n = 4..12, as
    # recorded before the gate's counts were read off a cached series
    expected = (Path(__file__).parent / "fixtures" / "obstruction_records.txt").read_text()
    lines = [line for n in range(4, 13) for line in report_lines(obstruction_report(n))]
    assert "\n".join(lines) + "\n" == expected
