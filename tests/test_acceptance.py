"""Acceptance ledger: one test per criterion, printing one pass/fail line each.

Every check recomputes its facts from scratch through steen.verify, so this
module and the verify-suite subcommand report the same thirteen lines.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from oracles import reference_associativity_triples
from steen import verify
from steen.milnor import _product_monomials, milnor_basis, mono_degree, sq
from steen.verify import CRITERIA, run_criterion

BY_SLUG = {c.slug: c for c in CRITERIA}


def _run(slug: str) -> str:
    ok, detail = run_criterion(BY_SLUG[slug])
    print(f"{'PASS' if ok else 'FAIL'}  {slug:<13} {detail}")
    assert ok, f"{slug}: {detail}"
    return detail


def test_ledger_covers_thirteen_criteria():
    assert [c.slug for c in CRITERIA] == [
        "antipode",
        "duality",
        "doubling",
        "presentations",
        "sphere-chart",
        "detection",
        "wall-relation",
        "extensions",
        "unstable",
        "tensor-cells",
        "coaction",
        "obstruction",
        "properties",
    ]


def test_antipode_and_composition_identities():
    _run("antipode")


def test_shifted_dual_swaps_the_extensions():
    _run("duality")


def test_doubles_match_the_cyclic_presentations():
    _run("doubling")


def test_minimal_presentation_degrees():
    _run("presentations")


def test_sphere_chart_spot_checks():
    _run("sphere-chart")


def test_detection_classes_for_the_whiskered_towers():
    _run("detection")


def test_wall_relation_annihilates_joker2():
    _run("wall-relation")


def test_whole_algebra_structure_counts():
    _run("extensions")


def test_structure_counts_take_a1_from_the_catalogue(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the ledger builds a cyclic quotient of its own")

    monkeypatch.setattr(verify, "cyclic_quotient", refuse)
    _run("extensions")


def test_unstable_quotients_match_the_towers():
    _run("unstable")


def test_cell_tensors_give_the_whiskered_modules():
    _run("tensor-cells")


def test_top_class_coaction_transcripts():
    _run("coaction")


def test_nonrealizability_certificates():
    _run("obstruction")


def test_property_sweeps():
    # the counts are pinned, so a sweep that quietly checks less fails here
    assert _run("properties") == (
        "associativity on 54418 monomial triples (degree <= 24), "
        "antipode involution and anti-multiplicativity (945 pairs), "
        "admissible-form round trips, d.d = 0 and minimality for 5 "
        "resolutions, and every catalogue entry validates"
    )


def test_property_sweeps_build_their_product_tables_once(monkeypatch):
    # the antipode sweep reads the associativity sweep's tables, degree <= 16
    build = verify._product_tables
    caps = []

    def counted(cap):
        caps.append(cap)
        return build(cap)

    monkeypatch.setattr(verify, "_product_tables", counted)
    _run("properties")
    assert caps == [24]


def test_property_sweep_catches_a_non_associative_product(monkeypatch):
    # one wrong entry in the sweep's product source: Sq(3) Sq(1) is Sq(1,1).
    # A sweep that took its products elsewhere, for example from the Sq(2^e)
    # matrices, which never put Sq(3) on the left, would miss it.
    product = verify._product_monomials

    def wrong(r, s):
        return frozenset() if (r, s) == ((3,), (1,)) else product(r, s)

    monkeypatch.setattr(verify, "_product_monomials", wrong)
    ok, detail = run_criterion(BY_SLUG["properties"])
    assert not ok
    assert detail.startswith("assertion failed: "), detail


def test_property_sweep_catches_a_wrong_antipode(monkeypatch):
    # chi(Sq(0,1)) gains the term Sq(3), and chi stays linear: only the
    # antipode sweeps see it, and they name a monomial of degree 3
    chi = verify.antipode

    def wrong(el):
        return chi(el) + sq(3) if (0, 1) in el.monomials else chi(el)

    monkeypatch.setattr(verify, "antipode", wrong)
    ok, detail = run_criterion(BY_SLUG["properties"])
    assert not ok
    assert ast.literal_eval(detail.removeprefix("assertion failed: ")) in milnor_basis(3), detail


def test_antipode_sweep_names_the_first_pair_that_fails(monkeypatch):
    # the identity is an involution, but Sq(1) Sq(2) = Sq(3) while
    # Sq(2) Sq(1) = Sq(3) + Sq(0,1), so it reverses no product
    monkeypatch.setattr(verify, "antipode", lambda el: el)
    assert run_criterion(BY_SLUG["properties"]) == (False, "assertion failed: ((1,), (2,))")


def test_the_ledger_passes_nothing_under_python_O():
    # -O strips the asserts every criterion checks with
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", "import sys; from steen.cli import main; sys.exit(main())"]
        + ["verify-suite", "paper"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    lines = done.stdout.splitlines()
    assert done.returncode == 1
    assert [line.split()[:2] for line in lines[:-1]] == [["FAIL", c.slug] for c in CRITERIA]
    assert lines[-1] == "verify-suite: FAILURES"
    assert "not checked: Python runs with -O" in lines[0]


def _packed(monkeypatch):
    """The package's sweep, taking its products from the given function."""

    def sweep(cap, product):
        monkeypatch.setattr(verify, "_product_monomials", product)
        return verify._associativity_triples(cap)

    return sweep


def _first_failure(sweep, product):
    try:
        sweep(24, product)
    except AssertionError as exc:
        return exc.args[0]
    return None


def test_packed_sweep_counts_every_triple(monkeypatch):
    assert _packed(monkeypatch)(24, _product_monomials) == 54418
    assert reference_associativity_triples(24, _product_monomials) == 54418


# (r, s): Sq(r) Sq(s) gets the first monomial of its degree toggled
CORRUPTIONS = [
    ((2,), (4,)),
    ((1,), (1,)),
    ((3,), (0, 1)),
    ((0, 2), (5,)),
    ((4, 1), (2,)),
    ((12,), (12,)),
    ((1,), (23,)),
    ((1,), (4, 2)),  # two z fail with the first failing x, y; the lower one counts
]


def test_packed_sweep_names_the_reference_first_failure(monkeypatch):
    failures = []
    for pair in CORRUPTIONS:

        def wrong(r, s, pair=pair):
            out = _product_monomials(r, s)
            if (r, s) == pair:
                out = out ^ {milnor_basis(mono_degree(r) + mono_degree(s))[0]}
            return out

        expected = _first_failure(reference_associativity_triples, wrong)
        assert expected is not None, pair
        assert _first_failure(_packed(monkeypatch), wrong) == expected, pair
        failures.append(expected)
    # the corruptions reach the last packed slot and the top total degree
    assert any(z == milnor_basis(mono_degree(z))[-1] for _, _, z in failures)
    assert any(sum(map(mono_degree, t)) == 24 for t in failures)
