"""Acceptance ledger: one test per criterion, printing one pass/fail line each.

Every check recomputes its facts from scratch through steen.verify, so this
module and the verify-suite subcommand report the same thirteen lines.
"""

from __future__ import annotations

from steen import verify
from steen.verify import BY_SLUG, CRITERIA, run_criterion


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
