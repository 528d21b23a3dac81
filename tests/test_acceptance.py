"""Acceptance ledger: one test per criterion, printing one pass/fail line each.

Every check recomputes its facts from scratch through steen.verify, so this
module and the verify-suite subcommand report the same thirteen lines.
"""

from __future__ import annotations

from oracles import reference_associativity_triples
from steen import verify
from steen.milnor import _product_monomials, milnor_basis, mono_degree
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
