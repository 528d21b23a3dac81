"""Exhaustive vanishing check against the secondary-operation factorization."""

from __future__ import annotations

from typing import NamedTuple

from steen.catalogue import get_module
from steen.milnor import basis_count, enumerate_basis, full_a
from steen.module import FiniteModule, double

__all__ = [
    "HypothesisCheck",
    "N_LIMIT",
    "ObstructionReport",
    "TermCheck",
    "admissible_pairs",
    "check_hypotheses",
    "format_report",
    "obstruction_report",
    "report_lines",
]

N_LIMIT = 12


class HypothesisCheck(NamedTuple):
    """Sq^{2^r} u must vanish for the factorization to apply."""

    r: int
    degree: int
    rank: int
    ok: bool


class TermCheck(NamedTuple):
    """One summand alpha_{i,j} Phi_{i,j} u of the factorization."""

    i: int
    j: int
    phi_degree: int
    rank: int
    alpha_degree: int
    gate_ok: bool
    verdict: str  # vanishes | survives | unsound


class ObstructionReport(NamedTuple):
    n: int
    k: int
    u_degree: int
    hypothesis_checks: tuple[HypothesisCheck, ...]
    terms: tuple[TermCheck, ...]
    target_nonzero: bool
    conclusion: str  # NonRealizable | Inconclusive


def admissible_pairs(k: int) -> list[tuple[int, int]]:
    """All (i, j) with 0 <= i <= j <= k and j != i + 1, sorted."""
    return [
        (i, j)
        for i in range(k + 1)
        for j in range(i, k + 1)
        if j != i + 1
    ]


def _joker_tower(n: int) -> FiniteModule:
    return double(get_module("joker"), n - 1, name=f"joker({n})")


def check_hypotheses(n: int) -> tuple[HypothesisCheck, ...]:
    """Verify Sq^{2^r} u = 0 for 0 <= r <= k on the degree-2^{n-1} class."""
    if n <= 3:
        raise ValueError(
            f"n = {n} gives k = {n - 1}, but the factorization needs k >= 3"
        )
    if n > N_LIMIT:
        raise ValueError(f"n = {n} beyond the supported bound {N_LIMIT}")
    M = _joker_tower(n)
    u_degree = 1 << (n - 1)
    u = 1 << M.basis_at(u_degree)[0]
    checks = []
    for r in range(n):
        degree = u_degree + (1 << r)
        rank = len(M.basis_at(degree))
        ok = M.act_mono(((1 << r),), u) == 0
        checks.append(HypothesisCheck(r, degree, rank, ok))
    return tuple(checks)


def _alpha_vanishes(M: FiniteModule, alpha_degree: int, phi_degree: int) -> bool:
    """Whether every degree-alpha element of the algebra kills degree phi.

    The tower acts through the Verschiebung, so a monomial moves a class
    only when all its exponents are divisible by the doubling power; the
    divisible monomials are scaled copies of a much lower-degree basis.
    """
    base, e = M.vsource
    step = 1 << e
    if alpha_degree % step:
        return True
    candidates = [
        tuple(r << e for r in m)
        for m in enumerate_basis(full_a(), alpha_degree >> e)
    ]
    for idx in M.basis_at(phi_degree):
        for mono in candidates:
            if M.act_mono(mono, 1 << idx):
                return False
    return True


def obstruction_report(n: int) -> ObstructionReport:
    """Check every factorization summand against the degree-2^{n-1} class."""
    hypothesis = check_hypotheses(n)
    M = _joker_tower(n)
    k = n - 1
    u_degree = 1 << (n - 1)
    u = 1 << M.basis_at(u_degree)[0]
    terms = []
    for i, j in admissible_pairs(k):
        phi_degree = u_degree + (1 << i) + (1 << j) - 1
        rank = len(M.basis_at(phi_degree))
        alpha_degree = (1 << (k + 1)) - (1 << i) - (1 << j) + 1
        # equal counts mean the full algebra and A(n) share this degree,
        # so acting through the tower is the only possible action
        gate_ok = basis_count(full_a(), alpha_degree) == basis_count(
            M.algebra, alpha_degree
        )
        if not gate_ok:
            verdict = "unsound"
        elif rank == 0 or _alpha_vanishes(M, alpha_degree, phi_degree):
            verdict = "vanishes"
        else:
            verdict = "survives"
        terms.append(TermCheck(i, j, phi_degree, rank, alpha_degree, gate_ok, verdict))
    target_nonzero = M.act_mono(((1 << n),), u) != 0
    good = (
        all(h.ok for h in hypothesis)
        and all(t.verdict == "vanishes" for t in terms)
        and target_nonzero
    )
    return ObstructionReport(
        n,
        k,
        u_degree,
        hypothesis,
        tuple(terms),
        target_nonzero,
        "NonRealizable" if good else "Inconclusive",
    )


def report_lines(report: ObstructionReport) -> list[str]:
    """One machine-readable record per factorization term."""
    return [
        f"{report.n} {t.i} {t.j} {t.phi_degree} {t.rank} {t.alpha_degree} {t.verdict}"
        for t in report.terms
    ]


def format_report(report: ObstructionReport) -> str:
    lines = [
        f"joker({report.n}) tower: class u in degree {report.u_degree}, k = {report.k}",
        "hypothesis Sq^(2^r) u = 0:",
    ]
    for h in report.hypothesis_checks:
        state = "ok" if h.ok else "FAILS"
        lines.append(f"  r={h.r}  degree {h.degree}  rank {h.rank}  {state}")
    lines.append(f"factorization of Sq^{1 << (report.k + 1)} u, terms (i, j):")
    for t in report.terms:
        lines.append(
            f"  ({t.i},{t.j})  deg Phi u {t.phi_degree}  rank {t.rank}"
            f"  deg alpha {t.alpha_degree}  {t.verdict}"
        )
    lines.append(f"target Sq^{1 << report.n} u nonzero: {report.target_nonzero}")
    lines.append(f"conclusion: {report.conclusion}")
    return "\n".join(lines) + "\n"
