"""Minimal free resolutions, Ext charts, and chart rendering.

The resolver is generator-driven, as in Bruner, "Calculation of large Ext
modules" (1993).  Each d_s is a `FreeMap`: its generators g_a carry their
values, and the column of Sq(x) g_a comes from the recurrence
Sq(x) = sum Sq(2^e) Sq(x') as a sum of lower columns pushed through the
matrices of Sq(2^e) on the target, with no general Milnor product.  The
target of d_0 is the module itself, whose bitsets are global, so its Sq(2^e)
tables serve every degree; the target of d_s for s > 0 is C_(s-1) in block
order, and `_FreeModule` gives its matrices.

Every stage runs the same loop.  Each set of degree-t columns of d_s goes
through one elimination.  Column i enters the echelon with tag 1 << i, so
every dependent column leaves a combo in the kernel of d_s: these combos are
the cycles at (s+1, t).  They are the combos a separate kernel of all
degree-t columns would give, since the generators of C_s added at t come
last in block order and are independent of the columns before them.  The
candidates at (s, t) are the cycles of stage s-1, and at stage 0 the unit
vectors of the module in degree t; each candidate outside the span so far
becomes a generator.  A stage-0 generator's value is its unit vector, and a
later one's is its residual.  The rows stay fully reduced, so reducing a
vector needs only the rows whose pivots it has set.

Each column is the same element in the same basis as a direct product
Sq(x) * d_s(g_a) would give, so the kernel combinations, the chosen
generators and every rendered output are byte for byte those of the
product-by-product construction.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

# kernel is unused here but stays bound: bench/tracer.py wraps it by this name
from steen.gf2 import Echelon, bits, kernel
from steen.milnor import (
    DEGREE_CAP,
    Algebra,
    Element,
    FreeMap,
    Monomial,
    enumerate_basis,
    generator_matrix,
    milnor_product,
    mono_str,
)
from steen.module import FiniteModule, restrict

__all__ = [
    "ExtChart",
    "Resolution",
    "S_MAX_LIMIT",
    "T_MAX_LIMIT",
    "dump_resolution",
    "emit_chart",
    "ext_chart",
    "minimal_resolution",
    "resolution_checks",
]

S_MAX_LIMIT = 16
T_MAX_LIMIT = DEGREE_CAP

# free-module entries: target generator index -> element of the algebra
Entry = dict[int, Element]


class Resolution:
    """A minimal free resolution, stage -1 being the module itself."""

    def __init__(self, algebra: Algebra, module: FiniteModule, s_max: int, t_max: int) -> None:
        self.algebra = algebra
        self.module = module
        self.s_max = s_max
        self.t_max = t_max
        self.degrees: list[list[int]] = []
        self.values: list[int] = []
        self.diffs: list[list[Entry]] = []

    def rank(self, s: int, t: int) -> int:
        if not 0 <= s < len(self.degrees):
            return 0
        return self.degrees[s].count(t)

    def dot(self, s: int, j: int) -> tuple[int, int, int]:
        """Chart coordinates (s, t, index among same-bidegree generators)."""
        t = self.degrees[s][j]
        return s, t, self.degrees[s][:j].count(t)

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(d)) for d in self.degrees)
        return f"<resolution of {self.module.name}, stage sizes [{sizes}]>"


class _FreeModule:
    """A free module's basis in each degree, and Sq(2^e) acting on it.

    The degree-u basis is in block order: one block per generator j with
    degree t_j <= u, holding enumerate_basis(algebra, u - t_j).  The
    generator degrees must be complete and ascending.
    """

    def __init__(self, algebra: Algebra, degrees: list[int]) -> None:
        self.algebra = algebra
        self.degrees = degrees
        self._offsets: dict[int, list[int]] = {}
        self._matrices: dict[tuple[int, int], list[int]] = {}

    def offsets(self, u: int) -> list[int]:
        """Start of each block in degree u, then the total dimension."""
        hit = self._offsets.get(u)
        if hit is None:
            hit = [0]
            for tj in self.degrees:
                if tj > u:
                    break
                hit.append(hit[-1] + len(enumerate_basis(self.algebra, u - tj)))
            self._offsets[u] = hit
        return hit

    def matrix(self, e: int, u: int) -> list[int]:
        """Columns of Sq(2^e) from degree u to degree u + 2^e."""
        hit = self._matrices.get((e, u))
        if hit is None:
            target = self.offsets(u + (1 << e))
            hit = []
            for j, tj in enumerate(self.degrees[: len(self.offsets(u)) - 1]):
                shift = target[j]
                hit.extend(
                    col << shift for col in generator_matrix(self.algebra, e, u - tj)
                )
            self._matrices[(e, u)] = hit
        return hit

    def element(self, u: int, vec: int) -> Entry:
        """A degree-u bitset as generator index -> algebra element."""
        offsets = self.offsets(u)
        terms: dict[int, list[Monomial]] = {}
        for c in bits(vec):
            j = bisect_right(offsets, c) - 1
            basis = enumerate_basis(self.algebra, u - self.degrees[j])
            terms.setdefault(j, []).append(basis[c - offsets[j]])
        return {j: Element(monos) for j, monos in terms.items()}


def minimal_resolution(
    algebra: Algebra, M: FiniteModule, s_max: int, t_max: int
) -> Resolution:
    """Resolve M by free modules over the algebra, through stage s_max."""
    if not 0 <= s_max <= S_MAX_LIMIT:
        raise ValueError(f"s_max must be between 0 and {S_MAX_LIMIT}")
    if not 0 <= t_max <= T_MAX_LIMIT:
        raise ValueError(f"t_max must be between 0 and {T_MAX_LIMIT}")
    if algebra.n is not None and M.algebra.n is None:
        M = restrict(M, algebra)
    elif algebra.n != M.algebra.n:
        raise ValueError(f"{M.name} is not a module over {algebra.name}")
    if not M.validated:
        problems = M.validate()
        if problems:
            raise ValueError(problems[0])

    res = Resolution(algebra, M, s_max, t_max)
    # cycles[t]: the candidates at (s, t), as combos over the basis of the
    # target of d_s; at stage 0 they are the unit vectors of M
    cycles = {t: [1 << i for i in M.basis_at(t)] for t in range(M.bottom, t_max + 1)}
    target: _FreeModule | None = None
    d = FreeMap(algebra, lambda e, u: M.table(1 << e))
    for s in range(s_max + 1):
        diffs_s: list[Entry] = []
        following: dict[int, list[int]] = {}
        for t in range(M.bottom, t_max + 1):
            combos = cycles[t]
            if s == s_max and not combos:
                continue
            span = Echelon()
            kept: list[int] = []
            for i, vec in enumerate(d.columns(t)):
                residual, combo = span.add(vec, 1 << i)
                if not residual:
                    kept.append(combo)
            following[t] = kept
            for combo in combos:
                residual = span.add(combo)[0]
                if not residual:
                    continue
                if target is None:
                    # d_0 of a new generator is the unit vector itself
                    res.values.append(combo)
                    d.add(t, combo)
                else:
                    diffs_s.append(target.element(t, residual))
                    d.add(t, residual)
        res.degrees.append(d.degrees)
        res.diffs.append(diffs_s)
        target = _FreeModule(algebra, d.degrees)
        d = FreeMap(algebra, target.matrix)
        cycles = following
    return res


def resolution_checks(R: Resolution) -> list[str]:
    """Verify d*d = 0 and minimality; empty list means the resolution is valid."""
    problems = []
    for s in range(1, len(R.degrees)):
        for a, entry in enumerate(R.diffs[s]):
            for j, e in entry.items():
                if () in e.monomials:
                    problems.append(f"d {s} g{s}_{a}: unit coefficient on g{s-1}_{j}")
        if s == 1:
            for a, entry in enumerate(R.diffs[1]):
                vec = 0
                for j, e in entry.items():
                    vec ^= R.module.act(e, R.values[j])
                if vec:
                    problems.append(f"d0 d1 g1_{a} is nonzero in {R.module.name}")
        else:
            for a, entry in enumerate(R.diffs[s]):
                acc: dict[int, Element] = {}
                for j, e in entry.items():
                    for j2, e2 in R.diffs[s - 1][j].items():
                        prod = milnor_product(e, e2)
                        acc[j2] = acc.get(j2, Element()) + prod
                for j2, total in acc.items():
                    if total:
                        problems.append(f"d{s-1} d{s} g{s}_{a} hits g{s-2}_{j2}")
    return problems


class ExtChart(NamedTuple):
    """Ext ranks by bidegree plus h_i multiplication lines between dots."""

    ranks: dict[tuple[int, int], int]
    h_lines: list[tuple[int, tuple[int, int, int], tuple[int, int, int]]]
    range: tuple[int, int]


def ext_chart(R: Resolution) -> ExtChart:
    ranks: dict[tuple[int, int], int] = {}
    for s, degs in enumerate(R.degrees):
        for t in degs:
            ranks[(s, t)] = ranks.get((s, t), 0) + 1
    lines = []
    for s in range(1, len(R.degrees)):
        for a, entry in enumerate(R.diffs[s]):
            for j, e in entry.items():
                for i in range(4):
                    if ((1 << i),) in e.monomials:
                        lines.append((i, R.dot(s - 1, j), R.dot(s, a)))
    lines.sort()
    return ExtChart(ranks, lines, (R.s_max, R.t_max))


def _cell(rank: int) -> str:
    if rank == 0:
        return "."
    return str(rank) if rank < 10 else "+"


def _chart_text(C: ExtChart) -> str:
    s_max, t_max = C.range
    stem_max = max(t_max - s_max, 0)
    header = "   " + "".join(f"{stem:>4}" for stem in range(stem_max + 1))
    lines = [header]
    if C.ranks:
        for s in range(s_max, -1, -1):
            row = "".join(
                f"{_cell(C.ranks.get((s, s + stem), 0)):>4}"
                for stem in range(stem_max + 1)
            )
            lines.append(f"{s:>3}" + row)
    return "\n".join(lines) + "\n"


def _dot_xy(dot: tuple[int, int, int]) -> tuple[int, int]:
    s, t, idx = dot
    return 20 * (t - s) + 6 * idx, -20 * s


def _chart_svg(C: ExtChart) -> str:
    s_max, t_max = C.range
    stem_max = max(t_max - s_max, 0)
    x0, y0 = -10, -20 * s_max - 10
    width, height = 20 * stem_max + 30, 20 * s_max + 20
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0} {y0} {width} {height}">',
        '<g stroke="black" fill="black">',
    ]
    for i, src, dst in C.h_lines:
        (x1, y1), (x2, y2) = _dot_xy(src), _dot_xy(dst)
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    dots = sorted(
        (s, t, idx)
        for (s, t), rank in C.ranks.items()
        for idx in range(rank)
    )
    for dot in dots:
        x, y = _dot_xy(dot)
        out.append(f'<circle cx="{x}" cy="{y}" r="3"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_chart(C: ExtChart, format: str = "text") -> bytes:
    if format == "text":
        return _chart_text(C).encode()
    if format == "svg":
        return _chart_svg(C).encode()
    raise ValueError(f"unknown chart format {format!r}")


def dump_resolution(R: Resolution) -> str:
    """Differentials as text, one line per generator."""
    lines = []
    for j, value in enumerate(R.values):
        targets = " + ".join(R.module.gens[i] for i in bits(value))
        lines.append(f"d 0 g0_{j} = {targets}")
    for s in range(1, len(R.degrees)):
        for a, entry in enumerate(R.diffs[s]):
            terms = [
                f"{mono_str(m)} g{s-1}_{j}"
                for j in sorted(entry)
                for m in sorted(entry[j].monomials)
            ]
            lines.append(f"d {s} g{s}_{a} = " + " + ".join(terms))
    return "\n".join(lines) + "\n" if lines else ""
