"""Minimal free resolutions, Ext charts, and chart rendering.

The resolver is generator-driven, as in Bruner, "Calculation of large Ext
modules" (1993).  Each d_s is a `FreeMap`: its generators g_a carry their
values, and the column of Sq(x) g_a comes from the recurrence
Sq(x) = sum Sq(2^e) Sq(x') as a sum of lower columns pushed through the
matrices of Sq(2^e) on the target, with no general Milnor product.  The
target of d_0 is the module itself, whose bitsets are global, so its Sq(2^e)
tables serve every degree; the target of d_s for s > 0 is C_(s-1) in block
order, and `_FreeModule` gives its matrices.

Every stage runs the same loop.  The degree-t columns of d_s go through one
`TopEchelon`, column i with tag 1 << i, so every dependent column leaves a
combo in the kernel of d_s: these combos are the cycles at (s+1, t).  They
are the combos a separate kernel of all degree-t columns would give, since
the generators of C_s added at t come last in block order and are
independent of the columns before them.  The candidates at (s, t) are the
cycles of stage s-1, and at stage 0 the unit vectors of the module in
degree t.  A candidate c_k outside the span of the image B and the
candidates before it becomes a generator, valued at its unit vector at
stage 0 and after that at its residual against that span in an `Echelon`,
whose residuals depend only on the row space; `Resolution.terms` decodes
them for dumps and checks, and `ext_chart` reads its h_i lines off their bits.

The top-bit rule.  The candidates have strictly increasing top bits
(ascending unit vectors, or kernel combos), and B lies in their span, so
c_k lies in the span of B and the earlier candidates exactly when some b in
B has top(b) = top(c_k):
- such a b is c_k plus earlier candidates, so c_k is b plus them;
- if c_k = b + z, z spanned by earlier candidates, then top(b) = top(c_k).
The top bits of B are those of the `TopEchelon`'s rows.  So only an (s, t)
with new generators builds the `Echelon` of B, and only the new generators
are added to it; the skipped candidates lie in the span so far, so each
residual is the one that adding every candidate in turn would give.

Each column is the same element in the same basis as a direct product
Sq(x) * d_s(g_a) would give, so the kernel combinations, the chosen
generators and every rendered output are byte for byte those of the
product-by-product construction.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterator, NamedTuple

# kernel stays bound, unused: bench/tests/test_bench.py asserts the tracer wraps it
from steen.gf2 import Echelon, TopEchelon, bits, kernel
from steen.milnor import (
    DEGREE_CAP,
    Algebra,
    Element,
    FreeMap,
    Monomial,
    basis_index,
    enumerate_basis,
    generator_matrix,
    milnor_product,
    mono_str,
)
from steen.module import FiniteModule, restrict

__all__ = [
    "CHART_FORMATS",
    "ExtChart",
    "Resolution",
    "S_MAX_LIMIT",
    "T_MAX_LIMIT",
    "dump_resolution",
    "emit_chart",
    "ext_chart",
    "minimal_resolution",
    "resolution_checks",
    "window_problems",
]

S_MAX_LIMIT = 16
T_MAX_LIMIT = DEGREE_CAP


class Resolution:
    """A minimal free resolution, stage -1 being the module itself."""

    def __init__(self, algebra: Algebra, module: FiniteModule, s_max: int, t_max: int) -> None:
        self.algebra = algebra
        self.module = module
        self.s_max = s_max
        self.t_max = t_max
        self.degrees: list[list[int]] = []
        # d_s(g_a) as a bitset: over M's basis at s = 0, else over C_(s-1) in block order
        self.values: list[list[int]] = []

    @cached_property
    def _free(self) -> list[_FreeModule]:
        """C_s for each stage s: the block order of d_(s+1)'s bitsets."""
        return [_FreeModule(self.algebra, degrees) for degrees in self.degrees]

    def terms(self, s: int, a: int) -> Iterator[tuple[int, Monomial]]:
        """The terms Sq(x) g_(s-1),j of d_s(g_a), s >= 1, as pairs (j, x) in block order."""
        if s < 1:
            raise ValueError(f"d_{s} has no terms: s must be at least 1")
        return self._free[s - 1].terms(self.degrees[s][a], self.values[s][a])

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
        """Columns of Sq(2^e) from degree u to degree u + 2^e.

        Generator j's block is generator_matrix(algebra, e, u - t_j) shifted
        to the start of its block in degree u + 2^e.  A block that starts at
        0, as the first always does, is taken as it is, with no shift.
        """
        hit = self._matrices.get((e, u))
        if hit is None:
            target = self.offsets(u + (1 << e))
            hit = []
            for j, tj in enumerate(self.degrees[: len(self.offsets(u)) - 1]):
                columns = generator_matrix(self.algebra, e, u - tj)
                shift = target[j]
                hit.extend(map(shift.__rlshift__, columns) if shift else columns)
            self._matrices[(e, u)] = hit
        return hit

    def terms(self, u: int, vec: int) -> Iterator[tuple[int, Monomial]]:
        """A degree-u bitset as pairs (generator index, monomial), in block order."""
        offsets = self.offsets(u)
        for j, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            basis = enumerate_basis(self.algebra, u - self.degrees[j])
            for i in bits((vec >> lo) & ((1 << (hi - lo)) - 1)):
                yield j, basis[i]


def window_problems(s_max: int, t_max: int) -> list[str]:
    """Guard violations of a resolution window, empty when it is accepted."""
    problems = []
    if not 0 <= s_max <= S_MAX_LIMIT:
        problems.append(f"s_max must be between 0 and {S_MAX_LIMIT}, got {s_max}")
    if not 0 <= t_max <= T_MAX_LIMIT:
        problems.append(f"t_max must be between 0 and {T_MAX_LIMIT}, got {t_max}")
    return problems


def minimal_resolution(
    algebra: Algebra, M: FiniteModule, s_max: int, t_max: int
) -> Resolution:
    """Resolve M by free modules over the algebra, through stage s_max.

    A module over another algebra is read over this one by `restrict`: any
    subalgebra, or one that agrees with M's up to its span.  It is then
    validated.
    """
    problems = window_problems(s_max, t_max)
    if problems:
        raise ValueError(problems[0])
    if algebra != M.algebra:
        M = restrict(M, algebra)
    if not M.validated:
        problems = M.validate()
        if problems:
            raise ValueError(problems[0])

    res = Resolution(algebra, M, s_max, t_max)
    # cycles[t]: the candidates at (s, t), as combos over the basis of the
    # target of d_s; at stage 0 they are the unit vectors of M
    cycles = {t: [1 << i for i in M.basis_at(t)] for t in range(M.bottom, t_max + 1)}
    d = FreeMap(algebra, lambda e, u: M.table(1 << e))
    for s in range(s_max + 1):
        values: list[int] = []
        following: dict[int, list[int]] = {}
        for t in range(M.bottom, t_max + 1):
            combos = cycles[t]
            if s == s_max and not combos:
                continue
            span = TopEchelon(d.columns(t))
            following[t] = span.kernel()
            if len(combos) == span.rank:
                # the image lies in the span of the combos (a kernel basis,
                # or M_t at stage 0), so it is all of it: no new generators
                continue
            # the top-bit rule: a candidate whose top bit no boundary has is new
            new = [combo for combo in combos if not span.has_top(combo)]
            image = Echelon()
            image.extend(span.basis())
            for combo in new:
                residual = image.add(combo)
                values.append(residual if s else combo)
                d.add(t, values[-1])
        res.degrees.append(d.degrees)
        res.values.append(values)
        d = FreeMap(algebra, _FreeModule(algebra, d.degrees).matrix)  # d_(s+1), onto C_s
        cycles = following
    return res


def resolution_checks(R: Resolution) -> list[str]:
    """Verify d*d = 0 and minimality; empty list means the resolution is valid.
    Bits outside a differential's target are reported first, and alone."""
    problems = []
    for s, values in enumerate(R.values):
        for a, value in enumerate(values):
            t = R.degrees[s][a]
            if s:
                dim = R._free[s - 1].offsets(t)[-1]
                stray = value >> dim << dim
                where = f"is past dim C_{s-1} = {dim}"
            else:
                stray = value & ~sum(1 << i for i in R.module.basis_at(t))
                where = f"is not a class of {R.module.name}"
            if stray:
                problems.append(f"d {s} g{s}_{a}: bit {next(bits(stray))} {where} in degree {t}")
    if problems:
        return problems
    below: list[dict[int, Element]] = []
    for s in range(1, len(R.degrees)):
        diffs = []  # d_s(g_a) as target generator index -> algebra element
        for a in range(len(R.degrees[s])):
            entry: dict[int, set] = {}
            for j, x in R.terms(s, a):
                if x == ():
                    problems.append(f"d {s} g{s}_{a}: unit coefficient on g{s-1}_{j}")
                entry.setdefault(j, set()).add(x)
            diffs.append({j: Element.from_set(frozenset(xs)) for j, xs in entry.items()})
        if s == 1:
            for a, entry in enumerate(diffs):
                vec = 0
                for j, e in entry.items():
                    vec ^= R.module.act(e, R.values[0][j])
                if vec:
                    problems.append(f"d0 d1 g1_{a} is nonzero in {R.module.name}")
        else:
            for a, entry in enumerate(diffs):
                acc: dict[int, Element] = {}
                for j, e in entry.items():
                    for j2, e2 in below[j].items():
                        prod = milnor_product(e, e2)
                        acc[j2] = acc.get(j2, Element()) + prod
                for j2, total in acc.items():
                    if total:
                        problems.append(f"d{s-1} d{s} g{s}_{a} hits g{s-2}_{j2}")
        below = diffs
    return problems


class ExtChart(NamedTuple):
    """Ext ranks by bidegree plus h_i multiplication lines between dots.

    The stem axis starts at stem_min, min(0, the module's bottom degree): C_s
    is generated in degrees bottom + s and up, so no class lies further left.
    """

    ranks: dict[tuple[int, int], int]
    h_lines: list[tuple[int, tuple[int, int, int], tuple[int, int, int]]]
    range: tuple[int, int]
    stem_min: int


def ext_chart(R: Resolution) -> ExtChart:
    """The ranks of Ext, and an h_i line for each Sq(2^i) term, i < 4, of a d_s.

    The term Sq(2^i) g_(s-1),j of d_s(g_a) is one bit of the bitset
    values[s][a]: the block of g_j starts at offsets(t_a)[j] in C_(s-1), and
    Sq(2^i) sits at its position in enumerate_basis(algebra, 2^i).  So each
    pair with t_a - t_j = 2^i tests that bit, and no term is decoded.  When
    Sq(2^i) is not in the algebra it draws no line.
    """
    ranks: dict[tuple[int, int], int] = {}
    # per stage, the generators of each degree t in order: the index of g_a
    # in its list is its dot's index among the generators of bidegree (s, t)
    by_degree: list[dict[int, list[int]]] = []
    for s, degs in enumerate(R.degrees):
        groups: dict[int, list[int]] = {}
        for a, t in enumerate(degs):
            groups.setdefault(t, []).append(a)
            ranks[(s, t)] = len(groups[t])
        by_degree.append(groups)
    units = [basis_index(R.algebra, 1 << i).get((1 << i,)) for i in range(4)]
    lines = []
    for s in range(1, len(R.degrees)):
        values, below = R.values[s], by_degree[s - 1]
        for t, group in by_degree[s].items():
            offsets = R._free[s - 1].offsets(t)
            for i, unit in enumerate(units):
                if unit is None:
                    continue
                for k, j in enumerate(below.get(t - (1 << i), ())):
                    bit = offsets[j] + unit
                    for b, a in enumerate(group):
                        if values[a] >> bit & 1:
                            lines.append((i, (s - 1, t - (1 << i), k), (s, t, b)))
    lines.sort()
    return ExtChart(ranks, lines, (R.s_max, R.t_max), min(0, R.module.bottom))


def _cell(rank: int) -> str:
    if rank == 0:
        return "."
    return str(rank) if rank < 10 else "+"


def _chart_text(C: ExtChart) -> str:
    s_max, t_max = C.range
    stems = range(C.stem_min, max(t_max - s_max, 0) + 1)
    header = "   " + "".join(f"{stem:>4}" for stem in stems)
    lines = [header]
    if C.ranks:
        for s in range(s_max, -1, -1):
            row = "".join(
                f"{_cell(C.ranks.get((s, s + stem), 0)):>4}" for stem in stems
            )
            lines.append(f"{s:>3}" + row)
    return "\n".join(lines) + "\n"


def _dot_xy(dot: tuple[int, int, int]) -> tuple[int, int]:
    s, t, idx = dot
    return 20 * (t - s) + 6 * idx, -20 * s


def _chart_svg(C: ExtChart) -> str:
    s_max, t_max = C.range
    stem_max = max(t_max - s_max, 0)
    x0, y0 = 20 * C.stem_min - 10, -20 * s_max - 10
    width, height = 20 * (stem_max - C.stem_min) + 30, 20 * s_max + 20
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


# the one list of chart formats, read by --format and the STEEN_FORMAT check too
CHART_FORMATS: dict[str, Callable[[ExtChart], str]] = {"text": _chart_text, "svg": _chart_svg}


def emit_chart(C: ExtChart, format: str = "text") -> bytes:
    if format not in CHART_FORMATS:
        raise ValueError(f"unknown chart format {format!r}")
    return CHART_FORMATS[format](C).encode()


def dump_resolution(R: Resolution) -> str:
    """Differentials as text, one line per generator."""
    lines = []
    for j, value in enumerate(R.values[0]):
        targets = " + ".join(R.module.gens[i] for i in bits(value))
        lines.append(f"d 0 g0_{j} = {targets}")
    for s in range(1, len(R.degrees)):
        for a in range(len(R.degrees[s])):
            terms = " + ".join(f"{mono_str(x)} g{s-1}_{j}" for j, x in R.terms(s, a))
            lines.append(f"d {s} g{s}_{a} = {terms}")
    return "\n".join(lines) + "\n" if lines else ""
