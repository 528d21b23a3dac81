"""Polynomial algebras on characteristic classes with the Wu-formula action."""

from __future__ import annotations

from functools import lru_cache

from steen.dual import poly_mul
from steen.gf2 import bits
from steen.milnor import DEGREE_CAP, Algebra
from steen.module import FiniteModule, find_isomorphism

__all__ = [
    "PolyModule",
    "bso3",
    "bsu3",
    "compare_range",
    "truncate_quotient",
    "wu_action",
]

Exponents = tuple[int, ...]


class PolyModule:
    """A GF(2) polynomial algebra on graded generators, modulo pure powers.

    Immutable, with equality and hash by value: it keys the basis cache.
    """

    __slots__ = ("name", "generators", "relations")

    def __init__(
        self,
        name: str,
        generators: tuple[tuple[str, int, str], ...],
        relations: tuple[Exponents, ...] = (),
    ) -> None:
        names = [g for g, _, _ in generators]
        if len(set(names)) != len(names):
            raise ValueError(f"{name}: duplicate generator names")
        for g, d, flavor in generators:
            if d <= 0:
                raise ValueError(f"{name}: generator {g} of degree {d}")
            if flavor not in ("real", "complex"):
                raise ValueError(f"{name}: unknown flavor {flavor!r}")
            if flavor == "complex" and d % 2:
                raise ValueError(f"{name}: complex generator {g} of odd degree")
        padded = []
        for rel in relations:
            rel = tuple(rel) + (0,) * (len(generators) - len(rel))
            if len(rel) > len(generators) or min(rel, default=0) < 0:
                raise ValueError(f"{name}: bad relation exponents {rel}")
            if not any(rel):
                raise ValueError(f"{name}: unit relation")
            padded.append(rel)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", tuple(padded))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("PolyModule is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("PolyModule is immutable")

    def _key(self) -> tuple:
        return self.name, self.generators, self.relations

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyModule) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"PolyModule(name={self.name!r}, generators={self.generators!r},"
            f" relations={self.relations!r})"
        )

    @property
    def unit(self) -> Exponents:
        return (0,) * len(self.generators)

    def degree(self, m: Exponents) -> int:
        return sum(e * d for e, (_, d, _) in zip(m, self.generators))

    def mono_str(self, m: Exponents) -> str:
        parts = []
        for e, (g, _, _) in zip(m, self.generators):
            if e == 1:
                parts.append(g)
            elif e > 1:
                parts.append(f"{g}^{e}")
        return "*".join(parts) or "1"

    def reducible(self, m: Exponents) -> bool:
        return any(all(e >= r for e, r in zip(m, rel)) for rel in self.relations)

    def monomials(self, d: int) -> tuple[Exponents, ...]:
        """The reduced monomial basis in degree d."""
        return _monomials(self, d)

    def with_relations(self, *relations: Exponents) -> PolyModule:
        return PolyModule(self.name, self.generators, relations)


@lru_cache(maxsize=None)
def _monomials(P: PolyModule, d: int) -> tuple[Exponents, ...]:
    degrees = [deg for _, deg, _ in P.generators]

    def extend(i: int, left: int) -> list[Exponents]:
        if i == len(degrees):
            return [()] if left == 0 else []
        return [
            (e,) + tail
            for e in range(left // degrees[i] + 1)
            for tail in extend(i + 1, left - e * degrees[i])
        ]

    return tuple(sorted(m for m in extend(0, d) if not P.reducible(m)))


def _binom2(t: int, i: int) -> int:
    # binom(t, i) mod 2; negative upper arguments via binom(-a, i) = binom(a+i-1, i)
    if t < 0:
        t = -t + i - 1
    if i < 0 or i > t:
        return 0
    return int((t - i) & i == 0)


def _family_mono(P: PolyModule, flavor: str, j: int) -> Exponents | None:
    """The index-j class of the family, None when it is zero, the unit at 0."""
    if j == 0:
        return P.unit
    scale = 2 if flavor == "complex" else 1
    for i, (_, d, f) in enumerate(P.generators):
        if f == flavor and d == scale * j:
            return P.unit[:i] + (1,) + P.unit[i + 1 :]
    return None


def _wu_generator(P: PolyModule, r: int, gi: int) -> frozenset:
    _, dg, flavor = P.generators[gi]
    if flavor == "complex":
        if r % 2:
            return frozenset()
        rho, mu = r // 2, dg // 2
    else:
        rho, mu = r, dg
    terms = [(1, rho, mu)]
    terms += [(_binom2(rho - mu, i), rho - i, mu + i) for i in range(1, rho + 1)]
    out: set[Exponents] = set()
    for coeff, a, b in terms:
        if not coeff:
            continue
        wa = _family_mono(P, flavor, a)
        wb = _family_mono(P, flavor, b)
        if wa is None or wb is None:
            continue
        out ^= {tuple(x + y for x, y in zip(wa, wb))}
    return frozenset(out)


@lru_cache(maxsize=None)
def _wu(P: PolyModule, r: int, m: Exponents) -> frozenset:
    if r == 0:
        return frozenset({m})
    gi = next((i for i, e in enumerate(m) if e), None)
    if gi is None:
        return frozenset()
    if m[gi] == 1 and not any(m[gi + 1 :]):
        return _wu_generator(P, r, gi)
    head = P.unit[:gi] + (1,) + P.unit[gi + 1 :]
    rest = m[:gi] + (m[gi] - 1,) + m[gi + 1 :]
    out: frozenset = frozenset()
    for i in range(r + 1):
        out ^= poly_mul(_wu(P, i, head), _wu(P, r - i, rest))
    return out


def wu_action(P: PolyModule, r: int, m: Exponents) -> frozenset[Exponents]:
    """Apply Sq^r to a monomial; the value is a set of monomials mod 2."""
    m = tuple(m)
    if len(m) != len(P.generators) or (m and min(m) < 0):
        raise ValueError(f"{P.name}: bad monomial {m}")
    if r < 0:
        raise ValueError(f"negative square Sq^{r}")
    if P.degree(m) + r > DEGREE_CAP:
        raise ValueError(f"{P.name}: degree {P.degree(m) + r} exceeds cap {DEGREE_CAP}")
    return _wu(P, r, m)


def bso3() -> PolyModule:
    """The mod-2 cohomology of BSO(3), polynomial on w2 and w3."""
    return PolyModule("BSO(3)", (("w2", 2, "real"), ("w3", 3, "real")))


def bsu3() -> PolyModule:
    """The mod-2 cohomology of BSU(3), polynomial on c2 and c3."""
    return PolyModule("BSU(3)", (("c2", 4, "complex"), ("c3", 6, "complex")))


def truncate_quotient(
    P: PolyModule, algebra: Algebra, top: int, name: str | None = None
) -> FiniteModule:
    """The positive-degree quotient by the relation ideal, truncated above top."""
    if not 1 <= top <= DEGREE_CAP:
        raise ValueError(f"cap {top} outside 1..{DEGREE_CAP}")
    for rel in P.relations:
        base = P.degree(rel)
        for k in range(1, top - base + 1):
            for m in _wu(P, k, rel):
                if not P.reducible(m):
                    raise ValueError(
                        f"{P.name}: Sq^{k} {P.mono_str(rel)} leaves the"
                        f" relation ideal at {P.mono_str(m)}"
                    )
    basis: list[Exponents] = []
    degrees: list[int] = []
    for d in range(1, top + 1):
        for m in P.monomials(d):
            basis.append(m)
            degrees.append(d)
    index = {m: i for i, m in enumerate(basis)}
    span = max(degrees) - min(degrees) if degrees else 0
    tables: dict[int, tuple[int, ...]] = {}
    for k in range(1, span + 1):
        if not algebra.contains((k,)):
            continue
        rows = []
        for m, d in zip(basis, degrees):
            row = 0
            if d + k <= top:
                for mm in _wu(P, k, m):
                    if not P.reducible(mm):
                        row |= 1 << index[mm]
            rows.append(row)
        tables[k] = tuple(rows)
    rels = "+".join(map(P.mono_str, P.relations))
    label = name or (f"{P.name}/({rels})@{top}" if rels else f"{P.name}@{top}")
    M = FiniteModule(label, algebra, tuple(map(P.mono_str, basis)), tuple(degrees), tables)
    problems = M.validate()
    if problems:
        raise ValueError("; ".join(problems))
    return M


def compare_range(M: FiniteModule, N: FiniteModule, lo: int, hi: int) -> bool:
    """Degreewise-equivariant isomorphism verdict on the classes in [lo, hi]."""
    return find_isomorphism(_clip(M, lo, hi), _clip(N, lo, hi)) is not None


def _clip(M: FiniteModule, lo: int, hi: int) -> FiniteModule:
    # actions stay inside the window: squares only raise degree, and rows
    # landing above hi are cut, so every surviving route survives whole
    if not M.validated:
        problems = M.validate()
        if problems:
            raise ValueError("; ".join(problems))
    keep = [i for i, d in enumerate(M.degrees) if lo <= d <= hi]
    pos = {i: p for p, i in enumerate(keep)}
    degrees = tuple(M.degrees[i] for i in keep)
    tables: dict[int, tuple[int, ...]] = {}
    for k, table in M.generator_tables.items():
        rows = []
        for i in keep:
            row = 0
            if M.degrees[i] + k <= hi:
                for j in bits(table[i]):
                    row |= 1 << pos[j]
            rows.append(row)
        tables[k] = tuple(rows)
    clipped = FiniteModule(
        f"{M.name}[{lo}..{hi}]",
        M.algebra,
        tuple(M.gens[i] for i in keep),
        degrees,
        tables,
    )
    problems = clipped.validate()
    if problems:
        raise ValueError("; ".join(problems))
    return clipped
