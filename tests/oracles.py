"""Independent cross-checks used only by the test suite.

Everything here recomputes structure by a different route than the package:
products through the dual Hopf-algebra pairing, admissible rewriting through
the Adem relations, the antipode through the conjugate dual generators, and
Ext groups through the bar resolution.  Plain dict/set polynomial arithmetic
throughout; no package internals beyond basic GF(2) rank.  The exceptions are
thin lifts of package primitives that only the tests need (`solve`,
`echelon_contains` and `echelon_rows` over `Echelon`, `verschiebung` over
`verschiebung_monomial`, `substitute_zeta` over `zeta_in_xi`, `coproduct`,
`unit`, `save` over the serializers, and `apply`, `is_isomorphism` and
`commutes_with` on module maps), and six reference routes: the resolver,
which rebuilds minimal resolutions column by column from general Milnor
products instead of the package's Sq(2^e) recurrence;
`reference_isomorphism`, which walks every invertible matrix in each degree
instead of searching the Hom basis; `RowWalkingEchelon`, whose reduce walks
every stored row instead of the pivots set in the vector;
`all_pairs_associativity`, which checks (ab)x = a(bx) for every pair of basis
monomials instead of only a = Sq(2^e); `reference_cyclic_quotient`, which
spans the ideal by the products Sq(b) * rel instead of the Sq(2^e)
recurrence; and `reference_dualize`, which acts by the algebra element
chi(Sq^k) from `antipode` instead of running its recurrence on the tables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import comb

from steen.dual import zeta_in_xi
from steen.gf2 import Echelon, bits, kernel, rank
from steen.milnor import (
    Element,
    antipode,
    enumerate_basis,
    full_a,
    milnor_product,
    normalize,
    sq,
    verschiebung_monomial,
)
from steen.modfile import serialize, serialize_json
from steen.module import FiniteModule, ModuleMap, double, restrict
from steen.resolution import Resolution

Mono = tuple[int, ...]  # exponent tuple of xi_1, xi_2, ..., no trailing zeros
Poly = frozenset[Mono]
Tensor = frozenset[tuple[Mono, Mono]]

ONE: Mono = ()
P_ONE: Poly = frozenset({ONE})


def trim(m) -> Mono:
    m = list(m)
    while m and m[-1] == 0:
        m.pop()
    return tuple(m)


def xi_degree(m: Mono) -> int:
    return sum(e * ((1 << i) - 1) for i, e in enumerate(m, start=1))


def mono_mul(a: Mono, b: Mono) -> Mono:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim(x + y for x, y in zip(a, b))


def poly_mul(p: Poly, q: Poly) -> Poly:
    acc: set[Mono] = set()
    for a in p:
        for b in q:
            acc ^= {mono_mul(a, b)}
    return frozenset(acc)


def poly_pow(p: Poly, e: int) -> Poly:
    acc = P_ONE
    for _ in range(e):
        acc = poly_mul(acc, p)
    return acc


def xi(n: int, e: int = 1) -> Mono:
    return trim((0,) * (n - 1) + (e,)) if n > 0 else ONE


def tensor_mul(a: Tensor, b: Tensor) -> Tensor:
    acc: set[tuple[Mono, Mono]] = set()
    for l1, r1 in a:
        for l2, r2 in b:
            acc ^= {(mono_mul(l1, l2), mono_mul(r1, r2))}
    return frozenset(acc)


@lru_cache(maxsize=None)
def psi_xi(n: int) -> Tensor:
    """Coproduct of xi_n: sum over i of xi_{n-i}^{2^i} tensor xi_i."""
    return frozenset((xi(n - i, 1 << i), xi(i)) for i in range(n + 1))


@lru_cache(maxsize=None)
def psi_mono(m: Mono) -> Tensor:
    """Coproduct of a xi monomial, multiplicatively."""
    acc: Tensor = frozenset({(ONE, ONE)})
    for slot, e in enumerate(m, start=1):
        for _ in range(e):
            acc = tensor_mul(acc, psi_xi(slot))
    return acc


def xi_monomials(d: int) -> list[Mono]:
    """All xi monomials of degree d, by direct bounded search."""
    if d == 0:
        return [ONE]
    slots = 0
    while (1 << (slots + 1)) - 1 <= d:
        slots += 1
    out = []
    ranges = [range(d // ((1 << i) - 1) + 1) for i in range(1, slots + 1)]
    for exps in iproduct(*ranges):
        if sum(e * ((1 << i) - 1) for i, e in enumerate(exps, start=1)) == d:
            out.append(trim(exps))
    return out


def oracle_product(r: Mono, s: Mono) -> frozenset[Mono]:
    """Milnor product through the dual pairing.

    The coefficient of Sq(T) in Sq(R) Sq(S) equals the coefficient of
    xi^R tensor xi^S in psi(xi^T), with the first tensor factor carrying R.
    """
    d = xi_degree(r) + xi_degree(s)
    return frozenset(t for t in xi_monomials(d) if (r, s) in psi_mono(t))


# -- conjugate generators and the antipode ------------------------------------


@lru_cache(maxsize=None)
def zeta(n: int) -> Poly:
    """Conjugate generator: zeta_n = sum_{i<n} xi_{n-i}^{2^i} zeta_i."""
    if n == 0:
        return P_ONE
    acc: set[Mono] = set()
    for i in range(n):
        for m in poly_mul(frozenset({xi(n - i, 1 << i)}), zeta(i)):
            acc ^= {m}
    return frozenset(acc)


def zeta_substitute(m: Mono) -> Poly:
    """Substitute zeta_n for each xi_n letter of a monomial."""
    acc = P_ONE
    for slot, e in enumerate(m, start=1):
        acc = poly_mul(acc, poly_pow(zeta(slot), e))
    return acc


def oracle_antipode(r: Mono) -> frozenset[Mono]:
    """chi Sq(R) through the dual: coefficient of xi^R in zeta^E, over all E."""
    d = xi_degree(r)
    return frozenset(e for e in xi_monomials(d) if r in zeta_substitute(e))


# -- Adem relations -----------------------------------------------------------


def binom2(n: int, k: int) -> int:
    """Binomial coefficient mod 2 (Lucas): 1 iff k's digits sit inside n's."""
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if (n - k) & k == 0 else 0


@lru_cache(maxsize=None)
def adem_expand(word: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Rewrite a Sq word into admissible words with the Adem relations."""
    word = tuple(k for k in word if k != 0)
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        if a < 2 * b:
            acc: set[tuple[int, ...]] = set()
            for c in range(a // 2 + 1):
                if binom2(b - c - 1, a - 2 * c):
                    middle = (a + b - c, c) if c else (a + b,)
                    rewritten = word[:pos] + middle + word[pos + 2:]
                    for w in adem_expand(rewritten):
                        acc ^= {w}
            return frozenset(acc)
    return frozenset({word})


# -- bar-resolution Ext over A(1) ---------------------------------------------

A1_MONOS: tuple[Mono, ...] = ((), (1,), (2,), (3,), (0, 1), (1, 1), (2, 1), (3, 1))


@lru_cache(maxsize=None)
def _a1_positive_by_degree() -> dict[int, list[Mono]]:
    out: dict[int, list[Mono]] = {}
    for m in A1_MONOS:
        if m:
            out.setdefault(xi_degree(m), []).append(m)
    return out


@lru_cache(maxsize=None)
def _bar_basis(s: int, t: int) -> tuple[tuple[Mono, ...], ...]:
    """Degree-t basis of (A(1)^+)^{tensor s}: tuples of positive monomials."""
    if s == 0:
        return ((),) if t == 0 else ()
    by_deg = _a1_positive_by_degree()
    out = []
    for d, monos in sorted(by_deg.items()):
        for rest in _bar_basis(s - 1, t - d):
            for m in monos:
                out.append((m, *rest))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _bar_rank(s: int, t: int) -> int:
    """Rank of the bar differential (A1+)^{tensor s} -> (A1+)^{tensor s-1} at t."""
    if s < 1:
        return 0
    source = _bar_basis(s, t)
    target = {b: i for i, b in enumerate(_bar_basis(s - 1, t))}
    rows = []
    for tup in source:
        vec = 0
        for i in range(s - 1):
            for prod in oracle_product(tup[i], tup[i + 1]):
                image = tup[:i] + (prod,) + tup[i + 2:]
                vec ^= 1 << target[image]
        rows.append(vec)
    return rank(rows)


def oracle_ext_a1(s: int, t: int) -> int:
    """dim Ext^{s,t} over A(1) from the reduced bar complex."""
    return len(_bar_basis(s, t)) - _bar_rank(s, t) - _bar_rank(s + 1, t)


def oracle_wu_bso3(r: int, m: int) -> frozenset[tuple[int, int]]:
    """Sq^r w_m in F_2[w_2, w_3] by direct Wu expansion, as exponent pairs."""
    classes = {0: (0, 0), 2: (1, 0), 3: (0, 1)}

    def comb2(t: int, i: int) -> int:
        if t < 0:
            t = -t + i - 1  # binom(-a, i) = (-1)^i binom(a + i - 1, i)
        return comb(t, i) % 2 if 0 <= i <= t else 0

    terms = [(1, r, m)] + [(comb2(r - m, i), r - i, m + i) for i in range(1, r + 1)]
    out: set[tuple[int, int]] = set()
    for c, a, b in terms:
        if not c or a not in classes or b not in classes:
            continue
        pair = tuple(x + y for x, y in zip(classes[a], classes[b]))
        out ^= {pair}
    return frozenset(out)


def oracle_power_basis_count(
    gen_degrees: tuple[int, ...], bounds: tuple[int, ...], d: int
) -> int:
    """Count exponent vectors below the pure-power bounds with total degree d."""
    count = 0
    for exps in iproduct(*(range(b) for b in bounds)):
        if sum(e * g for e, g in zip(exps, gen_degrees)) == d:
            count += 1
    return count


# -- lifts of package primitives ------------------------------------------------


def solve(rows, target: int) -> int | None:
    """A combo c with XOR of rows[i] over bits i of c equal to target, or None."""
    ech = Echelon()
    for i, row in enumerate(rows):
        ech.add(row, 1 << i)
    residual, combo = ech.reduce(target)
    return combo if residual == 0 else None


def verschiebung(k: int, a: Element) -> Element:
    """The k-fold Verschiebung on elements, monomial by monomial."""
    acc: set = set()
    for m in a.monomials:
        vm = verschiebung_monomial(k, m)
        if vm is not None:
            acc ^= {vm}
    return Element(acc)


def save(M, path) -> None:
    """Write M as a module file: JSON for a .json suffix, text otherwise."""
    text = serialize_json(M) if path.suffix == ".json" else serialize(M)
    path.write_text(text)


def echelon_contains(ech: Echelon, vec: int) -> bool:
    return ech.reduce(vec)[0] == 0


def echelon_rows(ech: Echelon) -> list[int]:
    """The reduced rows, sorted by pivot column."""
    return [row for _, (row, _) in sorted(ech._rows.items())]


class RowWalkingEchelon:
    """Reference for `Echelon`: reduce walks every stored row in turn.

    The rows are kept reduced by the same back-substitution, so a row acts
    exactly when its pivot is set in the vector at its turn.
    """

    def __init__(self) -> None:
        self.rows: dict[int, tuple[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: int, tag: int = 0) -> tuple[int, int]:
        for pivot, (row, rtag) in self.rows.items():
            if vec & pivot:
                vec ^= row
                tag ^= rtag
        return vec, tag

    def add(self, vec: int, tag: int = 0) -> tuple[int, int]:
        vec, tag = self.reduce(vec, tag)
        if vec:
            pivot = vec & -vec
            for p, (row, rtag) in self.rows.items():
                if row & pivot:
                    self.rows[p] = (row ^ vec, rtag ^ tag)
            self.rows[pivot] = (vec, tag)
        return vec, tag

    def pivots(self) -> list[int]:
        return [p.bit_length() - 1 for p in sorted(self.rows)]


def reference_kernel(rows) -> list[int]:
    """`kernel` over the row-walking echelon."""
    ech = RowWalkingEchelon()
    out = []
    for i, row in enumerate(rows):
        residual, combo = ech.add(row, 1 << i)
        if residual == 0:
            out.append(combo)
    return out


FULL_A = full_a()


def unit() -> Element:
    return Element([()])


def coproduct(m: Mono) -> list[tuple[Mono, Mono]]:
    """All splittings R' + R'' = R; every coefficient is 1 mod 2.

    Returns the (Sq(R'), Sq(R'')) pairs sorted by left factor; the list has
    exactly prod(r_i + 1) entries and no duplicates.
    """
    m = normalize(m)
    pairs = []
    for left in iproduct(*(range(r + 1) for r in m)):
        right = tuple(r - lv for r, lv in zip(m, left))
        pairs.append((normalize(left), normalize(right)))
    return sorted(pairs)


@lru_cache(maxsize=None)
def _substitute_zeta_mono(m: Mono) -> Poly:
    acc = P_ONE
    for slot, e in enumerate(m, start=1):
        acc = poly_mul(acc, poly_pow(zeta_in_xi(slot), e))
    return acc


def substitute_zeta(p: Poly) -> Poly:
    """Substitute the package's zeta_n for each letter xi_n (a ring map, and an involution).

    Reading the input in the zeta basis, the output is its xi-basis form;
    reading it in the xi basis, the output is the zeta-basis form.
    """
    acc: set[Mono] = set()
    for m in p:
        for t in _substitute_zeta_mono(m):
            acc ^= {t}
    return frozenset(acc)


# -- module maps and the brute-force isomorphism search ------------------------


def xor_rows(rows, vec: int) -> int:
    """Image of vec under the matrix whose i-th row is rows[i]."""
    out = 0
    for i in bits(vec):
        out ^= rows[i]
    return out


def apply(f: ModuleMap, vec: int) -> int:
    return xor_rows(f.rows, vec)


def is_isomorphism(f: ModuleMap) -> bool:
    if f.source.dims() != f.target.dims():
        return False
    ech = Echelon()
    for row in f.rows:
        if ech.add(row)[0] == 0:
            return False
    return True


def commutes_with(f: ModuleMap, k: int) -> bool:
    for i in range(f.source.dim):
        if apply(f, f.source.table(k)[i]) != xor_rows(f.target.table(k), f.rows[i]):
            return False
    return True


@lru_cache(maxsize=None)
def _invertible_matrices(n: int) -> tuple[tuple[int, ...], ...]:
    """All invertible n x n GF(2) matrices as row tuples, ascending."""
    if n == 0:
        return ((),)
    out = []
    for rows in iproduct(range(1, 1 << n), repeat=n):
        ech = Echelon()
        ok = True
        for r in rows:
            if ech.add(r)[0] == 0:
                ok = False
                break
        if ok:
            out.append(rows)
    return tuple(out)


def reference_isomorphism(M, N) -> ModuleMap | None:
    """Search every invertible matrix in each degree for one commuting with Sq(2^e).

    Backtracks degree by degree, ascending; exponential in the largest
    degree dimension, so only for small modules.
    """
    if M.algebra != N.algebra:
        raise ValueError(
            f"isomorphism search across algebras: {M.algebra} vs {N.algebra}"
        )
    if M.dims() != N.dims():
        return None
    degrees = sorted(M.dims())
    local_m = {d: M.basis_at(d) for d in degrees}
    local_n = {d: N.basis_at(d) for d in degrees}
    ks = [1 << e for e in range(M.span.bit_length()) if M.algebra.contains((1 << e,))]
    assignment: dict[int, tuple[int, ...]] = {}  # degree -> local matrix rows

    def global_row(d: int, p: int) -> int:
        # image of M's p-th basis vector at degree d, as a global N bitset
        out = 0
        row = assignment[d][p]
        for c in bits(row):
            out |= 1 << local_n[d][c]
        return out

    def image_of(vec: int) -> int | None:
        out = 0
        for i in bits(vec):
            d = M.degrees[i]
            if d not in assignment:
                return None
            out ^= global_row(d, local_m[d].index(i))
        return out

    def consistent(d: int) -> bool:
        for k in ks:
            source_deg = d - k
            if source_deg not in assignment:
                continue
            for p, i in enumerate(local_m[source_deg]):
                lhs = image_of(M.table(k)[i])
                rhs = xor_rows(N.table(k), global_row(source_deg, p))
                if lhs is None or lhs != rhs:
                    return False
        return True

    def search(pos: int) -> bool:
        if pos == len(degrees):
            return True
        d = degrees[pos]
        for matrix in _invertible_matrices(len(local_m[d])):
            assignment[d] = matrix
            if consistent(d) and search(pos + 1):
                return True
        del assignment[d]
        return False

    if not search(0):
        return None
    rows = [0] * M.dim
    for d in degrees:
        for p, i in enumerate(local_m[d]):
            rows[i] = global_row(d, p)
    return ModuleMap(M, N, tuple(rows))


# -- module validation over every pair of basis monomials ---------------------


def all_pairs_associativity(M) -> list[str]:
    """(ab)x = a(bx) for every pair of positive-degree basis monomials a, b.

    The package checks only a = Sq(2^e) and lets the expansion carry the rest.
    """
    problems = []
    span = M.span
    for da in range(1, span):
        for a in enumerate_basis(M.algebra, da):
            for db in range(1, span - da + 1):
                for b in enumerate_basis(M.algebra, db):
                    ab = milnor_product(sq(*a), sq(*b))
                    for i in range(M.dim):
                        if M.degrees[i] + da + db > M.top:
                            continue
                        rhs = M.act_mono(a, M.act_mono(b, 1 << i))
                        lhs = M.act(ab, 1 << i)
                        if lhs != rhs:
                            problems.append((a, b, M.gens[i]))
    return problems


# -- quotients and duals through general Milnor products ----------------------


def _generator_ks(algebra, span):
    return [1 << e for e in algebra.generator_exponents(span)]


def reference_cyclic_quotient(algebra, relations, name):
    """The cyclic quotient with the ideal spanned by every product Sq(b) * rel.

    The package builds the ideal by the Sq(2^e) recurrence instead.
    """
    top = algebra.top_degree
    ideal, index = {}, {}
    for d in range(top + 1):
        basis = enumerate_basis(algebra, d)
        index[d] = {m: c for c, m in enumerate(basis)}
        ech = Echelon()
        for rel in relations:
            if rel.degree > d:
                continue
            for b in enumerate_basis(algebra, d - rel.degree):
                vec = 0
                for t in milnor_product(sq(*b), rel).monomials:
                    vec ^= 1 << index[d][t]
                ech.add(vec)
        ideal[d] = ech
    reps = []  # (degree, representative monomial)
    for d in range(top + 1):
        pivots = set(ideal[d].pivots())
        reps += [(d, m) for c, m in enumerate(enumerate_basis(algebra, d)) if c not in pivots]
    ids, seen = [], {}
    for d, _ in reps:
        count = seen.get(d, 0)
        seen[d] = count + 1
        ids.append(f"x{d}" + ("" if count == 0 else chr(ord("a") + count - 1)))
    positions = {rep: i for i, rep in enumerate(reps)}
    span = max((d for d, _ in reps), default=0)
    tables = {}
    for k in _generator_ks(algebra, span):
        rows = [0] * len(reps)
        for i, (d, m) in enumerate(reps):
            if d + k > span:
                continue
            vec = 0
            for t in milnor_product(sq(k), sq(*m)).monomials:
                vec ^= 1 << index[d + k][t]
            basis = enumerate_basis(algebra, d + k)
            for c in bits(ideal[d + k].reduce(vec)[0]):
                rows[i] |= 1 << positions[(d + k, basis[c])]
        tables[k] = tuple(rows)
    return FiniteModule(name, algebra, tuple(ids), tuple(d for d, _ in reps), tables)


def reference_dualize(M, name=None):
    """The dual with chi(Sq^k) built as an algebra element through `antipode`.

    The package runs the recurrence for chi(Sq^k) on M's own tables instead.
    """
    name = name or f"D({M.name})"
    if M.vsource is not None:
        base, k = M.vsource
        return double(reference_dualize(base), k, name=name)
    tables = {}
    for k in _generator_ks(M.algebra, M.span):
        chi = antipode(sq(k))
        rows = [0] * M.dim
        for j in range(M.dim):
            for i in bits(M.act(chi, 1 << j)):
                rows[i] |= 1 << j
        tables[k] = tuple(rows)
    gens = tuple(f"{g}'" for g in M.gens)
    return FiniteModule(name, M.algebra, gens, tuple(-d for d in M.degrees), tables)


# -- minimal resolutions through general Milnor products ----------------------


def _mono_times(m, e):
    if not m:
        return e.monomials
    return milnor_product(sq(*m), e).monomials


def reference_resolution(algebra, M, s_max, t_max):
    """Minimal resolution with every column an explicit product Sq(m) * d(g).

    Same generator choices as the package's resolver: columns come in the
    same block order and go through the same kernel/echelon steps.
    """
    if algebra.n is not None and M.algebra.n is None:
        M = restrict(M, algebra)
    res = Resolution(algebra, M, s_max, t_max)

    degrees0, values0 = [], []
    for t in sorted({d for d in M.degrees if d <= t_max}):
        image = Echelon()
        for lower in sorted({d for d in M.degrees if d < t}):
            for m in enumerate_basis(algebra, t - lower):
                for i in range(M.dim):
                    if M.degrees[i] == lower:
                        image.add(M.act_mono(m, 1 << i))
        for i in range(M.dim):
            if M.degrees[i] == t and image.add(1 << i)[0]:
                degrees0.append(t)
                values0.append(1 << i)
    res.degrees.append(degrees0)
    res.values = values0
    res.diffs.append([])

    for s in range(1, s_max + 1):
        prev = res.degrees[s - 1]
        degrees_s, diffs_s = [], []
        for t in range(min(prev, default=t_max + 1), t_max + 1):
            cols, vecs = [], []
            if s == 1:
                for j, tj in enumerate(prev):
                    if tj > t:
                        continue
                    for m in enumerate_basis(algebra, t - tj):
                        cols.append((j, m))
                        vecs.append(M.act_mono(m, res.values[j]))
            else:
                pos = {}
                for j2, tj2 in enumerate(res.degrees[s - 2]):
                    if tj2 > t:
                        continue
                    for m in enumerate_basis(algebra, t - tj2):
                        pos[(j2, m)] = len(pos)
                for j, tj in enumerate(prev):
                    if tj > t:
                        continue
                    for m in enumerate_basis(algebra, t - tj):
                        cols.append((j, m))
                        vec = 0
                        for j2, e in res.diffs[s - 1][j].items():
                            for mm in _mono_times(m, e):
                                vec ^= 1 << pos[(j2, mm)]
                        vecs.append(vec)
            combos = kernel(vecs)
            if not combos:
                continue
            colpos = {c: i for i, c in enumerate(cols)}
            span = Echelon()
            for a, ta in enumerate(degrees_s):
                for x in enumerate_basis(algebra, t - ta):
                    vec = 0
                    for j, e in diffs_s[a].items():
                        for mm in _mono_times(x, e):
                            vec ^= 1 << colpos[(j, mm)]
                    span.add(vec)
            for combo in combos:
                residual = span.add(combo)[0]
                if residual:
                    entry = {}
                    for c in bits(residual):
                        j, m = cols[c]
                        entry[j] = entry.get(j, Element()) + Element([m])
                    degrees_s.append(t)
                    diffs_s.append(entry)
        res.degrees.append(degrees_s)
        res.diffs.append(diffs_s)
    return res


def free_basis(R, s, t):
    """(generator, monomial) pairs spanning stage s of R in degree t."""
    return [
        (j, m)
        for j, tj in enumerate(R.degrees[s])
        if tj <= t
        for m in enumerate_basis(R.algebra, t - tj)
    ]


def differential_rank(R, s, t):
    """Rank of d_s in degree t, from general Milnor products; d_0 is onto M."""
    if s >= len(R.degrees):
        return 0
    rows = []
    if s == 0:
        for j, m in free_basis(R, 0, t):
            rows.append(R.module.act(sq(*m), R.values[j]))
        return rank(rows)
    pos = {c: i for i, c in enumerate(free_basis(R, s - 1, t))}
    for a, m in free_basis(R, s, t):
        vec = 0
        for j, e in R.diffs[s][a].items():
            for mm in milnor_product(sq(*m), e).monomials:
                vec ^= 1 << pos[(j, mm)]
        rows.append(vec)
    return rank(rows)
