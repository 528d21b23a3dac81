"""Independent cross-checks used only by the test suite.

Everything here recomputes structure by a different route than the package:
products through the dual Hopf-algebra pairing, admissible rewriting through
the Adem relations, the antipode through the conjugate dual generators, and
Ext groups through the bar resolution.  Plain dict/set polynomial arithmetic
throughout, and every elimination here runs on `RowWalkingEchelon`, so no
oracle shares the package's `Echelon`.  The exceptions are thin lifts of
package primitives that only the tests need (`verschiebung` over
`verschiebung_monomial`, `substitute_zeta` over `zeta_in_xi`, `coproduct`,
`unit`, `serialize_json` (the JSON writer no command needs) and `save` over
the module formats, and `apply`, `is_isomorphism` and `commutes_with` on
module maps), and thirteen reference routes: the resolver,
which rebuilds minimal resolutions column by column from general Milnor
products instead of the package's Sq(2^e) recurrence;
`reference_tables`, which reads a double's tables from its own blocks
over its own algebra instead of its base; `reference_problems`, which
lists validate's problems from those own blocks instead of the base's;
`reference_isomorphism`, which walks every invertible matrix in each degree
instead of searching the Hom basis; `RowWalkingEchelon` (with
`reference_kernel` and `reference_rank` over it), which keeps its rows fully
reduced and walks every stored row instead of clearing the lowest pivot set;
`all_pairs_associativity`, which checks (ab)x = a(bx) for every pair of basis
monomials instead of only a = Sq(2^e); `reference_cyclic_quotient`, which
spans the ideal by the products Sq(b) * rel instead of the Sq(2^e)
recurrence; `reference_antipode_sq`, which builds chi(Sq^n) from products
by the recurrence chi(Sq^n) = sum_i Sq^i chi(Sq^(n-i)) instead of Milnor's
closed form, the sum of the Milnor basis in degree n; `reference_dualize`,
which acts by the algebra element chi(Sq^k) from `reference_antipode_sq`
instead of summing the module's `images` by that closed form;
`reference_basis_count`, which convolves one slot at a time with a
sliding window instead of reading a cached Poincare series;
`reference_product_monomials`, which fills in each whole Milnor matrix before
testing its anti-diagonals instead of pruning entry by entry;
`reference_associativity_triples`, which compares (xy)z and x(yz) one
triple at a time instead of packing every z into one int; and `lambda_ext`,
which reads the sphere's Ext over A as the homology of the lambda algebra
(Bousfield, Curtis, Kan, Quillen, Rector and Schlesinger, Topology 5, 1966)
instead of resolving F2, and calls no package code at all.
"""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache
from itertools import product as iproduct
from math import comb
from typing import NamedTuple
from weakref import WeakKeyDictionary

from steen.dual import zeta_in_xi
from steen.gf2 import bits
from steen.milnor import (
    Algebra,
    Element,
    FreeMap,
    basis_index,
    enumerate_basis,
    full_a,
    milnor_product,
    mono_degree,
    mono_str,
    normalize,
    sq,
    verschiebung_monomial,
)
from steen.modfile import serialize
from steen.module import FiniteModule, ModuleMap, double, restrict, shift

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


def reference_product_monomials(r: Mono, s: Mono) -> frozenset[Mono]:
    """Milnor's matrix formula with the parity test after each whole matrix.

    Every matrix x[i][j] with r_i = sum_j 2^j x[i][j] and s_j = sum_i x[i][j]
    is filled in first; only then is each anti-diagonal tested for digit
    disjointness, instead of pruning an entry the moment it overlaps.
    """
    if not r or not s:
        return frozenset({r if not s else s})
    p, q = len(r), len(s)
    out: set[Mono] = set()
    rows: list[tuple[int, tuple[int, ...]]] = []  # per i: (x[i][0], x[i][1..q])

    def emit(cols_left: list[int]) -> None:
        t = []
        for n in range(1, p + q + 1):
            total = 0
            acc = 0
            for i in range(max(0, n - q), min(p, n) + 1):
                j = n - i
                if i == 0:
                    e = cols_left[j - 1]
                elif j == 0:
                    e = rows[i - 1][0]
                else:
                    e = rows[i - 1][1][j - 1]
                total += e
                acc |= e
            if total != acc:
                return
            t.append(total)
        out.symmetric_difference_update({trim(t)})

    def fill_row(i: int, cols_left: list[int]) -> None:
        if i > p:
            emit(cols_left)
            return
        row = [0] * q

        def fill(j: int, rem: int) -> None:
            if j > q:
                rows.append((rem, tuple(row)))
                fill_row(i + 1, [cols_left[c] - row[c] for c in range(q)])
                rows.pop()
                return
            w = 1 << j
            for v in range(min(rem // w, cols_left[j - 1]) + 1):
                row[j - 1] = v
                fill(j + 1, rem - v * w)
            row[j - 1] = 0

        fill(1, r[i - 1])

    fill_row(1, list(s))
    return frozenset(out)


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


@lru_cache(maxsize=None)
def reference_antipode_sq(n: int) -> Element:
    """chi(Sq^n) by the recurrence chi(Sq^n) = sum_{i=1}^{n} Sq^i chi(Sq^{n-i})."""
    acc = Element([()]) if n == 0 else Element()
    for i in range(1, n + 1):
        acc += sq(i) * reference_antipode_sq(n - i)
    return acc


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
    return reference_rank(rows)


def oracle_ext_a1(s: int, t: int) -> int:
    """dim Ext^{s,t} over A(1) from the reduced bar complex."""
    return len(_bar_basis(s, t)) - _bar_rank(s, t) - _bar_rank(s + 1, t)


# -- the lambda algebra ---------------------------------------------------------
# Words are tuples of lambda indices; lambda_i sits in (s, stem) = (1, i), and a
# word is admissible when 2 i_k >= i_(k+1) for each neighbouring pair.


def _lambda_words(s: int, stem: int, bound: int) -> list[tuple[int, ...]]:
    """Admissible words of length s and stem sum whose first index is <= bound."""
    if s <= 0:
        return [()] if s == 0 and stem == 0 else []
    return [
        (i,) + rest
        for i in range(min(stem, bound) + 1)
        for rest in _lambda_words(s - 1, stem - i, 2 * i)
    ]


@lru_cache(maxsize=None)
def _lambda_basis(s: int, stem: int) -> dict[tuple[int, ...], int]:
    return {word: k for k, word in enumerate(_lambda_words(s, stem, stem))}


@lru_cache(maxsize=None)
def _lambda_admissible(word: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Rewrite a word into admissible words, leftmost bad pair first, by
    lambda_i lambda_(2i+1+n) = sum_j C(n-j-1, j) lambda_(i+n-j) lambda_(2i+1+j)."""
    for k in range(len(word) - 1):
        i, m = word[k], word[k + 1]
        if 2 * i < m:
            n = m - 2 * i - 1
            out: frozenset[tuple[int, ...]] = frozenset()
            for j in range((n + 1) // 2):
                if binom2(n - j - 1, j):
                    pair = (i + n - j, 2 * i + 1 + j)
                    out ^= _lambda_admissible(word[:k] + pair + word[k + 2:])
            return out
    return frozenset({word})


@lru_cache(maxsize=None)
def _lambda_d_rank(s: int, stem: int) -> int:
    """Rank of d from (s, stem) to (s + 1, stem - 1), where
    d lambda_n = sum_(j>=1) C(n-j, j) lambda_(n-j) lambda_(j-1), a derivation."""
    target = _lambda_basis(s + 1, stem - 1)
    rows = []
    for word in _lambda_basis(s, stem):
        vec = 0
        for k, n in enumerate(word):
            for j in range(1, n // 2 + 1):
                if binom2(n - j, j):
                    for image in _lambda_admissible(word[:k] + (n - j, j - 1) + word[k + 1:]):
                        vec ^= 1 << target[image]
        rows.append(vec)
    return reference_rank(rows)


def lambda_ext(s: int, stem: int) -> int:
    """dim Ext_A^(s, s+stem)(F2, F2) as the homology of the lambda algebra."""
    cycles = len(_lambda_basis(s, stem)) - _lambda_d_rank(s, stem)
    return cycles - _lambda_d_rank(s - 1, stem + 1)


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


def reference_basis_count(algebra, d: int) -> int:
    """Dimension of the algebra in degree d, one slot at a time.

    Slot i has weight w = 2^i - 1 and exponent r_i <= bound, so each pass
    sums at most bound + 1 earlier counts along every residue class mod w.
    """
    if d < 0:
        return 0
    counts = [1] + [0] * d
    slot = 1
    while (w := (1 << slot) - 1) <= d:
        if algebra.n is not None and slot > algebra.n + 1:
            break
        bound = d if algebra.n is None else (1 << (algebra.n + 2 - slot)) - 1
        nxt = [0] * (d + 1)
        for start in range(min(w, d + 1)):
            window: deque[int] = deque()
            total = 0
            for x in range(start, d + 1, w):
                window.append(counts[x])
                total += counts[x]
                if len(window) > bound + 1:
                    total -= window.popleft()
                nxt[x] = total
        counts = nxt
        slot += 1
    return counts[d]


# -- lifts of package primitives ------------------------------------------------


def verschiebung(k: int, a: Element) -> Element:
    """The k-fold Verschiebung on elements, monomial by monomial."""
    acc: set = set()
    for m in a.monomials:
        vm = verschiebung_monomial(k, m)
        if vm is not None:
            acc ^= {vm}
    return Element(acc)


def serialize_json(M: FiniteModule) -> str:
    """M in the JSON module format that `parse_json` reads, keys sorted."""
    payload = {
        "module": M.name,
        "algebra": M.algebra.name,
        "gens": [[g, d] for g, d in zip(M.gens, M.degrees)],
        "sq": {
            str(k): {
                M.gens[i]: [M.gens[j] for j in bits(M.tables[k][i])]
                for i in range(M.dim)
                if M.tables[k][i]
            }
            for k in sorted(M.tables)
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save(M, path) -> None:
    """Write M as a module file: JSON for a .json suffix, text otherwise."""
    text = serialize_json(M) if path.suffix == ".json" else serialize(M)
    path.write_text(text)


class RowWalkingEchelon:
    """Reference for `Echelon`: the fully reduced form, walked row by row.

    Each add back-substitutes the new row into every stored row, so no row
    holds another row's pivot, and reduce walks every stored row in turn: a
    row acts exactly when its pivot is set in the vector at its turn.  The
    package's `Echelon` never back-substitutes; both report the same
    residuals, combos and pivots, which depend only on the row space.
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

    def extend(self, vecs) -> list[int]:
        out = []
        for i, vec in enumerate(vecs):
            residual, combo = self.add(vec, 1 << i)
            if residual == 0:
                out.append(combo)
        return out

    def pivots(self) -> list[int]:
        return [p.bit_length() - 1 for p in sorted(self.rows)]


def reference_kernel(rows) -> list[int]:
    """`kernel` over the row-walking echelon."""
    return RowWalkingEchelon().extend(rows)


def reference_rank(rows) -> int:
    """`rank` over the row-walking echelon, without tags."""
    ech = RowWalkingEchelon()
    for row in rows:
        ech.add(row)
    return ech.rank


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
    ech = RowWalkingEchelon()
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
        ech = RowWalkingEchelon()
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


_OWN_MAPS = WeakKeyDictionary()


def _own_act_mono(M, mono, vec):
    """Sq(mono) vec from a FreeMap over M's own algebra and degrees.

    The package acts on a double through its base; this map is built from
    M's Sq(2^e) tables as given, once per module.
    """
    own = _OWN_MAPS.get(M)
    if own is None:
        tables = M.generator_tables
        zeros = (0,) * M.dim
        own = _OWN_MAPS[M] = FreeMap(M.algebra, lambda e, u: tables.get(1 << e, zeros))
        for i, d in enumerate(M.degrees):
            own.add(d, 1 << i)
    d = mono_degree(mono)
    position = basis_index(M.algebra, d)[mono]
    out = 0
    for i in bits(vec):
        if M.degrees[i] + d <= M.top:
            out ^= own.block(i, d)[position]
    return out


def reference_tables(M):
    """Every nonzero Sq^k table, 1 <= k <= span, from M's own blocks.

    The package derives a double's tables from its base instead.
    """
    tables = {}
    for k in range(1, M.span + 1):
        if M.algebra.contains((k,)):
            table = tuple(_own_act_mono(M, (k,), 1 << i) for i in range(M.dim))
            if any(table):
                tables[k] = table
    return tables


def all_pairs_associativity(M) -> list[str]:
    """(ab)x = a(bx) for every pair of positive-degree basis monomials a, b.

    The package checks only a = Sq(2^e) and lets the expansion carry the rest,
    and checks a double on its base.  Here every action is read
    from the module's own blocks over its own algebra.
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
                        rhs = _own_act_mono(M, a, _own_act_mono(M, b, 1 << i))
                        lhs = 0
                        for m in ab.monomials:
                            lhs ^= _own_act_mono(M, m, 1 << i)
                        if lhs != rhs:
                            problems.append((a, b, M.gens[i]))
    return problems


def reference_problems(M) -> list[str]:
    """The problems `validate` lists, with every action read from M's own
    blocks over its own algebra and each Sq(2^e) b an explicit product.

    The package checks a double on its base and writes each problem back in
    the module's own operations.
    """
    problems = []
    for k, claim in M._claims.items():
        for i, row in enumerate(claim):
            derived = _own_act_mono(M, (k,), 1 << i)
            if row != derived:
                problems.append(
                    f"{M.name}: Sq^{k} on {M.gens[i]} is {M.ids_of(row)} but the "
                    f"generator expansion gives {M.ids_of(derived)}"
                )
    span = M.span
    for k in _generator_ks(M.algebra, span):
        for db in range(1, span - k + 1):
            for b in enumerate_basis(M.algebra, db):
                product = milnor_product(sq(k), sq(*b)).monomials
                for i in range(M.dim):
                    if M.degrees[i] + k + db > M.top:
                        continue
                    rhs = _own_act_mono(M, (k,), _own_act_mono(M, b, 1 << i))
                    lhs = 0
                    for m in product:
                        lhs ^= _own_act_mono(M, m, 1 << i)
                    if lhs != rhs:
                        problems.append(
                            f"{M.name}: (Sq^{k}*{mono_str(b)}){M.gens[i]} = "
                            f"{M.ids_of(lhs)} but acting in two steps gives {M.ids_of(rhs)}"
                        )
    return problems


# -- the algebra's associativity sweep, one triple at a time -------------------


def reference_associativity_triples(cap, product):
    """(xy)z = x(yz) over positive-degree monomials of total degree <= cap.

    product(r, s) gives the monomials of Sq(r) Sq(s).  Each triple is one
    comparison of two bitsets; the package packs every z into one int.
    Raises AssertionError on the first failing (x, y, z) in x, y, z order,
    and returns the number of triples.
    """
    A = full_a()
    basis = {d: enumerate_basis(A, d) for d in range(1, cap)}
    table = {}
    for p in range(1, cap):
        for q in range(1, cap - p + 1):
            index = {m: c for c, m in enumerate(enumerate_basis(A, p + q))}
            table[p, q] = [
                [sum(1 << index[t] for t in product(x, y)) for y in basis[q]]
                for x in basis[p]
            ]
    triples = 0
    for da in range(1, cap - 1):
        for db in range(1, cap - da):
            for dc in range(1, cap - da - db + 1):
                left = table[da + db, dc]  # (xy) z, row by monomial of xy
                right = table[da, db + dc]  # x (yz), column by monomial of yz
                for i, xy_row in enumerate(table[da, db]):
                    for j, xy in enumerate(xy_row):
                        for k, yz in enumerate(table[db, dc][j]):
                            lhs = 0
                            for m in bits(xy):
                                lhs ^= left[m][k]
                            rhs = 0
                            for m in bits(yz):
                                rhs ^= right[i][m]
                            assert lhs == rhs, (basis[da][i], basis[db][j], basis[dc][k])
                            triples += 1
    return triples


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
        ech = RowWalkingEchelon()
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
        suffix = "" if count == 0 else chr(ord("a") + count - 1) if count <= 26 else f"_{count}"
        ids.append(f"x{d}{suffix}")
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


def _doubling(M):
    """The largest k, at most n over A(n), with all of M's degrees equal mod 2^k."""
    k = M.span.bit_length() if M.algebra.n is None else M.algebra.n
    while k and any((d - M.bottom) % (1 << k) for d in M.degrees):
        k -= 1
    return k


def reference_dualize(M, name=None):
    """The dual with chi(Sq^k) built as an algebra element by `reference_antipode_sq`.

    The package sums M's images over the Milnor basis of degree k instead.
    Here M acts by its own blocks, and only a double of span above 16, whose
    blocks are too costly, is dualized through a base built here from its
    degrees and tables.
    """
    name = name or f"D({M.name})"
    k = _doubling(M) if M.span > 16 else 0
    if k:
        base = FiniteModule(
            M.name,
            M.algebra if M.algebra.n is None else Algebra(n=M.algebra.n - k),
            M.gens,
            tuple((d - M.bottom) >> k for d in M.degrees),
            {j >> k: t for j, t in M.generator_tables.items()},
        )
        return shift(double(reference_dualize(base), k), -M.bottom, name)
    tables = {}
    for k in _generator_ks(M.algebra, M.span):
        chi = reference_antipode_sq(k)
        rows = [0] * M.dim
        for j in range(M.dim):
            image = 0
            for m in chi.monomials:
                image ^= _own_act_mono(M, m, 1 << j)
            for i in bits(image):
                rows[i] |= 1 << j
        tables[k] = tuple(rows)
    gens = tuple(f"{g}'" for g in M.gens)
    return FiniteModule(name, M.algebra, gens, tuple(-d for d in M.degrees), tables)


# -- minimal resolutions through general Milnor products ----------------------


def _mono_times(m, e):
    if not m:
        return e.monomials
    return milnor_product(sq(*m), e).monomials


class ReferenceResolution(NamedTuple):
    """What reference_resolution finds: per stage, generator degrees, the
    differentials as bitsets (over M's basis at stage 0, over the block-order
    basis of the stage below after), and the same differentials decoded."""

    degrees: list
    values: list
    diffs: list


def reference_resolution(algebra, M, s_max, t_max):
    """Minimal resolution with every column an explicit product Sq(m) * d(g).

    Same generator choices as the package's resolver: columns come in the
    same block order and go through the same kernel and candidate steps, on
    the row-walking echelon.
    """
    if algebra.n is not None and M.algebra.n is None:
        M = restrict(M, algebra)
    res = ReferenceResolution([], [], [])

    degrees0, values0 = [], []
    for t in sorted({d for d in M.degrees if d <= t_max}):
        image = RowWalkingEchelon()
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
    res.values.append(values0)
    res.diffs.append([])

    for s in range(1, s_max + 1):
        prev = res.degrees[s - 1]
        degrees_s, values_s, diffs_s = [], [], []
        for t in range(min(prev, default=t_max + 1), t_max + 1):
            cols, vecs = [], []
            if s == 1:
                for j, tj in enumerate(prev):
                    if tj > t:
                        continue
                    for m in enumerate_basis(algebra, t - tj):
                        cols.append((j, m))
                        vecs.append(M.act_mono(m, values0[j]))
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
            combos = reference_kernel(vecs)
            if not combos:
                continue
            colpos = {c: i for i, c in enumerate(cols)}
            span = RowWalkingEchelon()
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
                    values_s.append(residual)
                    diffs_s.append(entry)
        res.degrees.append(degrees_s)
        res.values.append(values_s)
        res.diffs.append(diffs_s)
    return res


def reference_terms(ref):
    """reference_resolution's differentials for s >= 1, each as its
    (generator index, monomial) terms in block order."""
    return [
        [[(j, x) for j in sorted(entry) for x in sorted(entry[j].monomials)] for entry in stage]
        for stage in ref.diffs[1:]
    ]


def stage_terms(R):
    """A resolution's differentials for s >= 1, each as the list R.terms gives."""
    return [
        [list(R.terms(s, a)) for a in range(len(R.degrees[s]))] for s in range(1, len(R.degrees))
    ]


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
            rows.append(R.module.act(sq(*m), R.values[0][j]))
        return reference_rank(rows)
    pos = {c: i for i, c in enumerate(free_basis(R, s - 1, t))}
    terms = [list(R.terms(s, a)) for a in range(len(R.degrees[s]))]
    for a, m in free_basis(R, s, t):
        vec = 0
        for j, x in terms[a]:
            for mm in milnor_product(sq(*m), sq(*x)).monomials:
                vec ^= 1 << pos[(j, mm)]
        rows.append(vec)
    return reference_rank(rows)
