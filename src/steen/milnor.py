"""Milnor-basis arithmetic for the mod-2 Steenrod algebra and its subalgebras A(n).

Basis monomials Sq(r1,...,rl) are exponent tuples without trailing zeros.
Sq(r1,...,rl) has degree sum r_i (2^i - 1).  Products use the Milnor
matrix-sum formula with multinomial coefficients evaluated mod 2 by digit
disjointness, so all arithmetic is exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from steen.gf2 import Echelon, bits

__all__ = [
    "Algebra",
    "DEGREE_CAP",
    "Element",
    "Monomial",
    "Word",
    "admissible_words",
    "an",
    "antipode",
    "basis_count",
    "enumerate_basis",
    "expansion_positions",
    "full_a",
    "generator_expansion",
    "generator_matrix",
    "milnor_basis",
    "milnor_primitive",
    "milnor_product",
    "mono_degree",
    "mono_str",
    "sq",
    "sq_word",
    "to_admissible",
    "verschiebung_monomial",
]

DEGREE_CAP = 64  # highest degree of the whole algebra enumerate_basis serves

Monomial = tuple[int, ...]
Word = tuple[int, ...]


def normalize(exponents: Iterable[int]) -> Monomial:
    """Trim trailing zeros and validate non-negative exponents."""
    out = list(exponents)
    while out and out[-1] == 0:
        out.pop()
    if any(r < 0 for r in out):
        raise ValueError(f"negative exponent in {tuple(exponents)}")
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    """Degree of Sq(r1,...,rl): sum r_i (2^i - 1)."""
    return sum(r * ((1 << i) - 1) for i, r in enumerate(m, start=1))


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "Sq(" + ",".join(str(r) for r in m) + ")"


def _toggle(acc: set, item) -> None:
    if item in acc:
        acc.discard(item)
    else:
        acc.add(item)


class Element:
    """A mod-2 sum of Milnor basis monomials.

    Immutable; addition is symmetric difference, multiplication is the
    Milnor product.  Iteration and rendering are in lexicographic order of
    the exponent tuples.
    """

    __slots__ = ("monomials",)

    def __init__(self, monomials: Iterable[Monomial] = ()) -> None:
        acc: set[Monomial] = set()
        for m in monomials:
            _toggle(acc, normalize(m))
        object.__setattr__(self, "monomials", frozenset(acc))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Element is immutable")

    def __iter__(self) -> Iterator[Monomial]:
        return iter(sorted(self.monomials))

    def __len__(self) -> int:
        return len(self.monomials)

    def __bool__(self) -> bool:
        return bool(self.monomials)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(self.monomials)

    def __add__(self, other: Element) -> Element:
        return Element.from_set(self.monomials ^ other.monomials)

    def __mul__(self, other: Element) -> Element:
        return milnor_product(self, other)

    @property
    def degree(self) -> int | None:
        """Common degree of the terms; None when zero, error when mixed."""
        degrees = {mono_degree(m) for m in self.monomials}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"inhomogeneous element {self}")
        return degrees.pop()

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        return " + ".join(mono_str(m) for m in sorted(self.monomials))

    def __repr__(self) -> str:
        return f"<{self}>"

    @staticmethod
    def from_set(monomials: frozenset[Monomial]) -> Element:
        el = Element.__new__(Element)
        object.__setattr__(el, "monomials", frozenset(monomials))
        return el


ZERO = Element()
UNIT = Element([()])


def sq(*exponents: int) -> Element:
    """The Milnor basis element Sq(r1,...,rl); sq() is the unit."""
    return Element([tuple(exponents)])


@lru_cache(maxsize=None)
def _product_monomials(r: Monomial, s: Monomial) -> frozenset[Monomial]:
    """Matrix-sum product of two basis monomials, as a mod-2 monomial set.

    Matrices x[i][j] (0 <= i <= p, 0 <= j <= q, x[0][0] unused) satisfy
    r_i = sum_j 2^j x[i][j] and s_j = sum_i x[i][j]; each contributes
    Sq(t1,...) with t_n = sum over i+j = n, kept when every anti-diagonal
    multinomial is odd (digit-disjoint summands).
    """
    if not r or not s:
        return frozenset({r if not s else s})
    p, q = len(r), len(s)
    out: set[Monomial] = set()
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
        _toggle(out, normalize(t))

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


def milnor_product(a: Element, b: Element) -> Element:
    """Product in the Milnor basis, exact mod 2."""
    acc: set[Monomial] = set()
    for r in a.monomials:
        for s in b.monomials:
            for t in _product_monomials(r, s):
                _toggle(acc, t)
    return Element.from_set(frozenset(acc))


def sq_word(ks: Iterable[int]) -> Element:
    """Product Sq^{k1} Sq^{k2} ... of the listed squares."""
    acc = UNIT
    for k in ks:
        acc = milnor_product(acc, sq(k))
    return acc


# -- admissible words and the antipode ---------------------------------------


@lru_cache(maxsize=None)
def _adm_words(d: int, kmax: int) -> tuple[Word, ...]:
    if d == 0:
        return ((),)
    out = []
    for k1 in range(1, min(d, kmax) + 1):
        for rest in _adm_words(d - k1, k1 // 2):
            out.append((k1, *rest))
    return tuple(out)


def admissible_words(d: int) -> tuple[Word, ...]:
    """Admissible words (k_i >= 2 k_{i+1}) of degree d, lex sorted."""
    return tuple(sorted(_adm_words(d, d)))


@lru_cache(maxsize=None)
def _word_monomials(word: Word) -> frozenset[Monomial]:
    if not word:
        return frozenset({()})
    acc: set[Monomial] = set()
    for m in _word_monomials(word[1:]):
        for t in _product_monomials((word[0],), m):
            _toggle(acc, t)
    return frozenset(acc)


@lru_cache(maxsize=None)
def _admissible_data(d: int) -> tuple[tuple[Word, ...], Echelon, dict[Monomial, int]]:
    """Echelon of admissible-word expansions over the degree-d Milnor basis."""
    words = admissible_words(d)
    index = {m: i for i, m in enumerate(milnor_basis(d))}
    ech = Echelon()
    for w, word in enumerate(words):
        vec = 0
        for m in _word_monomials(word):
            vec ^= 1 << index[m]
        ech.add(vec, 1 << w)
    return words, ech, index


def to_admissible(a: Element) -> tuple[Word, ...]:
    """Rewrite an element as a sorted tuple of admissible words Sq^{k1}..Sq^{kl}."""
    chosen: set[Word] = set()
    by_degree: dict[int, int] = {}
    for m in a.monomials:
        d = mono_degree(m)
        words, ech, index = _admissible_data(d)
        by_degree.setdefault(d, 0)
        by_degree[d] ^= 1 << index[m]
    for d, vec in by_degree.items():
        words, ech, _ = _admissible_data(d)
        residual, combo = ech.reduce(vec)
        if residual:
            raise ArithmeticError(f"admissible words failed to span degree {d}")
        for w in bits(combo):
            _toggle(chosen, words[w])
    return tuple(sorted(chosen))


@lru_cache(maxsize=None)
def _antipode_sq(k: int) -> frozenset[Monomial]:
    """chi(Sq^k) via chi(Sq^n) = sum_{i=1}^{n} Sq^i chi(Sq^{n-i})."""
    if k == 0:
        return frozenset({()})
    acc: set[Monomial] = set()
    for i in range(1, k + 1):
        for m in _antipode_sq(k - i):
            for t in _product_monomials((i,), m):
                _toggle(acc, t)
    return frozenset(acc)


@lru_cache(maxsize=None)
def _antipode_mono(m: Monomial) -> frozenset[Monomial]:
    if not m:
        return frozenset({()})
    acc: set[Monomial] = set()
    for word in to_admissible(Element.from_set(frozenset({m}))):
        # anti-homomorphism: chi(Sq^{k1}..Sq^{kl}) = chi(Sq^{kl})..chi(Sq^{k1})
        term = frozenset({()})
        for k in reversed(word):
            nxt: set[Monomial] = set()
            for x in term:
                for y in _antipode_sq(k):
                    for t in _product_monomials(x, y):
                        _toggle(nxt, t)
            term = frozenset(nxt)
        for t in term:
            _toggle(acc, t)
    return frozenset(acc)


def antipode(a: Element) -> Element:
    """The canonical anti-automorphism chi, exact in the Milnor basis."""
    acc: set[Monomial] = set()
    for m in a.monomials:
        for t in _antipode_mono(m):
            _toggle(acc, t)
    return Element.from_set(frozenset(acc))


# -- subalgebra profiles ------------------------------------------------------


@dataclass(frozen=True)
class Algebra:
    """The whole algebra A (n is None) or the subalgebra A(n), by its profile.

    A(n) is spanned by the Sq(r1,...,rl) with l <= n+1 and r_i < 2^(n+2-i);
    Sq^k lies in A(n) exactly when k < 2^(n+1).
    """

    n: int | None = None

    @property
    def name(self) -> str:
        return "A" if self.n is None else f"A({self.n})"

    @property
    def top_degree(self) -> int:
        """Degree of the top class of A(n); the whole algebra has none."""
        if self.n is None:
            raise ValueError("A has no top class")
        return sum(
            ((1 << (self.n + 2 - i)) - 1) * ((1 << i) - 1)
            for i in range(1, self.n + 2)
        )

    def contains(self, m: Monomial) -> bool:
        if self.n is None:
            return True
        if len(m) > self.n + 1:
            return False
        return all(r < (1 << (self.n + 2 - i)) for i, r in enumerate(m, start=1))

    def contains_element(self, a: Element) -> bool:
        return all(self.contains(m) for m in a.monomials)

    def generator_exponents(self, d: int) -> list[int]:
        """Exponents e of the generators Sq(2^e) with 2^e <= d, ascending."""
        top = d if self.n is None else min(d, (1 << (self.n + 1)) - 1)
        return [e for e in range(top.bit_length()) if (1 << e) <= top]

    def __str__(self) -> str:
        return self.name


def an(n: int) -> Algebra:
    if n < 0:
        raise ValueError(f"A({n}) is not defined")
    return Algebra(n=n)


def full_a() -> Algebra:
    return Algebra()


@lru_cache(maxsize=None)
def _basis(n: int | None, d: int) -> tuple[Monomial, ...]:
    """Milnor monomials of degree d in A(n), or in A when n is None, lex sorted."""
    if d < 0:
        return ()
    slots = max((d + 1).bit_length() - 1, 1)
    if n is not None:
        slots = min(slots, n + 1)

    def bound(slot: int) -> int:
        # the profile of A(n) allows r_i < 2^(n+2-i); A allows any r_i <= d
        return d if n is None else (1 << (n + 2 - slot)) - 1

    out: list[Monomial] = []
    cur = [0] * slots

    def rec(slot: int, rem: int) -> None:
        if slot == 1:
            # weight 1: the first exponent soaks up whatever remains
            if rem <= bound(1):
                cur[0] = rem
                out.append(normalize(cur))
                cur[0] = 0
            return
        w = (1 << slot) - 1
        for r in range(min(rem // w, bound(slot)) + 1):
            cur[slot - 1] = r
            rec(slot - 1, rem - r * w)
        cur[slot - 1] = 0

    rec(slots, d)
    return tuple(sorted(out))


def milnor_basis(d: int) -> tuple[Monomial, ...]:
    """All Milnor monomials of degree d, lex sorted."""
    return _basis(None, d)


def enumerate_basis(algebra: Algebra, d: int) -> tuple[Monomial, ...]:
    """Milnor basis of the algebra in degree d, lex sorted on exponent tuples."""
    if algebra.n is None and d > DEGREE_CAP:
        raise ValueError(f"degree {d} exceeds cap {DEGREE_CAP}")
    return _basis(algebra.n, d)


def basis_count(algebra: Algebra, d: int) -> int:
    """Dimension of the algebra in degree d, counted without enumeration.

    The A(n) basis is the subset of the full Milnor basis allowed by the
    profile, so equal counts in a degree mean the bases agree there.
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
            # sliding window over one residue class: at most bound+1 copies
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


def milnor_primitive(s: int, t: int) -> Monomial:
    """P^s_t: the monomial with 2^s in slot t, degree 2^s (2^t - 1)."""
    if t < 1 or s < 0:
        raise ValueError(f"P^{s}_{t} is not defined")
    return (0,) * (t - 1) + (1 << s,)


def verschiebung_monomial(k: int, m: Monomial) -> Monomial | None:
    """Divide all exponents by 2^k, or None when any is not divisible."""
    mask = (1 << k) - 1
    if any(r & mask for r in m):
        return None
    return normalize(r >> k for r in m)


# -- expansion over the generators Sq(2^e) ------------------------------------


@lru_cache(maxsize=None)
def _expansion_table(
    algebra: Algebra, d: int
) -> dict[Monomial, tuple[tuple[int, Monomial], ...]]:
    """Each degree-d basis monomial as a sum of Sq(2^e) * (lower monomial)."""
    spanning: list[tuple[int, Monomial]] = []
    ech = Echelon()
    for e in algebra.generator_exponents(d):
        lower = d - (1 << e)
        columns = generator_matrix(algebra, e, lower)
        for m2, vec in zip(enumerate_basis(algebra, lower), columns):
            ech.add(vec, 1 << len(spanning))
            spanning.append((e, m2))
    table: dict[Monomial, tuple[tuple[int, Monomial], ...]] = {}
    for i, m in enumerate(enumerate_basis(algebra, d)):
        residual, combo = ech.reduce(1 << i)
        if residual:
            raise ArithmeticError(
                f"{mono_str(m)} is not in the span of Sq(2^e) {algebra.name}"
            )
        table[m] = tuple(spanning[c] for c in bits(combo))
    return table


@lru_cache(maxsize=None)
def expansion_positions(
    algebra: Algebra, d: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The expansion table by basis positions.

    Entry i lists the (e, i') with Sq(x_i) = sum Sq(2^e) Sq(x'_i'), where x_i
    is the i-th monomial of enumerate_basis(algebra, d) and x'_i' the i'-th
    of enumerate_basis(algebra, d - 2^e).  Positive degrees only.
    """
    table = _expansion_table(algebra, d)
    index: dict[int, dict[Monomial, int]] = {}
    for e in algebra.generator_exponents(d):
        lower = enumerate_basis(algebra, d - (1 << e))
        index[e] = {m: i for i, m in enumerate(lower)}
    return tuple(
        tuple((e, index[e][m2]) for e, m2 in table[m])
        for m in enumerate_basis(algebra, d)
    )


@lru_cache(maxsize=None)
def generator_matrix(algebra: Algebra, e: int, d: int) -> tuple[int, ...]:
    """Left multiplication by Sq(2^e) from degree d to degree d + 2^e.

    Column i is Sq(2^e) times the i-th monomial of enumerate_basis(algebra,
    d), as a bitset over the positions of enumerate_basis(algebra, d + 2^e).
    """
    target = enumerate_basis(algebra, d + (1 << e))
    index = {m: i for i, m in enumerate(target)}
    columns = []
    for m in enumerate_basis(algebra, d):
        vec = 0
        for t in _product_monomials(((1 << e),), m):
            vec ^= 1 << index[t]
        columns.append(vec)
    return tuple(columns)


def generator_expansion(m: Monomial, algebra: Algebra) -> tuple[tuple[int, Monomial], ...]:
    """Write Sq(R) as sum of Sq(2^e) Sq(M'); positive degree only.

    Lets module actions of arbitrary basis monomials be driven entirely by
    the tables for the generators Sq(2^e).
    """
    m = normalize(m)
    d = mono_degree(m)
    if d == 0:
        raise ValueError("the unit has no generator expansion")
    if not algebra.contains(m):
        raise ValueError(f"{mono_str(m)} is not in {algebra.name}")
    return _expansion_table(algebra, d)[m]
