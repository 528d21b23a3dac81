"""Milnor-basis arithmetic for the mod-2 Steenrod algebra and its subalgebras A(n).

Basis monomials Sq(r1,...,rl) are exponent tuples without trailing zeros.
Sq(r1,...,rl) has degree sum r_i (2^i - 1).  Products use the Milnor
matrix-sum formula with multinomial coefficients evaluated mod 2 by digit
disjointness, so all arithmetic is exact.

The last section serves everything that acts: the matrices of the generators
Sq(2^e) on the algebra, the expansion of each basis monomial over them, and
`FreeMap`, which evaluates Sq(x) on a free module's image through that
expansion.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from steen.gf2 import TopEchelon, bits

__all__ = [
    "Algebra",
    "DEGREE_CAP",
    "Element",
    "FreeMap",
    "Monomial",
    "Word",
    "admissible_words",
    "an",
    "antipode",
    "basis_count",
    "basis_index",
    "enumerate_basis",
    "full_a",
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
    if any(r < 0 for r in out):
        raise ValueError(f"negative exponent in {tuple(out)}")
    while out and out[-1] == 0:
        out.pop()
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
    multinomial is odd.  By Lucas's theorem that multinomial is odd exactly
    when the summands share no binary digit, and then their sum is their OR.

    Pruning invariant: diag[n] is the OR of the entries placed so far on
    anti-diagonal n, and those entries are pairwise digit-disjoint.  An entry
    is placed only if it shares no digit with diag[n], so a partial matrix
    whose multinomial is already even is dropped at once.  Rows are filled
    from i = p down to 1, each from j = q down to 1 like `_one_row_product`'s.
    The loop over x[i][1] also ends row i: x[i][0], what is left of r_i, is
    the first entry on anti-diagonal i, and rows i-1..1 meet it.  Row 1 comes
    last, so placing x[1][j] fixes x[0][j], what column j has left: it is
    tested at once against what rows 2..j put on anti-diagonal j, and
    x[1][j-1] meets it through diag; x[0][1] meets x[1][0] as row 1 ends.
    A matrix that completes row 1 is thus a term, t_n = diag[n] for n >= 2,
    with no test left at the leaf.  A one-row r = (a,) has a single row to
    fill, and `_one_row_product` fills it without the recursion.  Cached,
    since general products repeat; `generator_matrix` asks for each of its
    pairs once, so it reads `_one_row_product` directly and leaves the cache
    alone.  `fill` calls itself through its own closure cell, a reference
    cycle that would keep it, its cells and diag, cols and out alive until
    the cyclic collector ran; deleting `fill` after the call clears the cell,
    so reference counting frees them when the call returns.
    """
    if not r or not s:
        return frozenset({r if not s else s})
    if len(r) == 1:
        return frozenset(_one_row_product(r[0], s))
    p, q = len(r), len(s)
    out: set[Monomial] = set()
    diag = [0] * (p + q + 1)  # running OR of anti-diagonal n = i + j
    cols = [*s, 0]  # cols[j - 1]: what column j leaves to the rows not yet filled; no column q+1

    def fill(i: int, j: int, rem: int) -> None:
        n = i + j
        e = diag[n]
        left = cols[j - 1]
        if i == 1:  # x[0][j+1], final, is on anti-diagonal n; x[0][j] = left - v on j
            d, closed = e | cols[j], diag[j]
        else:
            d, closed = e, 0
        top = rem >> j
        if top > left:
            top = left
        v = 0
        while v <= top:  # v runs over the values sharing no digit with d
            c = left - v
            if not c & closed:
                diag[n] = d | v
                cols[j - 1] = c
                rest = rem - (v << j)
                if j > 1:
                    fill(i, j - 1, rest)
                elif i > 1:  # x[i][0] = rest opens anti-diagonal i
                    diag[i] = rest
                    fill(i - 1, q, r[i - 2])
                    diag[i] = 0
                elif not rest & c:  # x[1][0] meets x[0][1] on anti-diagonal 1
                    t = diag[1:]
                    t[0] = rest | c
                    while not t[-1]:
                        t.pop()
                    _toggle(out, tuple(t))
            v = ((v | d) + 1) & ~d
        diag[n] = e
        cols[j - 1] = left

    fill(p, q, r[-1])
    del fill  # breaks the cycle fill -> cell -> fill
    return frozenset(out)


def _one_row_product(a: int, s: Monomial) -> list[Monomial]:
    """The terms of Sq(a) Sq(s), the case p = 1 of the matrix-sum formula.

    Row 1 is x_0, x_1, ..., x_q with a = sum_j 2^j x_j and x_j <= s_j; row 0
    holds s_j - x_j.  So anti-diagonal n >= 2 holds x_(n-1) and s_n - x_n,
    anti-diagonal 1 holds x_0 and s_1 - x_1, and q + 1 holds x_q alone.
    x_q, ..., x_1 are chosen from the top down, each sharing no digit with
    the entry it meets, and x_0 is what is left of a.  A term fixes its
    matrix (t_(q+1) = x_q, then t_n = x_(n-1) + s_n - x_n), so no two
    matrices cancel, and the terms come back as a list of distinct tuples.
    It has two consumers: `_product_monomials`, which caches them as a set
    for the general products, and `generator_matrix`, which sets their bits.
    """
    # partial matrices: (what x_j, ..., x_q leave of a, s_j - x_j, t_(j+1), ..., t_(q+1)),
    # the t without trailing zeros: t_q >= s_q > 0 when x_q = 0, so only t_(q+1) can be one
    partial: list[tuple[int, int, Monomial]] = [(a, 0, ())]
    for j in range(len(s), 0, -1):
        sj = s[j - 1]
        grown = []
        for rem, c, tail in partial:
            top = rem >> j
            if top > sj:
                top = sj
            v = 0
            while v <= top:  # v runs over the values sharing no digit with c
                t = v | c
                grown.append((rem - (v << j), sj - v, (t,) + tail if t or tail else ()))
                v = (t + 1) & ~c
        partial = grown
    return [(rem | c,) + tail for rem, c, tail in partial if not rem & c]


def milnor_product(a: Element, b: Element) -> Element:
    """Product in the Milnor basis, exact mod 2."""
    acc: set[Monomial] = set()
    for r in a.monomials:
        for s in b.monomials:
            acc ^= _product_monomials(r, s)
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
def _admissible_data(d: int) -> tuple[tuple[Word, ...], TopEchelon, dict[Monomial, int]]:
    """Elimination of admissible-word expansions over the degree-d Milnor basis."""
    words = admissible_words(d)
    index = basis_index(full_a(), d)
    expansions = [sum(1 << index[m] for m in sq_word(word).monomials) for word in words]
    return words, TopEchelon(expansions), index


def to_admissible(a: Element) -> tuple[Word, ...]:
    """Rewrite an element as a sorted tuple of admissible words Sq^{k1}..Sq^{kl}."""
    chosen: set[Word] = set()
    by_degree: dict[int, int] = {}
    for m in a.monomials:
        d = mono_degree(m)
        index = _admissible_data(d)[2]
        by_degree[d] = by_degree.get(d, 0) ^ (1 << index[m])
    for d, vec in by_degree.items():
        words, ech, _ = _admissible_data(d)
        residual, combo = ech.reduce(vec)
        if residual:
            raise ArithmeticError(f"admissible words failed to span degree {d}")
        for w in bits(combo):
            _toggle(chosen, words[w])
    return tuple(sorted(chosen))


@lru_cache(maxsize=None)
def _antipode_sq(k: int) -> Element:
    """chi(Sq^k) by Milnor's closed form: the sum of the Milnor basis in degree k."""
    return Element(milnor_basis(k))


@lru_cache(maxsize=None)
def _antipode_degree(d: int) -> tuple[frozenset[Monomial], ...]:
    """chi of each Milnor monomial of degree d, in enumerate_basis order.

    The degree-d plan (`_expansion_table`) writes Sq(x) = sum Sq(2^e) Sq(x')
    with |x'| < d, and chi is an anti-homomorphism, so chi(Sq(x)) is the sum
    of chi(Sq(x')) chi(Sq^(2^e)), chi(Sq^(2^e)) by Milnor's closed form.
    Each product of the plan is taken once, by `milnor_product`, and added
    to every monomial it is a term of, and the recursion ends at chi(1) = 1.
    No admissible word is built.
    """
    if d == 0:
        return (frozenset({()}),)
    products, size = _expansion_table(full_a(), d)
    acc: list[set[Monomial]] = [set() for _ in range(size)]
    for e, low, targets in products:
        chi_low = Element.from_set(_antipode_degree(d - (1 << e))[low])
        term = milnor_product(chi_low, _antipode_sq(1 << e)).monomials
        for i in targets:
            acc[i] ^= term
    return tuple(frozenset(a) for a in acc)


def antipode(a: Element) -> Element:
    """The canonical anti-automorphism chi, exact in the Milnor basis.

    chi of each monomial is read from its degree's Sq(2^e) plan
    (`_antipode_degree`); the tests check it against chi through the
    conjugate dual generators.  A degree past DEGREE_CAP is refused by
    `enumerate_basis`, as the plan is built.
    """
    acc: set[Monomial] = set()
    for m in a.monomials:
        d = mono_degree(m)
        acc ^= _antipode_degree(d)[basis_index(full_a(), d)[m]]
    return Element.from_set(frozenset(acc))


# -- subalgebra profiles ------------------------------------------------------


class Algebra(NamedTuple):
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
        # sum over i of (2^(n+2-i) - 1)(2^i - 1), in closed form
        return ((self.n - 1) << (self.n + 2)) + self.n + 5

    def exponent_bound(self, i: int, d: int) -> int:
        """The largest r <= d that slot i may hold: min(d, 2^(n+2-i) - 1), 0 past slot n+1.

        Bit lengths are compared before any shift: n may be too large to shift by.
        """
        if self.n is None or d.bit_length() <= self.n + 2 - i:
            return d
        return (1 << max(self.n + 2 - i, 0)) - 1

    def contains(self, m: Monomial) -> bool:
        return all(self.exponent_bound(i, r) == r for i, r in enumerate(m, start=1))

    def sq_bound(self, d: int) -> int:
        """The largest k <= d with Sq^k in the algebra: min(d, 2^(n+1) - 1)."""
        return self.exponent_bound(1, d)

    def contains_element(self, a: Element) -> bool:
        return all(self.contains(m) for m in a.monomials)

    def generator_exponents(self, d: int) -> list[int]:
        """Exponents e of the generators Sq(2^e) with 2^e <= d, ascending."""
        return list(range(self.sq_bound(d).bit_length()))

    def __str__(self) -> str:
        return self.name


def an(n: int) -> Algebra:
    if n < 0:
        raise ValueError(f"A({n}) is not defined")
    return Algebra(n=n)


def full_a() -> Algebra:
    return Algebra()


@lru_cache(maxsize=None)
def _basis(algebra: Algebra, d: int) -> tuple[Monomial, ...]:
    """Milnor monomials of degree d in the algebra, lex sorted."""
    if d < 0:
        return ()
    slots = max((d + 1).bit_length() - 1, 1)
    bound = [0] + [algebra.exponent_bound(slot, d) for slot in range(1, slots + 1)]

    out: list[Monomial] = []
    cur = [0] * slots

    def rec(slot: int, rem: int) -> None:
        if slot == 1:
            # weight 1: the first exponent soaks up whatever remains
            if rem <= bound[1]:
                cur[0] = rem
                out.append(normalize(cur))
                cur[0] = 0
            return
        w = (1 << slot) - 1
        for r in range(min(rem // w, bound[slot]) + 1):
            cur[slot - 1] = r
            rec(slot - 1, rem - r * w)
        cur[slot - 1] = 0

    rec(slots, d)
    del rec  # breaks the cycle rec -> cell -> rec, as in _product_monomials
    return tuple(sorted(out))


def milnor_basis(d: int) -> tuple[Monomial, ...]:
    """All Milnor monomials of degree d, lex sorted."""
    return _basis(Algebra(), d)


def enumerate_basis(algebra: Algebra, d: int) -> tuple[Monomial, ...]:
    """Milnor basis of the algebra in degree d, lex sorted on exponent tuples."""
    if algebra.n is None and d > DEGREE_CAP:
        raise ValueError(f"degree {d} exceeds cap {DEGREE_CAP}")
    return _basis(algebra, d)


@lru_cache(maxsize=None)
def _poincare(algebra: Algebra, top: int) -> tuple[int, ...]:
    """Dimensions of the algebra in degrees 0..top."""
    counts = [1] + [0] * top
    for slot in range(1, top.bit_length() + 1):
        w = (1 << slot) - 1
        bound = algebra.exponent_bound(slot, top)
        if bound < top:
            # r_slot <= bound: multiply by 1 - t^(w (bound+1))
            cut = w * (bound + 1)
            for x in range(top, cut - 1, -1):
                counts[x] -= counts[x - cut]
        for x in range(w, top + 1):  # divide by 1 - t^w
            counts[x] += counts[x - w]
    return tuple(counts)


def basis_count(algebra: Algebra, d: int) -> int:
    """Dimension of the algebra in degree d, read off its Poincare series.

    A has series prod_i 1/(1 - t^(2^i - 1)) (Milnor 1958); A(n) keeps slots
    i <= n+1, each cut at r_i < 2^(n+2-i).  The series is cached up to the
    next 2^b - 1 >= d, so a sweep over degrees builds only a few short ones.
    A(n) has a subset of the Milnor basis, so the obstruction gate compares
    two counts: equal counts mean equal bases.
    """
    if d < 0:
        return 0
    return _poincare(algebra, (1 << d.bit_length()) - 1)[d]


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


# -- the generators Sq(2^e) and maps out of free modules -----------------------


@lru_cache(maxsize=None)
def basis_index(algebra: Algebra, d: int) -> dict[Monomial, int]:
    """Position of each monomial in enumerate_basis(algebra, d); do not mutate."""
    return {m: i for i, m in enumerate(enumerate_basis(algebra, d))}


@lru_cache(maxsize=None)
def generator_matrix(algebra: Algebra, e: int, d: int) -> tuple[int, ...]:
    """Left multiplication by Sq(2^e) from degree d to degree d + 2^e.

    Column i is Sq(2^e) times the i-th monomial of enumerate_basis(algebra,
    d), as a bitset over the positions of enumerate_basis(algebra, d + 2^e).
    Each (Sq(2^e), monomial) pair is asked for once, here, and the matrix is
    cached whole, so the columns come straight from `_one_row_product`,
    without the product cache or a set of terms.
    """
    index = basis_index(algebra, d + (1 << e))
    columns = []
    for m in enumerate_basis(algebra, d):
        vec = 0
        for t in _one_row_product(1 << e, m):
            vec ^= 1 << index[t]
        columns.append(vec)
    return tuple(columns)


@lru_cache(maxsize=None)
def _expansion_table(algebra: Algebra, d: int) -> tuple[tuple, int]:
    """The degree-d plan: each basis monomial as a sum of Sq(2^e) * (lower monomial).

    Returns (products, size): each product (e, i', targets) is a term
    Sq(2^e) Sq(x'_i') of Sq(x_i) for every i in targets, x_i the i-th of the
    size monomials of enumerate_basis(algebra, d) and x'_i' the i'-th of
    enumerate_basis(algebra, d - 2^e).  The products are sorted by (e, i'),
    so those of each Sq(2^e) come in one run.  Sq(2^e) is dual to the primitive
    xi_1^(2^e), so it is a term of no product of positive-degree elements,
    and the elimination gives it itself as its expansion.  Positive degrees
    only.
    """
    basis = enumerate_basis(algebra, d)
    spanning: list[tuple[int, int]] = []
    columns: list[int] = []
    for e in algebra.generator_exponents(d):
        matrix = generator_matrix(algebra, e, d - (1 << e))
        spanning.extend((e, i2) for i2 in range(len(matrix)))
        columns.extend(matrix)
    ech = TopEchelon(columns)  # column c enters with tag 1 << c
    targets: dict[int, list[int]] = {}  # spanning index -> monomials it is a term of
    for i, m in enumerate(basis):
        residual, combo = ech.reduce(1 << i)
        if residual:
            raise ArithmeticError(
                f"{mono_str(m)} is not in the span of Sq(2^e) {algebra.name}"
            )
        for c in bits(combo):
            targets.setdefault(c, []).append(i)
    products = tuple((*spanning[c], tuple(targets[c])) for c in sorted(targets))
    return products, len(basis)


class FreeMap:
    """A map from a free module, evaluated through the Sq(2^e) recurrence.

    The free module has generators g_a of degree t_a, added in order with
    their values.  The target is given by matrix(e, u), the columns of
    Sq(2^e) on the target from degree u, as bitsets over the target's basis
    in degree u + 2^e.  block(a, k) holds the images of Sq(x) g_a for the
    degree-k monomials x, in enumerate_basis order: the unit's image is the
    value of g_a, and for |x| > 0 the expansion Sq(x) = sum Sq(2^e) Sq(x')
    gives

        f(Sq(x) g_a) = sum Sq(2^e) f(Sq(x') g_a),

    so each image is a sum of lower-degree images pushed through the
    matrices of Sq(2^e), and no general Milnor product is taken.  This is
    the one place the recurrence is written: module actions, cyclic
    quotients and the resolver's differentials all evaluate Sq(x) here.
    """

    def __init__(
        self, algebra: Algebra, matrix: Callable[[int, int], Sequence[int]]
    ) -> None:
        self.algebra = algebra
        self.matrix = matrix
        self.degrees: list[int] = []
        self._blocks: dict[tuple[int, int], list[int]] = {}

    def add(self, t: int, value: int) -> None:
        """A new generator of degree t whose image is value."""
        self._blocks[(len(self.degrees), 0)] = [value]
        self.degrees.append(t)

    def columns(self, t: int) -> list[int]:
        """Images of every Sq(x) g_a of degree t, generator by generator.

        Generators above t are skipped, since the degrees need not ascend.
        """
        out: list[int] = []
        for a, ta in enumerate(self.degrees):
            if ta <= t:
                out.extend(self.block(a, t - ta))
        return out

    def block(self, a: int, k: int) -> list[int]:
        """Images of Sq(x) g_a for the monomials x of degree k.

        The plan lists the products of each Sq(2^e) in one run, so the lower
        block and the matrix they read are fetched once per e.  A lower image
        that is 0 pushes nothing, so its product is skipped.
        """
        hit = self._blocks.get((a, k))
        if hit is not None:
            return hit
        ta = self.degrees[a]
        products, size = _expansion_table(self.algebra, k)
        hit = [0] * size
        run = None  # the e of the current run
        for e, i, targets in products:
            if e != run:
                run = e
                lows = self.block(a, k - (1 << e))
                matrix = self.matrix(e, ta + k - (1 << e))
            low = lows[i]
            if not low:
                continue
            image = 0
            while low:
                top = low.bit_length() - 1
                image ^= matrix[top]
                low ^= 1 << top
            for m in targets:
                hit[m] ^= image
        self._blocks[(a, k)] = hit
        return hit
