"""Finite modules over the whole Steenrod algebra A or a subalgebra A(n).

A module stores named basis elements with degrees and the action tables of
the generators Sq(2^e) of its algebra; nothing else acts directly.  The
module holds one `FreeMap` over its own basis, g_i -> x_i, whose target
matrices are those tables, so Sq(x) x_i is entry x of its block (i, |x|):
every Milnor basis element, composite Sq^k included, acts through the one
Sq(2^e) recurrence that the resolver also runs.  `tables` lists the
nonzero Sq^k tables: the generator tables are read as given, since the
recurrence expands Sq(2^e) as itself, and only the composite tables are
derived that way.  Composite tables handed to the constructor (from a
module file, or from the Wu formula) are claims that `validate` checks
against the derived ones.  `validate` checks that the action is
multiplicative by taking each generator Sq(2^e) against each basis
monomial b, reading Sq(2^e) b from the columns of `generator_matrix`; the
recurrence makes that enough.

A module whose degrees all agree mod 2^k is a double, however it was made,
and its `doubling` is the largest such k (0 for a module in one degree).
Its `FreeMap` is built over the base algebra A(n - k), or A, on the degrees
(d - bottom) / 2^k, with the given Sq(2^(e+k)) tables as Sq(2^e): Sq(x)
acts as Sq(x / 2^k) on that base, or as zero unless 2^k divides every
exponent of x.  Validation and duals run on the base too, and name the
module's own operations.  So no block is built in the doubled degrees,
where a deep double would need the basis of A(n) thousands of degrees up.
A module that is no double has doubling 0 and is its own base, shifted to
start in degree 0.

A cyclic quotient A(n) / (relations) is the cokernel of a free map: a
`FreeMap` from the free module on the relations into A(n), whose image in
degree d is the ideal there.  Its classes are the monomials off the pivots
of that ideal's echelon form, the lowest bits of its elements.  A dual acts
by chi(Sq^k), and by Milnor's closed form chi(Sq^n) is the sum of the Milnor
basis in degree n, so chi(Sq^n) x_i is the sum of the module's `images`.

Hom spaces are linear algebra: the degree-preserving maps M -> N are the
kernel of one GF(2) system in the matrix entries, f Sq(2^e) = Sq(2^e) f.
An isomorphism is a sum of those basis maps that is invertible in every
degree; the search for one goes up the degrees, prunes each sum whose block
is singular, and stops with ValueError after SEARCH_LIMIT tried sums.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import accumulate
from math import gcd
from operator import xor
from typing import NamedTuple

from steen.gf2 import Echelon, bits, kernel, rank
# milnor_product stays bound, unused: bench/tests/test_bench.py asserts the tracer wraps it
from steen.milnor import (
    DEGREE_CAP,
    Algebra,
    Element,
    FreeMap,
    Monomial,
    basis_count,
    basis_index,
    enumerate_basis,
    generator_matrix,
    milnor_product,
    mono_degree,
    mono_str,
    normalize,
    verschiebung_monomial,
)

# the most basis monomials validation walks: A's in degrees 1..DEGREE_CAP
BASIS_BUDGET = sum(basis_count(Algebra(), d) for d in range(1, DEGREE_CAP + 1))

__all__ = [
    "DOUBLING_MAX",
    "FiniteModule",
    "ModuleMap",
    "coaction",
    "cyclic_quotient",
    "double",
    "dualize",
    "extension_enumerate",
    "find_isomorphism",
    "hom_basis",
    "is_id",
    "restrict",
    "shift",
    "tensor",
    "trivial_module",
]

_ID_FORBIDDEN = set("+=#")

# the largest k double() takes: degrees times 2^k stay far below the 4300
# digits Python converts to text, and no huge integer is built
DOUBLING_MAX = 4096


def is_id(g: str) -> bool:
    """Whether g can name a basis class: one token, without + = or #."""
    return g.split() == [g] and _ID_FORBIDDEN.isdisjoint(g)


class FiniteModule:
    """A finite-dimensional graded module acting through Sq(2^e) bitset tables."""

    def __init__(
        self,
        name: str,
        algebra: Algebra,
        gens: tuple[str, ...],
        degrees: tuple[int, ...],
        tables: dict[int, tuple[int, ...]],
    ) -> None:
        gens = tuple(gens)
        degrees = tuple(degrees)
        if len(gens) != len(degrees):
            raise ValueError(f"{name}: {len(gens)} ids vs {len(degrees)} degrees")
        if len(set(gens)) != len(gens):
            raise ValueError(f"{name}: duplicate basis ids")
        for g in gens:
            if not is_id(g):
                raise ValueError(f"{name}: bad basis id {g!r}")
        dim = len(gens)
        clean: dict[int, tuple[int, ...]] = {}
        for k, table in sorted(tables.items()):
            table = tuple(table)
            if len(table) != dim:
                raise ValueError(f"{name}: Sq^{k} table has {len(table)} rows, dim {dim}")
            if k < 1:
                raise ValueError(f"{name}: Sq^{k} table given; k must be at least 1")
            if not algebra.contains((k,)):
                raise ValueError(f"{name}: Sq^{k} is not in {algebra.name}")
            for i, row in enumerate(table):
                if row < 0 or row >> dim:
                    raise ValueError(f"{name}: Sq^{k} row {i} out of range")
                for j in bits(row):
                    if degrees[j] != degrees[i] + k:
                        raise ValueError(
                            f"{name}: Sq^{k} {gens[i]} hits {gens[j]} of wrong degree"
                        )
            clean[k] = table
        self.name = name
        self.algebra = algebra
        self.gens = gens
        self.degrees = degrees
        self._generators = {k: t for k, t in clean.items() if not k & (k - 1)}
        self._claims = {k: t for k, t in clean.items() if k & (k - 1)}
        self.validated = False
        self._zeros = (0,) * dim
        # doubling: the largest k, at most n over A(n), with all degrees equal
        # mod 2^k: the trailing zeros of the gcd of the offsets d - bottom, or
        # 0 for a module in one degree.  Such a module is a double: it acts through
        # its base, with degrees (d - bottom) / 2^k over A(n - k), or over A,
        # whose Sq^j is the given Sq^(2^k j).  The module is valid exactly
        # when its base is, and Sq(x) then acts as Sq(x / 2^k) does on the
        # base, or as zero unless 2^k divides every exponent of x.  Proof:
        # the Verschiebung V: A(n) -> A(n-1), dual to xi -> xi^2, is a
        # surjective Hopf map whose kernel is the two-sided ideal generated
        # by its Hopf kernel E(Q_0, ..., Q_n), which is the ideal of
        # Sq^1 = Q_0, as Q_(i+1) = [Sq^(2^(i+1)), Q_i].  Sq^1 acts as zero
        # on a module in one parity, so the ideal does and the action
        # factors through V; k steps give V^k.  Over A, read A for every A(m).
        bottom = min(degrees, default=0)
        offsets = gcd(*(d - bottom for d in degrees))
        k = max((offsets & -offsets).bit_length() - 1, 0)
        self.doubling = k = k if algebra.n is None else min(k, algebra.n)
        # the free module on the base, g_i -> x_i, acting through the tables
        self._action = FreeMap(
            algebra if algebra.n is None else Algebra(n=algebra.n - k),
            lambda e, u: self._generators.get(1 << (e + k), self._zeros),
        )
        for i, d in enumerate(degrees):
            self._action.add((d - bottom) >> k, 1 << i)

    # -- basic geometry --

    @property
    def dim(self) -> int:
        return len(self.gens)

    @property
    def bottom(self) -> int:
        return min(self.degrees) if self.degrees else 0

    @property
    def top(self) -> int:
        return max(self.degrees) if self.degrees else 0

    @property
    def span(self) -> int:
        return self.top - self.bottom

    def dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def basis_at(self, d: int) -> tuple[int, ...]:
        return tuple(i for i, deg in enumerate(self.degrees) if deg == d)

    @cached_property
    def tables(self) -> dict[int, tuple[int, ...]]:
        """Every nonzero Sq^k table, 1 <= k <= span: the generator tables
        read as given, and only the composite ones derived by the action.

        Sq^k lies in A(n) exactly when k < 2^(n+1).  A double's Sq^k is zero
        unless 2^doubling divides k.
        """
        step = 1 << self.doubling
        rows = {
            k: self._generators.get(k, self._zeros)
            if not k & (k - 1)
            else tuple(self._act_basis((k,), i) for i in range(self.dim))
            for k in range(step, self.algebra.sq_bound(self.span) + 1, step)
        }
        return {k: t for k, t in rows.items() if any(t)}

    @property
    def generator_tables(self) -> dict[int, tuple[int, ...]]:
        """The nonzero Sq(2^e) tables, as given."""
        return {k: t for k, t in self._generators.items() if any(t)}

    def table(self, k: int) -> tuple[int, ...]:
        """The Sq^k table.  A generator Sq(2^e) reads its table as given:
        the recurrence expands Sq(2^e) as itself, and a given table is zero
        wherever the degrees forbid it (below a double's 2^doubling, past
        the span).  Composite tables are derived, all at once, by `tables`.
        """
        if not k & (k - 1):
            return self._generators.get(k, self._zeros)
        return self.tables.get(k, self._zeros)

    def ids_of(self, vec: int) -> list[str]:
        return [self.gens[i] for i in bits(vec)]

    def __repr__(self) -> str:
        return f"<module {self.name} over {self.algebra.name}, dim {self.dim}>"

    # -- action --

    def act_mono(self, mono: Monomial, vec: int) -> int:
        mono = normalize(mono)
        if not mono or not vec:
            return vec
        out = 0
        for i in bits(vec):
            out ^= self._act_basis(mono, i)
        return out

    def act(self, a: Element, vec: int) -> int:
        out = 0
        for m in a.monomials:
            out ^= self.act_mono(m, vec)
        return out

    def images(self, i: int, d: int) -> list[int]:
        """Sq(x) x_i for the degree-d monomials x that can act, in the order of
        their base monomials x / 2^doubling; [] unless 2^doubling divides d."""
        if d & ((1 << self.doubling) - 1):
            return []
        return self._action.block(i, d >> self.doubling)

    def _act_basis(self, mono: Monomial, i: int) -> int:
        # Sq(mono) x_i: the base acts by V^k(mono), and the rest acts as zero
        d = mono_degree(mono)
        if self.degrees[i] + d > self.top:
            return 0
        if not self.algebra.contains(mono):
            raise ValueError(
                f"{mono_str(mono)} is not in {self.algebra.name}; "
                f"cannot act on {self.name}"
            )
        base = verschiebung_monomial(self.doubling, mono)
        if base is None:
            return 0
        return self.images(i, d)[basis_index(self._action.algebra, d >> self.doubling)[base]]

    # -- validation --

    def validate(self) -> list[str]:
        """Check the module against its definition; empty list means valid.

        A base whose algebra has more than BASIS_BUDGET monomials in degrees
        1 to its span is a ValueError.  Over A, where sq_bound(span) = span,
        that is a base span above DEGREE_CAP, as dim A_65 >= 1.  A double is
        checked on its base, and each problem names its own operations.
        """
        base, span = self._action.algebra, self.span >> self.doubling
        # summed lazily, to the span or A(n)'s top class, 2^(n+1) - 1 or more
        top = span if base.sq_bound(span) == span else min(span, base.top_degree)
        counts = (basis_count(base, d) for d in range(1, top + 1))
        if any(need > BASIS_BUDGET for need in accumulate(counts)):
            raise ValueError(
                f"{self.name}: span {span} over {base.name} needs more of its basis"
                f" than A has up to DEGREE_CAP = {DEGREE_CAP} ({BASIS_BUDGET} monomials)"
            )
        problems = self._validate_claims() + self._validate_associativity()
        self.validated = not problems
        return problems

    def _validate_claims(self) -> list[str]:
        # composite tables given to the constructor must match the expansion
        problems = []
        for k, claim in self._claims.items():
            for i, row in enumerate(claim):
                derived = self._act_basis((k,), i)
                if row != derived:
                    problems.append(
                        f"{self.name}: Sq^{k} on {self.gens[i]} is "
                        f"{self.ids_of(row)} but the generator "
                        f"expansion gives {self.ids_of(derived)}"
                    )
        return problems

    def _validate_associativity(self) -> list[str]:
        # rho(Sq(2^e) b) = rho(Sq(2^e)) rho(b) for each generator and basis
        # monomial b of the base makes the action multiplicative: acting by a
        # is defined through a = sum Sq(2^e) a', so by induction on |a|
        # rho(ab) = sum rho(Sq(2^e)) rho(a'b) = rho(a) rho(b)
        problems = []
        k = self.doubling
        base = self._action.algebra
        span = self.span >> k
        for e in base.generator_exponents(span):
            step = 1 << e
            table = self._generators.get(step << k, self._zeros)  # rho(Sq(2^e))
            for db in range(1, span - step + 1):
                basis = enumerate_basis(base, db)
                if not basis:
                    break  # past the top class of A(n): every higher degree is empty
                columns = generator_matrix(base, e, db)
                rows = [i for i, di in enumerate(self._action.degrees) if di + step + db <= span]
                # block(i, d)[p] is x x_i for the p-th degree-d monomial x
                for pos, (b, kb) in enumerate(zip(basis, columns)):
                    for i in rows:
                        upper = self._action.block(i, db + step)
                        lhs = reduce(xor, (upper[p] for p in bits(kb)), 0)
                        below = self._action.block(i, db)[pos]
                        rhs = reduce(xor, (table[p] for p in bits(below)), 0)
                        if lhs != rhs:
                            own = mono_str(tuple(r << k for r in b))
                            problems.append(
                                f"{self.name}: (Sq^{step << k}*{own}){self.gens[i]} = "
                                f"{self.ids_of(lhs)} but acting in two steps gives "
                                f"{self.ids_of(rhs)}"
                            )
        return problems


def trivial_module(algebra: Algebra, name: str = "F2") -> FiniteModule:
    return FiniteModule(name, algebra, ("u",), (0,), {})


# -- constructions -------------------------------------------------------------


def shift(M: FiniteModule, m: int, name: str | None = None) -> FiniteModule:
    """Shift all degrees up by m (tables unchanged)."""
    return FiniteModule(
        name or f"{M.name}[{m}]",
        M.algebra,
        M.gens,
        tuple(d + m for d in M.degrees),
        M.generator_tables,
    )


def dualize(M: FiniteModule, name: str | None = None) -> FiniteModule:
    """The dual module: (Sq^k f)(x) = f(chi(Sq^k) x); degrees are negated.

    chi(Sq^n) is the sum of the Milnor basis in degree n (Milnor 1958), so
    chi(Sq^(2^e)) x_j is the sum of M.images(j, 2^e), and Sq^(2^e) on the
    dual is its transpose.  Dual basis ids carry a trailing mark.
    """
    tables: dict[int, tuple[int, ...]] = {}
    for k in (1 << e for e in M.algebra.generator_exponents(M.span)):
        rows = [0] * M.dim
        for j in range(M.dim):
            for i in bits(reduce(xor, M.images(j, k), 0)):
                rows[i] |= 1 << j
        tables[k] = tuple(rows)
    return FiniteModule(
        name or f"D({M.name})",
        M.algebra,
        tuple(f"{g}'" for g in M.gens),
        tuple(-d for d in M.degrees),
        tables,
    )


def double(M: FiniteModule, k: int, name: str | None = None) -> FiniteModule:
    """Degree-doubling along the k-fold Verschiebung: Sq^{2^k j} acts as Sq^j did.

    Over A(n) the result is an A(n+k)-module; over the whole algebra it stays
    one.  Its degrees all agree mod 2^k, so its `doubling` is k or more and
    it acts through a base as M does; M's composite claims carry over.
    """
    if k < 0:
        raise ValueError("doubling exponent must be nonnegative")
    if k > DOUBLING_MAX:
        raise ValueError(f"doubling exponent must be at most {DOUBLING_MAX}")
    if k == 0:
        return M
    return FiniteModule(
        name or f"{M.name}^({k})",
        M.algebra if M.algebra.n is None else Algebra(n=M.algebra.n + k),
        M.gens,
        tuple(d << k for d in M.degrees),
        {j << k: t for j, t in (M.generator_tables | M._claims).items()},
    )


def restrict(M: FiniteModule, algebra: Algebra, name: str | None = None) -> FiniteModule:
    """M read over another algebra, keeping the generators that lie in it.

    Refused unless each Sq^k, k <= span, of the algebra lies in M's.  That
    holds for every subalgebra, and for any algebra that agrees with M's up
    to the span, as A(n)_d = A_d for d < 2^(n+1).
    """
    if algebra.sq_bound(M.span) > M.algebra.sq_bound(M.span):
        raise ValueError(f"{M.name} is not a module over {algebra.name}")
    tables = {k: t for k, t in M.generator_tables.items() if algebra.contains((k,))}
    return FiniteModule(name or f"{M.name}|{algebra.name}", algebra, M.gens, M.degrees, tables)


def tensor(M: FiniteModule, N: FiniteModule, name: str | None = None) -> FiniteModule:
    """Tensor product with the Cartan action Sq^k = sum Sq^a (x) Sq^{k-a}."""
    if M.algebra != N.algebra:
        raise ValueError(f"tensor over different algebras: {M.algebra} vs {N.algebra}")
    gens = tuple(f"{g}{h}" for g in M.gens for h in N.gens)
    if len(set(gens)) < len(gens):
        # concatenated ids collide (a.bc and ab.c): name classes by position
        gens = tuple(f"x{i}_{j}" for i in range(M.dim) for j in range(N.dim))
    degrees = tuple(dm + dn for dm in M.degrees for dn in N.degrees)
    dim_n = N.dim
    span = (max(degrees) - min(degrees)) if degrees else 0
    tables: dict[int, tuple[int, ...]] = {}
    for k in (1 << e for e in M.algebra.generator_exponents(span)):
        rows = [0] * (M.dim * dim_n)
        for i in range(M.dim):
            for j in range(dim_n):
                out = 0
                for a in range(k + 1):
                    left = (1 << i) if a == 0 else M.table(a)[i]
                    right = (1 << j) if a == k else N.table(k - a)[j]
                    for p in bits(left):
                        out ^= right << (p * dim_n)
                rows[i * dim_n + j] = out
        tables[k] = tuple(rows)
    return FiniteModule(name or f"{M.name}(x){N.name}", M.algebra, gens, degrees, tables)


def coaction(M: FiniteModule, i: int) -> list[tuple[Monomial, int]]:
    """Dual-side coaction of basis element i: pairs (xi-monomial, basis index).

    The coefficient of xi^R (x) x_j in psi(x_i) is the coefficient of x_i in
    Sq(R) x_j, so the list enumerates exactly the monomial actions hitting i.
    """
    out: list[tuple[Monomial, int]] = []
    for j in range(M.dim):
        gap = M.degrees[i] - M.degrees[j]
        if gap < 0:
            continue
        # the unit acts as the identity, so gap 0 gives ((), i) alone
        for m in enumerate_basis(M.algebra, gap):
            if (M._act_basis(m, j) >> i) & 1:
                out.append((m, j))
    return sorted(out, key=lambda pair: (pair[1], pair[0]))


# -- quotients and extensions ---------------------------------------------------

# table patterns extension_enumerate, and sums of Hom basis maps
# find_isomorphism, may try
SEARCH_LIMIT = 1 << 16


def cyclic_quotient(
    algebra: Algebra, relations: list[Element], name: str
) -> FiniteModule:
    """The cyclic module algebra / (left ideal generated by the relations).

    The ideal I is built degree by degree, and the loop stops once I_d is
    all of A(n)_d for 2^n consecutive degrees a, ..., a + 2^n - 1.  That is
    exact: A(n) is generated by the Sq(2^e) with 2^e <= 2^n, so each x of
    degree d > 0 is a sum of Sq(2^e) x' with d - 2^n <= |x'| < d.  For
    d >= a + 2^n every such x' has degree a or more, so it lies in I by
    induction on d, and as I is a left ideal, so does x.  Hence I is
    everything from degree a up: no class lies there, and the tables below
    read the ideal only up to the span.
    """
    if algebra.n is None:
        raise ValueError("cyclic quotients are built over a finite subalgebra")
    for rel in relations:
        if not rel:
            raise ValueError(f"{name}: zero relation")
        if not algebra.contains_element(rel):
            raise ValueError(f"{name}: relation {rel} is not in {algebra.name}")
        rel.degree  # raises when inhomogeneous
    # the ideal is the image of the free module on the relations: in degree
    # d it is spanned by the Sq(x) rel with |x| + |rel| = d
    image = FreeMap(algebra, lambda e, u: generator_matrix(algebra, e, u))
    for rel in relations:
        index = basis_index(algebra, rel.degree)
        image.add(rel.degree, sum(1 << index[m] for m in rel.monomials))
    ideal: list[Echelon] = []
    full = 0  # consecutive degrees, up to d, where the ideal is everything
    for d in range(algebra.top_degree + 1):
        size = len(enumerate_basis(algebra, d))
        ech = Echelon()
        ech.extend(image.columns(d))
        ideal.append(ech)
        full = full + 1 if ech.rank == size else 0
        if full == 1 << algebra.n:
            break

    # the classes are the non-pivot monomials; the pivots and residuals
    # depend only on the ideal, so they do not depend on the order above
    reps: list[tuple[int, int]] = []  # (degree, basis position)
    for d, ech in enumerate(ideal):
        pivots = set(ech.pivots())
        size = len(enumerate_basis(algebra, d))
        reps.extend((d, c) for c in range(size) if c not in pivots)
    degrees = tuple(d for d, _ in reps)
    ids = []
    seen: dict[int, int] = {}
    for d, _ in reps:
        count = seen.get(d, 0)
        seen[d] = count + 1
        suffix = "" if count == 0 else chr(ord("a") + count - 1) if count <= 26 else f"_{count}"
        ids.append(f"x{d}{suffix}")
    positions = {rep: i for i, rep in enumerate(reps)}

    span = max(degrees) if degrees else 0
    tables: dict[int, tuple[int, ...]] = {}
    for e in algebra.generator_exponents(span):
        k = 1 << e
        rows = [0] * len(reps)
        for i, (d, c) in enumerate(reps):
            if d + k > span:
                continue
            column = generator_matrix(algebra, e, d)[c]
            for c2 in bits(ideal[d + k].reduce(column)):
                rows[i] |= 1 << positions[(d + k, c2)]
        tables[k] = tuple(rows)
    return FiniteModule(name, algebra, tuple(ids), degrees, tables)


def extension_enumerate(
    M: FiniteModule, target: Algebra, name: str | None = None
) -> list[FiniteModule]:
    """All ways to extend M's action to the larger algebra, up to table choice.

    Only the new generator tables Sq(2^e) are free; composite squares follow
    from them.  Candidates are filtered by a full validate, and returned in
    the deterministic order of their bit patterns, each named name or
    M.name~pattern.  Past SEARCH_LIMIT patterns it raises ValueError before
    trying any.
    """
    span = M.span
    if M.algebra.sq_bound(span) > target.sq_bound(span):
        raise ValueError(f"{target.name} does not contain {M.algebra.name}")
    old = M.algebra.generator_exponents(span)
    new_ks = [1 << e for e in target.generator_exponents(span) if e not in old]
    slots: list[tuple[int, int, tuple[int, ...]]] = []  # (k, source index, targets)
    for k in new_ks:
        for i in range(M.dim):
            targets = M.basis_at(M.degrees[i] + k)
            if targets:
                slots.append((k, i, targets))
    total_bits = sum(len(t) for _, _, t in slots)
    if 1 << total_bits > SEARCH_LIMIT:
        raise ValueError(
            f"extensions of {M.name} to {target.name}: {1 << total_bits} table "
            f"patterns exceed the search limit {SEARCH_LIMIT}"
        )
    out: list[FiniteModule] = []
    for pattern in range(1 << total_bits):
        new_tables: dict[int, list[int]] = {k: [0] * M.dim for k in new_ks}
        pos = 0
        for k, i, targets in slots:
            for j in targets:
                if (pattern >> pos) & 1:
                    new_tables[k][i] |= 1 << j
                pos += 1
        tables = M.generator_tables
        tables.update((k, tuple(rows)) for k, rows in new_tables.items())
        label = name or f"{M.name}~{pattern}"
        candidate = FiniteModule(label, target, M.gens, M.degrees, tables)
        if not candidate.validate():
            out.append(candidate)
    return out


# -- Hom and isomorphisms ---------------------------------------------------------

class ModuleMap(NamedTuple):
    """A degreewise-linear map stored as global target bitsets per source index."""

    source: FiniteModule
    target: FiniteModule
    rows: tuple[int, ...]


def hom_basis(M: FiniteModule, N: FiniteModule) -> list[ModuleMap]:
    """A basis of the degree-preserving module maps M -> N.

    The unknowns are the entries (i, j) with x_i and y_j in one degree, taken
    from the top degree down; f Sq(2^e) = Sq(2^e) f is linear in them, so the
    maps are the kernel of one GF(2) system.  On validated modules that forces
    full equivariance, since every other operation expands over the Sq(2^e).
    The kernel combos have distinct top bits, so each map's last unknown lies
    in the lowest degree it touches, and the maps sharing a lowest degree are
    independent on that degree's block.
    """
    if M.algebra != N.algebra:
        raise ValueError(f"Hom across algebras: {M.algebra} vs {N.algebra}")
    targets = {d: N.basis_at(d) for d in set(M.degrees)}
    unknowns = [
        (i, j)
        for d in sorted(targets, reverse=True)
        for i in M.basis_at(d)
        for j in targets[d]
    ]
    index = {u: p for p, u in enumerate(unknowns)}
    span = max(M.top, N.top) - min(M.bottom, N.bottom)
    # column p holds the equations unknown p enters; equation (c, i, l) is the
    # coefficient of y_l in (f Sq^k - Sq^k f)(x_i) for the c-th generator Sq^k
    columns = [0] * len(unknowns)
    for c, k in enumerate(1 << e for e in M.algebra.generator_exponents(span)):
        for i, row in enumerate(M.table(k)):
            for i2 in bits(row):
                for j in targets[M.degrees[i2]]:
                    columns[index[i2, j]] ^= 1 << ((c * M.dim + i) * N.dim + j)
        for p, (i, j) in enumerate(unknowns):
            for l in bits(N.table(k)[j]):
                columns[p] ^= 1 << ((c * M.dim + i) * N.dim + l)
    maps = []
    for combo in kernel(columns):
        rows = [0] * M.dim
        for p in bits(combo):
            i, j = unknowns[p]
            rows[i] |= 1 << j
        maps.append(ModuleMap(M, N, tuple(rows)))
    return maps


def find_isomorphism(M: FiniteModule, N: FiniteModule) -> ModuleMap | None:
    """An isomorphism M -> N drawn from hom_basis, or None when there is none.

    The basis maps are grouped by the lowest degree they touch.  Going up the
    degrees, each sum of the maps whose lowest degree is d fixes the degree-d
    block, and a sum is kept only when that block is invertible, so the search
    is exhaustive.  Past SEARCH_LIMIT tried sums it raises ValueError.
    """
    if M.algebra == N.algebra and M.dims() != N.dims():
        return None
    basis = hom_basis(M, N)  # raises ValueError across algebras
    degrees = sorted(M.dims())
    blocks = [M.basis_at(d) for d in degrees]
    groups: dict[int, list[tuple[int, ...]]] = {d: [] for d in degrees}
    for f in basis:
        groups[min(M.degrees[i] for i, row in enumerate(f.rows) if row)].append(f.rows)
    tried = 0
    stack = [(0, 0, (0,) * M.dim)]  # (degree position, next map of its group, sum)
    while stack:
        pos, m, rows = stack.pop()
        if pos == len(degrees):
            return ModuleMap(M, N, rows)
        group = groups[degrees[pos]]
        if m < len(group):
            stack.append((pos, m + 1, tuple(r ^ s for r, s in zip(rows, group[m]))))
            stack.append((pos, m + 1, rows))
            continue
        tried += 1
        if tried > SEARCH_LIMIT:
            raise ValueError(
                f"isomorphism search {M.name} -> {N.name} passed {SEARCH_LIMIT} tried sums"
            )
        if rank(rows[i] for i in blocks[pos]) == len(blocks[pos]):
            stack.append((pos + 1, 0, rows))
    return None
