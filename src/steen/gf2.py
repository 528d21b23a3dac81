"""GF(2) linear algebra on int bitsets: echelon forms, ranks, kernels.

Two eliminations, chosen by what the answer depends on.

- `TopEchelon` eliminates a fixed list of vectors once, pivoting on top
  bits, and reduces a vector only until its top bit holds no row.  That
  answers everything that depends only on the row space or on which
  vectors are independent of the ones before them: the rank, the kernel
  combos, membership with the combo that reaches it, and which top bits
  the row space has.  `rank`, `kernel`, the Milnor expansion plans and
  admissible forms, and the resolver's kernels and choice of new
  generators read it.
- `Echelon` keeps a growing row space with lowest-bit pivots and reduces a
  vector until no pivot is set, so its residual is canonical: the one
  representative of the vector's coset with no pivot set.  Only answers
  that store such a residual need it: the values of the resolver's new
  generators and the classes of a cyclic quotient.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

__all__ = ["Echelon", "TopEchelon", "bits", "kernel", "rank"]


def bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Echelon:
    """Row space over GF(2) of int bitsets (bit j = column j), in echelon form.

    Each row's pivot is its lowest set bit, and no row holds the pivot of a
    row stored before it.  So XORing the row of the lowest pivot set in a
    vector clears that pivot and changes only higher bits; reduce() repeats
    that until no pivot (`_mask` is their OR) is set.  The residual is then
    the one representative of the vector with no pivot set, so it and the
    pivots, the lowest bits of the row space, depend only on that space.
    """

    __slots__ = ("_rows", "_mask")

    def __init__(self) -> None:
        self._rows: dict[int, int] = {}  # pivot bit -> row
        self._mask = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec: int) -> int:
        """The residual of vec against the stored rows: 0 exactly when vec lies in the row space."""
        rows = self._rows
        mask = self._mask
        hits = vec & mask
        while hits:
            vec ^= rows[hits & -hits]
            hits = vec & mask
        return vec

    def add(self, vec: int) -> int:
        """Insert vec if independent of the stored rows.

        Returns reduce(vec).  A zero residual means vec was dependent and
        nothing was inserted; otherwise the residual is stored under its
        lowest bit, and the older rows are left as they are.
        """
        vec = self.reduce(vec)
        if vec:
            pivot = vec & -vec
            self._rows[pivot] = vec
            self._mask |= pivot
        return vec

    def extend(self, vecs: Iterable[int]) -> None:
        """add() each of vecs in turn, with its loop written inline."""
        rows = self._rows
        mask = self._mask
        for vec in vecs:
            hits = vec & mask
            while hits:
                vec ^= rows[hits & -hits]
                hits = vec & mask
            if vec:
                pivot = vec & -vec
                rows[pivot] = vec
                mask |= pivot
        self._mask = mask

    def pivots(self) -> list[int]:
        """Pivot column indices, ascending."""
        return [p.bit_length() - 1 for p in sorted(self._rows)]


class TopEchelon:
    """One elimination of a list of int bitsets, by top-bit pivots.

    Vector i enters with tag 1 << i, packed below it as vec << n | 1 << i for
    n vectors, so that bit_length() of the packed int is n + bit_length(vec),
    the pivot key, and one XOR updates row and tag; a bit of a row never
    meets a tag.  A vector is reduced only while its top bit is a stored
    row's: at the first top bit that holds no row it is stored, and a vector
    reduced to 0 leaves its combo in the kernel.

    A dependent vector's combo is 1 << i plus the unique combination of the
    independent vectors before it that gives vector i, since every stored
    tag is a combination of independent vectors; so the kernel combos come
    out with strictly increasing top bits.  The stored rows have distinct
    top bits, so their top bits are those of every nonzero vector of the
    row space.
    """

    __slots__ = ("_rows", "_count", "_kernel")

    def __init__(self, vecs: Sequence[int]) -> None:
        n = self._count = len(vecs)
        # n + top bit + 1 -> row << n | tag
        rows: dict[int, int] = {}
        dependent = []
        tag = 1
        for vec in vecs:
            vec = vec << n | tag
            tag <<= 1
            top = vec.bit_length()
            row = rows.get(top)
            while row:
                vec ^= row
                top = vec.bit_length()
                row = rows.get(top)
            if top > n:
                rows[top] = vec
            else:
                dependent.append(vec)
        self._rows = rows
        self._kernel = dependent

    @property
    def rank(self) -> int:
        return len(self._rows)

    def kernel(self) -> list[int]:
        """The combos c, one per dependent vector, with XOR of vecs[i] over bits i of c zero."""
        return list(self._kernel)

    def basis(self) -> list[int]:
        """The stored rows, a basis of the row space, in the order they were stored."""
        n = self._count
        return [row >> n for row in self._rows.values()]

    def has_top(self, vec: int) -> bool:
        """Whether some vector of the row space has the top bit of vec (nonzero)."""
        return vec.bit_length() + self._count in self._rows

    def reduce(self, vec: int) -> tuple[int, int]:
        """Reduce vec against the stored rows until its top bit holds no row.

        Returns (residual, combo): residual is 0 exactly when vec lies in the
        row space, and then vec is the XOR of vecs[i] over bits i of combo,
        the unique such combo over the independent vectors.  A nonzero
        residual is not canonical.
        """
        n = self._count
        rows = self._rows
        vec <<= n
        row = rows.get(vec.bit_length())
        while row:
            vec ^= row
            row = rows.get(vec.bit_length())
        return vec >> n, vec & ((1 << n) - 1)


def rank(rows: Iterable[int]) -> int:
    """Rank of the matrix whose rows are the given bitsets."""
    return TopEchelon(list(rows)).rank


def kernel(rows: Iterable[int]) -> list[int]:
    """Basis of left-kernel combos: c with XOR of rows[i] over bits i of c zero.

    One combo per row that depends on the rows before it: 1 << i plus the
    unique combination of the independent rows before it that gives rows[i].
    So the combos come out with strictly increasing top bit, and the result
    depends on the rows' order only, not on how they are eliminated.
    """
    return TopEchelon(list(rows)).kernel()
