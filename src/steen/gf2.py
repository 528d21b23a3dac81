"""GF(2) linear algebra on int bitsets: echelon forms, ranks, kernels.

An `Echelon` has a fixed width, and packs each stored row with its tag as the
one int row | tag << width, so reducing a vector is one XOR per row used.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["Echelon", "bits", "kernel", "rank"]


def bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Echelon:
    """Row space over GF(2) of bitsets below bit width, kept in echelon form.

    Rows are int bitsets (bit j = column j, j < width).  Each inserted row may
    carry a tag bitset; reduce() reports membership as an XOR of tags, which
    is how callers recover kernel combinations and solutions.  A row is
    stored with its tag above bit width, as row | tag << width, so one XOR
    updates both; a vector with a bit at or above width is refused, since it
    would mix into the tags.

    Each row's pivot is its lowest set bit, and no row holds the pivot of a
    row stored before it.  So XORing the row of the lowest pivot set in a
    vector clears that pivot and changes only higher bits; reduce() repeats
    that until no pivot (`_mask` is their OR) is set.  The residual is then
    the one representative of the vector with no pivot set, so it and the
    pivots, the lowest bits of the row space, depend only on that space.
    Packing the tags changes none of this: the pivots all lie below width,
    and the residuals, combos and pivots are those of rows and tags kept
    apart.
    """

    __slots__ = ("_rows", "_mask", "_width")

    def __init__(self, width: int) -> None:
        self._width = width
        # pivot bit -> row | tag << width
        self._rows: dict[int, int] = {}
        self._mask = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec: int, tag: int = 0) -> tuple[int, int]:
        """Reduce vec against the stored rows.

        Returns (residual, combo): residual is 0 exactly when vec lies in
        the row space, and combo is tag XORed with the tags of the rows used.
        """
        width = self._width
        if vec >> width:
            raise ValueError(f"vector {vec:#x} does not fit in width {width}")
        rows = self._rows
        mask = self._mask
        vec |= tag << width
        hits = vec & mask
        while hits:
            vec ^= rows[hits & -hits]
            hits = vec & mask
        return vec & ((1 << width) - 1), vec >> width

    def add(self, vec: int, tag: int = 0) -> tuple[int, int]:
        """Insert vec if independent of the stored rows.

        Returns reduce(vec, tag), reduced by the same loop.  A zero residual
        means vec was dependent and nothing was inserted; otherwise the
        residual is stored under its lowest bit, and the older rows are left
        as they are.
        """
        width = self._width
        if vec >> width:
            raise ValueError(f"vector {vec:#x} does not fit in width {width}")
        rows = self._rows
        mask = self._mask
        vec |= tag << width
        hits = vec & mask
        while hits:
            vec ^= rows[hits & -hits]
            hits = vec & mask
        residual = vec & ((1 << width) - 1)
        if residual:
            pivot = vec & -vec
            rows[pivot] = vec
            self._mask = mask | pivot
        return residual, vec >> width

    def extend(self, vecs: Iterable[int]) -> list[int]:
        """Add each vecs[i] with tag 1 << i; the dependent ones' combos, in order.

        This is add() once per vector, with its loop written inline.
        """
        width = self._width
        low = (1 << width) - 1
        rows = self._rows
        mask = self._mask
        dependent = []
        tag = 1 << width  # tag 1 << i, packed above the row
        for vec in vecs:
            if vec >> width:
                raise ValueError(f"vector {vec:#x} does not fit in width {width}")
            vec |= tag
            tag <<= 1
            hits = vec & mask
            while hits:
                vec ^= rows[hits & -hits]
                hits = vec & mask
            if vec & low:
                pivot = vec & -vec
                rows[pivot] = vec
                self._mask = mask = mask | pivot
            else:
                dependent.append(vec >> width)
        return dependent

    def pivots(self) -> list[int]:
        """Pivot column indices, ascending."""
        return [p.bit_length() - 1 for p in sorted(self._rows)]


def rank(rows: Iterable[int]) -> int:
    """Rank of the matrix whose rows are the given bitsets."""
    rows = list(rows)
    ech = Echelon(max(rows, default=0).bit_length())
    ech.extend(rows)
    return ech.rank


def kernel(rows: Iterable[int]) -> list[int]:
    """Basis of left-kernel combos: c with XOR of rows[i] over bits i of c zero.

    Combos come out with strictly increasing top bit, one per dependent row,
    so the result is deterministic and visibly independent.
    """
    rows = list(rows)
    return Echelon(max(rows, default=0).bit_length()).extend(rows)
