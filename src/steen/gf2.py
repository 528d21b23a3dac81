"""GF(2) linear algebra on int bitsets: echelon forms, ranks, kernels."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

__all__ = ["Echelon", "bits", "kernel", "rank"]


def bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Echelon:
    """Row space over GF(2), kept in reduced echelon form.

    Rows are int bitsets (bit j = column j).  Each inserted row may carry a
    tag bitset; reduce() reports membership as an XOR of tags, which is how
    callers recover kernel combinations and solutions.

    Each row's pivot is its lowest set bit, and no row has another row's
    pivot set.  So the rows that act on a vector are exactly those whose
    pivots it has set, and `_mask`, the OR of all pivots, picks them out:
    XORing one of them clears its own pivot and leaves the others alone.
    """

    __slots__ = ("_rows", "_mask")

    def __init__(self) -> None:
        # pivot bit -> (row, tag)
        self._rows: dict[int, tuple[int, int]] = {}
        self._mask = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec: int, tag: int = 0) -> tuple[int, int]:
        """Reduce vec against the stored rows.

        Returns (residual, combo): residual is 0 exactly when vec lies in
        the row space, and combo is tag XORed with the tags of the rows used.
        """
        rows = self._rows
        hits = vec & self._mask
        while hits:
            pivot = hits & -hits
            row, rtag = rows[pivot]
            vec ^= row
            tag ^= rtag
            hits ^= pivot
        return vec, tag

    def add(self, vec: int, tag: int = 0) -> tuple[int, int]:
        """Insert vec if independent of the stored rows.

        Returns reduce(vec, tag).  A zero residual means vec was dependent
        and nothing was inserted.  The new row is cleared from the pivots of
        the old ones, and its pivot from theirs, so the rows stay reduced.
        """
        vec, tag = self.reduce(vec, tag)
        if vec:
            pivot = vec & -vec
            rows = self._rows
            for p, (row, rtag) in rows.items():
                if row & pivot:
                    rows[p] = (row ^ vec, rtag ^ tag)
            rows[pivot] = (vec, tag)
            self._mask |= pivot
        return vec, tag

    def pivots(self) -> list[int]:
        """Pivot column indices, ascending."""
        return [p.bit_length() - 1 for p in sorted(self._rows)]


def rank(rows: Iterable[int]) -> int:
    """Rank of the matrix whose rows are the given bitsets."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def kernel(rows: Sequence[int]) -> list[int]:
    """Basis of left-kernel combos: c with XOR of rows[i] over bits i of c zero.

    Combos come out with strictly increasing top bit, one per dependent row,
    so the result is deterministic and visibly independent.
    """
    ech = Echelon()
    out: list[int] = []
    for i, row in enumerate(rows):
        residual, combo = ech.add(row, 1 << i)
        if residual == 0:
            out.append(combo)
    return out
