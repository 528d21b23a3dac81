"""GF(2) linear algebra on int bitsets: echelon forms, ranks, kernels."""

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
    """Row space over GF(2), kept in echelon form.

    Rows are int bitsets (bit j = column j).  Each inserted row may carry a
    tag bitset; reduce() reports membership as an XOR of tags, which is how
    callers recover kernel combinations and solutions.

    Each row's pivot is its lowest set bit, and no row holds the pivot of a
    row stored before it.  So XORing the row of the lowest pivot set in a
    vector clears that pivot and changes only higher bits; reduce() repeats
    that until no pivot (`_mask` is their OR) is set.  The residual is then
    the one representative of the vector with no pivot set, so it and the
    pivots, the lowest bits of the row space, depend only on that space.
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
        mask = self._mask
        hits = vec & mask
        while hits:
            row, rtag = rows[hits & -hits]
            vec ^= row
            tag ^= rtag
            hits = vec & mask
        return vec, tag

    def add(self, vec: int, tag: int = 0) -> tuple[int, int]:
        """Insert vec if independent of the stored rows.

        Returns reduce(vec, tag).  A zero residual means vec was dependent
        and nothing was inserted; otherwise the residual is stored under its
        lowest bit, and the older rows are left as they are.
        """
        vec, tag = self.reduce(vec, tag)
        if vec:
            pivot = vec & -vec
            self._rows[pivot] = (vec, tag)
            self._mask |= pivot
        return vec, tag

    def extend(self, vecs: Iterable[int]) -> list[int]:
        """Add each vecs[i] with tag 1 << i; the dependent ones' combos, in order."""
        added = (self.add(vec, 1 << i) for i, vec in enumerate(vecs))
        return [combo for residual, combo in added if not residual]

    def pivots(self) -> list[int]:
        """Pivot column indices, ascending."""
        return [p.bit_length() - 1 for p in sorted(self._rows)]


def rank(rows: Iterable[int]) -> int:
    """Rank of the matrix whose rows are the given bitsets."""
    ech = Echelon()
    ech.extend(rows)
    return ech.rank


def kernel(rows: Iterable[int]) -> list[int]:
    """Basis of left-kernel combos: c with XOR of rows[i] over bits i of c zero.

    Combos come out with strictly increasing top bit, one per dependent row,
    so the result is deterministic and visibly independent.
    """
    return Echelon().extend(rows)
