"""Tests for the bit-packed GF(2) linear algebra layer."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RowWalkingEchelon, reference_kernel, reference_rank
from steen.gf2 import Echelon, TopEchelon, bits, kernel, rank


def xor_combo(rows, combo):
    acc = 0
    for i in bits(combo):
        acc ^= rows[i]
    return acc


def solve(rows, target):
    """A combo c with XOR of rows[i] over bits i of c equal to target, or None."""
    residual, combo = TopEchelon(rows).reduce(target)
    return combo if residual == 0 else None


def reversed_bits(vec, width):
    return int(f"{vec:0{width}b}"[::-1], 2)


def test_bits():
    assert list(bits(0)) == []
    assert list(bits(0b1011)) == [0, 1, 3]


def test_rank_examples():
    assert rank([]) == 0
    assert rank([0, 0]) == 0
    assert rank([0b1]) == 1
    assert rank([0b11, 0b01, 0b10]) == 2
    assert rank([0b100, 0b010, 0b001]) == 3


def test_echelon_reduce_membership():
    ech = Echelon()
    ech.add(0b110)
    ech.add(0b011)
    assert ech.reduce(0b101) == 0
    assert ech.reduce(0b100) != 0
    assert ech.reduce(0b110 ^ 0b011) == 0


def assert_forward_echelon(ech):
    """Distinct pivots, each its row's lowest bit, none set in a later row."""
    stored = list(ech._rows.items())  # in the order the rows were stored
    pivots = [pivot for pivot, _ in stored]
    assert len(set(pivots)) == len(stored)
    for n, (pivot, row) in enumerate(stored):
        assert row & -row == pivot
        assert not any(row & earlier for earlier in pivots[:n])


def test_echelon_rows_keep_the_forward_invariant():
    ech = Echelon()
    ech.extend([0b1110, 0b0111, 0b1001, 0b1111])
    assert_forward_echelon(ech)
    assert ech.pivots() == [0, 1, 3]
    # older rows keep a later pivot: nothing back-substitutes 0b1000
    assert ech._rows[0b10] == 0b1110 and ech._rows[0b1] == 0b1001


def test_kernel_combos_annihilate():
    rows = [0b101, 0b011, 0b110, 0b000, 0b101]
    combos = kernel(rows)
    assert len(combos) == 5 - rank(rows)
    for combo in combos:
        assert combo != 0
        assert xor_combo(rows, combo) == 0
    tops = [c.bit_length() for c in combos]
    assert tops == sorted(set(tops))


def test_solve():
    rows = [0b101, 0b011]
    combo = solve(rows, 0b110)
    assert combo is not None
    assert xor_combo(rows, combo) == 0b110
    assert solve(rows, 0b100) is None
    assert solve([], 0) == 0


def test_random_rank_nullity_and_kernel():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 12)
        width = rng.randrange(1, 12)
        rows = [rng.getrandbits(width) for _ in range(n)]
        combos, r = kernel(rows), rank(rows)
        assert (combos, r) == (reference_kernel(rows), reference_rank(rows))
        assert r + len(combos) == n
        for combo in combos:
            assert xor_combo(rows, combo) == 0
        # solve agrees with membership of a random XOR of rows
        pick = rng.getrandbits(n)
        target = xor_combo(rows, pick)
        combo = solve(rows, target)
        assert combo is not None
        assert xor_combo(rows, combo) == target


@st.composite
def one_width_rows(draw):
    """Bitsets of one random width; narrow ones repeat and depend."""
    width = draw(st.integers(1, 48))
    return draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))


@settings(max_examples=300, deadline=None)
@given(
    one_width_rows(),
    st.integers(0, (1 << 48) - 1),
    st.lists(st.integers(0, (1 << 48) - 1), max_size=8),
)
def test_echelon_matches_the_row_walking_reference(vecs, probe, more):
    ech, ref = Echelon(), RowWalkingEchelon()
    for vec in vecs:
        assert ech.reduce(vec) == ref.reduce(vec)[0]
        assert ech.add(vec) == ref.add(vec)[0]
        assert ech.rank == ref.rank
        assert ech.pivots() == ref.pivots()
    assert ech.reduce(probe) == ref.reduce(probe)[0]
    # extend on the non-empty echelon
    batch = more + vecs[::-1]
    ech.extend(batch)
    ref.extend(batch)
    assert ech.rank == ref.rank
    assert ech.pivots() == ref.pivots()
    assert all(ech.reduce(vec) == 0 for vec in batch)
    assert ech.reduce(probe) == ref.reduce(probe)[0]
    assert_forward_echelon(ech)
    assert kernel(vecs) == reference_kernel(vecs)
    assert rank(vecs) == reference_rank(vecs)
    # the top-bit elimination of the same batch: kernel, rank, membership
    # with the combo over the independent vectors, and the row space's top
    # bits, which are the reference's pivots on the bit-reversed vectors
    span, ref = TopEchelon(batch), RowWalkingEchelon()
    assert span.kernel() == ref.extend(batch)
    assert span.rank == ref.rank
    residual, combo = span.reduce(probe)
    ref_residual, ref_combo = ref.reduce(probe)
    assert (residual == 0) == (ref_residual == 0)
    if residual == 0:
        assert combo == ref_combo
    flipped = RowWalkingEchelon()
    for vec in batch:
        flipped.add(reversed_bits(vec, 48))
    tops = [47 - p for p in flipped.pivots()][::-1]
    assert [j for j in range(48) if span.has_top(1 << j)] == tops
    basis = span.basis()
    assert sorted(row.bit_length() - 1 for row in basis) == tops
    assert all(ref.reduce(row)[0] == 0 for row in basis)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 64).flatmap(lambda w: st.integers(0, (1 << w) - 1)), max_size=30))
def test_rank_and_kernel_take_their_width_from_the_rows(rows):
    # rows of mixed widths: no width is given, and a bit above every
    # other row's is only a top bit with no row
    assert kernel(rows) == reference_kernel(rows)
    assert rank(rows) == reference_rank(rows)
    # a bit above every row's is a top bit that holds no row: such a vector
    # is outside the row space, not refused
    wide = 1 << 64 | 1
    span = TopEchelon(rows)
    assert not span.has_top(wide)
    assert span.reduce(wide)[0] == wide
