"""Tests for the bit-packed GF(2) linear algebra layer."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RowWalkingEchelon, reference_kernel, reference_rank
from steen.gf2 import Echelon, bits, kernel, rank


def xor_combo(rows, combo):
    acc = 0
    for i in bits(combo):
        acc ^= rows[i]
    return acc


def solve(rows, target):
    """A combo c with XOR of rows[i] over bits i of c equal to target, or None."""
    ech = Echelon(max([*rows, target]).bit_length())
    ech.extend(rows)
    residual, combo = ech.reduce(target)
    return combo if residual == 0 else None


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
    ech = Echelon(3)
    ech.add(0b110)
    ech.add(0b011)
    assert ech.reduce(0b101)[0] == 0
    assert ech.reduce(0b100)[0] != 0
    residual, _ = ech.reduce(0b110 ^ 0b011)
    assert residual == 0


def assert_forward_echelon(ech):
    """Distinct pivots, each its row's lowest bit, none set in a later row."""
    stored = list(ech._rows.items())  # in the order the rows were stored
    pivots = [pivot for pivot, _ in stored]
    assert len(set(pivots)) == len(stored)
    for n, (pivot, packed) in enumerate(stored):
        row = packed & ((1 << ech._width) - 1)  # the tag sits above the width
        assert row & -row == pivot
        assert not any(row & earlier for earlier in pivots[:n])


def test_echelon_rows_keep_the_forward_invariant():
    ech = Echelon(4)
    for row in [0b1110, 0b0111, 0b1001, 0b1111]:
        ech.add(row)
    assert_forward_echelon(ech)
    assert ech.pivots() == [0, 1, 3]
    # older rows keep a later pivot: nothing back-substitutes 0b1000
    assert ech._rows[0b10] & 0b1111 == 0b1110 and ech._rows[0b1] & 0b1111 == 0b1001


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
        r = rank(rows)
        combos = kernel(rows)
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
def tagged_rows(draw):
    """Bitsets of one random width (narrow ones repeat and depend), with tags."""
    width = draw(st.integers(1, 48))
    return draw(
        st.lists(
            st.tuples(st.integers(0, (1 << width) - 1), st.integers(0, 255)),
            max_size=40,
        )
    )


@settings(max_examples=300, deadline=None)
@given(
    tagged_rows(),
    st.integers(0, (1 << 48) - 1),
    st.lists(st.integers(0, (1 << 48) - 1), max_size=8),
)
def test_echelon_matches_the_row_walking_reference(entries, probe, more):
    ech, ref = Echelon(48), RowWalkingEchelon()
    for vec, tag in entries:
        assert ech.reduce(vec, tag) == ref.reduce(vec, tag)
        assert ech.add(vec, tag) == ref.add(vec, tag)
        assert ech.rank == ref.rank
        assert ech.pivots() == ref.pivots()
    assert ech.reduce(probe, 1) == ref.reduce(probe, 1)
    vecs = [vec for vec, _ in entries]
    # extend on the non-empty echelon: the old rows' tags enter the combos
    batch = more + vecs[::-1]
    assert ech.extend(batch) == ref.extend(batch)
    assert ech.rank == ref.rank
    assert ech.pivots() == ref.pivots()
    assert_forward_echelon(ech)
    assert kernel(vecs) == reference_kernel(vecs)
    assert rank(vecs) == reference_rank(vecs)


def test_echelon_refuses_a_vector_as_wide_as_its_width():
    # bit 4 would land in the tags, so all three entry points refuse it
    ech = Echelon(4)
    ech.add(0b1)
    for call in (ech.reduce, ech.add, lambda vec: ech.extend([0b10, vec])):
        with pytest.raises(ValueError, match="width 4"):
            call(0b10000)
    # extend kept the row it stored before the refusal, and the mask with it
    assert ech.pivots() == [0, 1]
    assert ech.reduce(0b11) == (0, 0b1)  # 0b10 came in with the tag 1 << 0
    assert ech.add(0b1111) == (0b1100, 0b1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 64).flatmap(lambda w: st.integers(0, (1 << w) - 1)), max_size=30))
def test_rank_and_kernel_take_their_width_from_the_rows(rows):
    # rows of mixed widths: the widest one sets the echelon's width
    assert kernel(rows) == reference_kernel(rows)
    assert rank(rows) == reference_rank(rows)
