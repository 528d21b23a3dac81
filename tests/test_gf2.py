"""Tests for the bit-packed GF(2) linear algebra layer."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    RowWalkingEchelon,
    echelon_contains,
    echelon_rows,
    reference_kernel,
    solve,
)
from steen.gf2 import Echelon, bits, kernel, rank


def xor_combo(rows, combo):
    acc = 0
    for i in bits(combo):
        acc ^= rows[i]
    return acc


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
    assert echelon_contains(ech, 0b101)
    assert not echelon_contains(ech, 0b100)
    residual, _ = ech.reduce(0b110 ^ 0b011)
    assert residual == 0


def test_echelon_rows_are_reduced():
    ech = Echelon()
    for row in [0b1110, 0b0111, 0b1001, 0b1111]:
        ech.add(row)
    reduced = echelon_rows(ech)
    pivots = [row & -row for row in reduced]
    assert len(set(pivots)) == len(reduced)
    # reduced form: no row contains another row's pivot
    for i, row in enumerate(reduced):
        for j, pivot in enumerate(pivots):
            if i != j:
                assert row & pivot == 0


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
@given(tagged_rows(), st.integers(0, (1 << 48) - 1))
def test_echelon_matches_the_row_walking_reference(entries, probe):
    ech, ref = Echelon(), RowWalkingEchelon()
    for vec, tag in entries:
        assert ech.reduce(vec, tag) == ref.reduce(vec, tag)
        assert ech.add(vec, tag) == ref.add(vec, tag)
        assert ech.rank == ref.rank
        assert ech.pivots() == ref.pivots()
    assert ech.reduce(probe, 1) == ref.reduce(probe, 1)
    vecs = [vec for vec, _ in entries]
    assert kernel(vecs) == reference_kernel(vecs)
