"""The packed F_2 primitives of hpe.mvpoly.gf2 against naive bit loops."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpe.fields import base_field
from hpe.mvpoly import gf2
from hpe.mvpoly.linalg import rref


@st.composite
def _bit_matrices(draw, max_rows=20, max_cols=130):
    """A 0/1 uint8 matrix; widths past 64 put a row in two words."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < density).astype(np.uint8)


def _as_int(bits) -> int:
    return sum(int(b) << j for j, b in enumerate(bits))


@settings(max_examples=80, deadline=None)
@given(bits=_bit_matrices())
def test_ints_of_words_round_trip(bits):
    packed = gf2.words(bits)
    assert packed.dtype == np.dtype("<u8")
    assert packed.shape == (len(bits), (bits.shape[1] + 63) // 64)
    assert gf2.ints(packed) == [_as_int(row) for row in bits]


@settings(max_examples=80, deadline=None)
@given(m=_bit_matrices(max_rows=24, max_cols=24))
def test_basis_rank_is_the_rref_rank(m):
    basis = gf2.Basis()
    for row in gf2.ints(gf2.words(m)):
        basis.add(row)
    assert len(basis) == len(rref(base_field(2), m)[1])


@settings(max_examples=80, deadline=None)
@given(m=_bit_matrices(), probe=_bit_matrices(max_rows=4))
def test_reduce_tags_rebuild_what_was_reduced(m, probe):
    # row i is kept with tag 2^i, so a tag names the given rows it sums
    rows = gf2.ints(gf2.words(m))
    basis = gf2.Basis()
    for i, row in enumerate(rows):
        basis.add(row, 1 << i)
    for row in rows + [_as_int(p) for p in probe]:
        rest, tag = basis.reduce(row)
        summed = 0
        for i, given_row in enumerate(rows):
            if tag >> i & 1:
                summed ^= given_row
        assert summed == row ^ rest
        # a row in the span reduces to 0; a rest has no kept leading bit
        assert rest == 0 if row in rows else rest.bit_length() not in basis.rows


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 130), out_bits=st.integers(1, 130), maps=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_tables_and_step_match_a_naive_xor(width, out_bits, maps, seed):
    # rows[j, b] is the image of input bit j under map b; the image of g is
    # the XOR of the rows its set bits select
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, (width, maps, out_bits), dtype=np.uint8)
    g = rng.integers(0, 2, (5, width), dtype=np.uint8)
    got = gf2.step(gf2.words(g), gf2.tables(gf2.words(rows)))
    assert got.shape == (5, maps, (out_bits + 63) // 64)
    for i in range(5):
        for b in range(maps):
            want = 0
            for j in np.flatnonzero(g[i]):
                want ^= _as_int(rows[j, b])
            assert gf2.ints(got[i, b][None]) == [want]


@settings(max_examples=60, deadline=None)
@given(m=_bit_matrices(max_rows=130, max_cols=130), k=st.sampled_from([1, 4, 8]),
       seed=st.integers(0, 2**32 - 1))
def test_int_tables_match_a_naive_xor(m, k, seed):
    rows = gf2.ints(gf2.words(m))
    tables = gf2.int_tables(rows, k)
    assert [len(t) for t in tables] == [1 << len(rows[c:c + k]) for c in range(0, len(rows), k)]
    v = np.random.default_rng(seed).integers(0, 2, len(rows), dtype=np.uint8)
    got = 0
    for c, table in enumerate(tables):
        got ^= table[_as_int(v[c * k:(c + 1) * k])]
    want = 0
    for j in np.flatnonzero(v):
        want ^= rows[j]
    assert got == want


# row counts that are not multiples of 4, so the last group is padded
@pytest.mark.parametrize("count", [1, 5, 289])
def test_nibble_tables_match_int_tables(count):
    rng = random.Random(count)
    rows = [(1 << 300) - 1] + [rng.getrandbits(300) for _ in range(count - 1)]
    want = gf2.int_tables(rows, 4)
    got = gf2.nibble_tables(rows)
    assert len(got) == len(want)
    for table, ref in zip(got, want):
        assert type(table) is tuple and len(table) == 16
        assert [table[v] for v in range(16)] == [ref[v % len(ref)] for v in range(16)]
