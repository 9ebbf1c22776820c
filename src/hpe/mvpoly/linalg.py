"""Exact linear algebra over F_q.

Matrices and vectors are numpy uint8 arrays of scalar indices 0..q-1.  A
product is one float64 product over F_p (see matmul), except where
characteristic 2 makes addition the XOR of the indices: there matvec is one
table gather and one XOR reduction, and a right factor kept as packed F_2
rows multiplies by XORing the rows that the left factor's bits select (see
packed_operand).  Row reduction expands an F_q matrix to its F_p matrix on
base-p digits and runs one Gauss-Jordan over F_p on Python integers (see
rref).  At p = 2 that is gf2.rref: up to gf2.WHOLE_MATRIX_COLS columns the
whole F_2 matrix is one integer, so a pivot costs a few big-integer
operations however many rows there are; past that width its multiply,
which grows with the square of the width, costs more than a Python step
per row, and each row is one integer.  At odd p each row is one integer of
8..64-bit slots, reduced mod p once per pivot row and where it is read.
That elimination is the one reader of its packed rows: it hands back the
reduced F_p matrix, and rank, inverse, solve and nullspace read rref's F_q
matrix and pivots at every p.  Pivoting is deterministic: columns in
order, first nonzero row, free variables set to zero in particular
solutions.  Random scalars are read from the rng in bulk, draw for draw
what per-entry randrange calls would give (see random_scalars).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..errors import SingularMatrix
from . import gf2


def as_matrix(rows) -> np.ndarray:
    return np.array(rows, dtype=np.uint8)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def matmul(base, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the base field, one float64 product over F_p.

    The left operand's base-p digits multiply the regular representations
    base.mul_matrices of the right operand's entries; every partial sum is
    an integer below 2^53, so BLAS is exact before the reduction mod p.
    """
    return times(base, a, operand(base, b))


def operand(base, b: np.ndarray) -> np.ndarray:
    """The float64 right operand of b in matmul, to reuse across products."""
    r = base.r
    k, cols = b.shape
    return base.mul_matrices.take(b, axis=0).transpose(0, 2, 3, 1).reshape(k * r, r * cols)


def times(base, a: np.ndarray, right: np.ndarray) -> np.ndarray:
    """a times the matrix whose operand(base, b) is right, over the base field."""
    p, r = base.p, base.r
    m, k = a.shape
    left = base.mul_matrices[:, 0].take(a, axis=0).reshape(m, k * r)
    out = left @ right
    # out -= p * floor(out / p), exact and faster than np.mod, in place:
    # fresh temporaries of a large product cost more than the arithmetic
    high = out / p
    np.floor(high, out=high)
    high *= p
    out -= high
    return pack_digits(base, out.reshape(m, r, right.shape[1] // r))


def packed_operand(base, b: np.ndarray) -> tuple:
    """At p = 2, the right factor b (k, cols) as gf2.sums rows, with its
    column count and the (q, r) table of scalar bits: row 1 + j*r + s holds
    the digits of w^s b[j], digit d of column c at bit d*cols + c, the F_2
    matrix that operand holds in float64; row 0 is the zero row that
    gf2.sums asks for."""
    r = base.r
    k, cols = b.shape
    digits = base.mul_matrices.astype(np.uint8)
    rows = np.zeros((1 + k * r, r * cols), dtype=np.uint8)
    rows[1:] = digits.take(b, axis=0).transpose(0, 2, 3, 1).reshape(k * r, r * cols)
    return gf2.words(rows), cols, digits[:, 0]


def packed_times(base, a: np.ndarray, right: tuple) -> np.ndarray:
    """a times the matrix whose packed_operand(base, b) is right, at p = 2:
    bit s of a[i, j] selects row 1 + j*r + s, and row i of the product is
    the XOR of what row i selects, its digits then packed into scalars."""
    r = base.r
    rows, cols, bits = right
    m, k = a.shape
    out = gf2.sums(rows, bits.take(a, axis=0).reshape(m, k * r))
    out = np.unpackbits(out.view(np.uint8), axis=-1, count=r * cols, bitorder="little")
    return np.packbits(out.reshape(m, r, cols), axis=1, bitorder="little")[:, 0]


def pack_digits(base, digits: np.ndarray) -> np.ndarray:
    """Scalars from their base-p digits (each below p) along the
    second-to-last axis; the values fit in uint8, so uint8 arithmetic is exact."""
    digits = digits.astype(np.uint8)
    out = digits[..., -1, :]
    for s in range(base.r - 2, -1, -1):
        out = out * base.p + digits[..., s, :]
    return out


def matvec(base, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a v over the base field."""
    v = np.asarray(v, dtype=np.uint8)
    if base.p == 2:
        return np.bitwise_xor.reduce(base.mul_table[a, v], axis=-1)
    return matmul(base, a, v.reshape(-1, 1))[:, 0]


def rref(base, m: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Reduced row echelon form and the (row, column) pivot list.

    m is expanded to its F_p matrix: entry (i, j) becomes the r x r block
    of y -> m_ij * y on base-p digits, the transpose of mul_matrices[m_ij].
    The expansion is a ring map and the RREF is unique, so the F_p RREF is
    the expansion of the F_q one: F_q entry (i, j) is the column of digits
    at F_p rows i*r.., column j*r, and F_p pivot (i*r, j*r) is F_q pivot (i, j).
    """
    m = np.asarray(m, dtype=np.uint8)
    reduced, pivots = _rref_fp(base.p, _fp_matrix(base, m))
    r = base.r
    rows, cols = m.shape
    return (pack_digits(base, reduced[:, ::r].reshape(rows, r, cols)),
            [(i // r, c // r) for i, c in pivots[::r]])


def _fp_matrix(base, m: np.ndarray) -> np.ndarray:
    """The uint8 F_p matrix of m, as rref describes it."""
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    r = base.r
    rows, cols = m.shape
    digits = base.mul_matrices[m].transpose(0, 3, 1, 2).reshape(rows * r, cols * r)
    return digits.astype(np.uint8)


def _slot_bits(p: int, cols: int) -> int:
    """Bits per entry of a packed F_p row of cols entries, at odd p: the
    narrowest of 8..64 that holds p + cols*p^2, since an entry starts below
    p and each of at most cols updates adds below p^2."""
    return next(w for w in (8, 16, 32, 64) if p + cols * p * p < 1 << w)


def _rref_fp(p: int, digits: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Gauss-Jordan over F_p: the reduced uint8 F_p matrix and the pivots.

    At p = 2 it is gf2.rref.  At odd p each row is packed into one Python
    integer, entry c in bits c*w..c*w+w-1 (M4RI's packing, in slots), and a
    row update is R += (p - f) * P, with the pivot row P reduced and scaled
    to a leading 1 as it is chosen; a slot is reduced mod p only where it
    is read.  Columns are taken in order.
    """
    if p == 2:
        return gf2.rref(digits)
    n_rows, cols = digits.shape
    w = _slot_bits(p, cols)
    dtype = np.dtype("<u%d" % (w // 8))
    width = cols * w // 8  # bytes per row

    packed = gf2.ints(digits.astype(dtype))
    mask = (1 << w) - 1
    pivots: list[tuple[int, int]] = []
    for c in range(cols):
        shift = c * w
        top = len(pivots)
        for i in range(top, n_rows):
            if (packed[i] >> shift & mask) % p:
                break
        else:
            continue
        pivot = packed[i]
        packed[i] = packed[top]
        scaled = np.frombuffer(pivot.to_bytes(width, "little"), dtype) % p
        scaled = scaled * pow(pivot >> shift & mask, -1, p) % p
        pivot = int.from_bytes(scaled.astype(dtype, copy=False).tobytes(), "little")
        packed = [row + (p - f) * pivot if (f := (row >> shift & mask) % p) else row
                  for row in packed]
        packed[top] = pivot
        pivots.append((top, c))
    buf = np.frombuffer(b"".join([row.to_bytes(width, "little") for row in packed]), dtype)
    return (buf.reshape(n_rows, cols) % p).astype(np.uint8), pivots


def rank(base, m: np.ndarray) -> int:
    """Rank over F_q: the number of rref's pivots."""
    return len(rref(base, m)[1])


def inverse(base, m: np.ndarray) -> np.ndarray:
    """Matrix inverse; raises SingularMatrix when rank is deficient."""
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape != (n, n):
        raise SingularMatrix("only square matrices are invertible")
    aug = np.concatenate([m, identity(n)], axis=1)
    red, pivots = rref(base, aug)
    if len(pivots) < n or any(c >= n for _, c in pivots):
        raise SingularMatrix("matrix has rank %d < %d" % (len(pivots), n))
    return red[:, n:].copy()


def scatter_sums(base, index, values: np.ndarray, size: int, n: int) -> np.ndarray:
    """Sums of elements of F_q^n into size bins, values[i] going to bin
    index[i]; (size, ..., n) coordinate rows for (m, ..., E) values.

    The last axis of values is the element, as expand_product gives it: n
    coordinates at odd p, whose base-p digits are summed as integers and
    reduced mod p, or n*r bits in little-endian uint64 words at p = 2,
    where a sum is the XOR of each run of the index sorted once.
    """
    p, r = base.p, base.r
    if p == 2:
        order = np.argsort(index)
        index = index[order]
        starts = np.flatnonzero(np.diff(index, prepend=-1))
        sums = np.zeros((size,) + values.shape[1:], dtype=values.dtype)
        sums[index[starts]] = np.bitwise_xor.reduceat(values[order], starts)
        bits = np.unpackbits(sums.view(np.uint8), axis=-1, count=n * r, bitorder="little")
        digits = bits.reshape(-1, n, r).transpose(0, 2, 1)
    else:
        cells = int(np.prod(values.shape[1:]))  # coordinates per bin
        slots = (index[:, None] * cells + np.arange(cells)).ravel()
        sums = np.zeros((r, size * cells))
        flat = values.ravel()
        for d in range(r):
            if d < r - 1:
                flat, digit = np.divmod(flat, p)
            else:
                digit = flat  # the top digit is all that the divisions left
            sums[d] = np.bincount(slots, digit, minlength=size * cells)
        digits = (sums % p).reshape(r, -1, n).transpose(1, 0, 2)
    return pack_digits(base, digits).reshape((size,) + values.shape[1:-1] + (n,))


def nullspace(base, m: np.ndarray) -> list[np.ndarray]:
    """Basis of the right kernel of m, one vector per free column."""
    m = as_matrix(m)
    zero = np.zeros((m.shape[0], 1), dtype=np.uint8)
    return _solution(base, np.concatenate([m, zero], axis=1), m.shape[1]).nullspace


@dataclass
class Solution:
    """Particular solution plus a basis of the homogeneous solution space."""

    particular: np.ndarray
    nullspace: list[np.ndarray] = field(default_factory=list)

    def sample(self, base, rng: random.Random) -> np.ndarray:
        """Uniform sample from the full affine solution set."""
        out = self.particular.copy()
        add_t, mul_t = base.add_table, base.mul_table
        for vec in self.nullspace:
            out = add_t[out, mul_t[rng.randrange(base.q), vec]]
        return out

    def count(self, base) -> int:
        return base.q ** len(self.nullspace)

    def enumerate(self, base):
        """Yield every vector of the affine solution set."""
        add_t, mul_t = base.add_table, base.mul_table
        stack = [self.particular]
        for vec in self.nullspace:
            scaled = [mul_t[c, vec] for c in range(base.q)]
            stack = [add_t[s, sc] for s in stack for sc in scaled]
        yield from stack


def solve(base, a: np.ndarray, b: np.ndarray) -> Solution | None:
    """Solve a x = b; None when inconsistent (a value, not an error)."""
    a = as_matrix(a)
    b = np.asarray(b, dtype=np.uint8).reshape(-1, 1)
    if a.shape[0] != b.shape[0]:
        raise ValueError("matrix and right-hand side disagree on row count")
    return _solution(base, np.concatenate([a, b], axis=1), a.shape[1])


def _solution(base, aug: np.ndarray, cols: int) -> Solution | None:
    """The solutions of the system whose augmented matrix is aug, cols
    unknowns, or None.  The particular solution (free variables zero) and
    one kernel vector per free column are read from the pivot rows of the
    RREF, at its last column and at the free columns."""
    red, pivots = rref(base, aug)
    if any(c == cols for _, c in pivots):
        return None
    pivot_cols = [c for _, c in pivots]
    red = red[:len(pivots)]
    particular = np.zeros(cols, dtype=np.uint8)
    particular[pivot_cols] = red[:, cols]
    basis = []
    for fc in sorted(set(range(cols)).difference(pivot_cols)):
        vec = np.zeros(cols, dtype=np.uint8)
        vec[fc] = 1
        vec[pivot_cols] = base.neg_table[red[:, fc]]
        basis.append(vec)
    return Solution(particular, basis)


def random_scalars(q: int, count: int, rng: random.Random) -> np.ndarray:
    """The uint8 array [rng.randrange(q) for _ in range(count)], leaving rng
    in the same state, read from the generator in bulk.

    CPython's randrange(q) keeps the top k = q.bit_length() bits of one
    32-bit Mersenne Twister word and draws again while they are >= q, and
    getrandbits(32 * m) is the next m words, least significant first.  Each
    round reads as many words as values are still missing; a word gives at
    most one value, so no round reads a word the loop would not have read.
    Only getrandbits is called, so a random.Random subclass that overrides
    randrange (such as test_mvpoly._NeverSplits) does not change these draws.
    """
    shift = 32 - q.bit_length()
    out = np.empty(count, dtype=np.uint8)
    filled = 0
    while filled < count:
        need = count - filled
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"),
                              dtype="<u4") >> shift
        kept = words[words < q]
        out[filled:filled + kept.size] = kept
        filled += kept.size
    return out


def random_matrix(base, shape: tuple[int, int], rng: random.Random) -> np.ndarray:
    return random_scalars(base.q, shape[0] * shape[1], rng).reshape(shape)


def random_invertible(base, n: int, rng: random.Random) -> np.ndarray:
    """Rejection-sample an invertible n x n matrix over the base field."""
    while True:
        m = random_matrix(base, (n, n), rng)
        if rank(base, m) == n:
            return m
