"""Exact linear algebra over F_q.

Matrices and vectors are numpy uint8 arrays of scalar indices 0..q-1.  A
product is one float64 product over F_p (see matmul), except that in
characteristic 2, where addition is the XOR of the indices, matvec is one
table gather and one XOR reduction.  Row reduction expands an F_q matrix
to its F_p matrix on base-p digits and runs one Gauss-Jordan over F_p on
Python integers (see rref); _system is the one place where it tests the
characteristic.  At p = 2 the matrix is a PackedSystem: the whole F_2
matrix is one integer, entry (k, j) at bit k*cols + j, reduced by
gf2.reduce.  At odd p it is a System, whose rows are each one integer of
8..64-bit slots, reduced mod p once per pivot row and where it is read
(_rref_slots).  rank and inverse read rref's F_q matrix and pivots.

solve and nullspace take the last column as the right-hand side.  A
System reads the particular solution and the kernel from its F_q RREF; a
PackedSystem reads them from its reduced integer (PackedSolution), each
unknown at a pivot the parity of its row against the free unknowns and
the constant.  Characteristic-2 encryption builds that integer straight
from the public key, so it reaches the same reader with no F_q matrix in
between.  Pivoting is deterministic: columns in order, first nonzero row,
free variables set to zero in particular solutions, and a sample draws one
randrange(q) per free column in ascending order.  Random scalars are read
from the rng in bulk, draw for draw what per-entry randrange calls would
give (see random_scalars).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

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
    return _system(base, np.asarray(m, dtype=np.uint8)).rref()


def _system(base, m: np.ndarray):
    """m as a system over F_q whose last column is the right-hand side: a
    PackedSystem at p = 2, a System at odd p.  Elimination tests the
    characteristic here and nowhere else."""
    if base.p == 2:
        return PackedSystem(base, gf2.pack(_fp_matrix(base, m)), *m.shape)
    return System(base, m)


def _fq_rref(base, reduced: np.ndarray, pivots: list, shape: tuple) -> tuple:
    """rref's F_q matrix of the given shape and its pivots, from the
    reduced F_p matrix and pivots of its expansion."""
    r = base.r
    rows, cols = shape
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


def _rref_slots(p: int, digits: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Gauss-Jordan over F_p at odd p: the reduced uint8 F_p matrix and the
    pivots.  Each row is packed into one Python integer, entry c in bits
    c*w..c*w+w-1 (M4RI's packing, in slots), and a row update is
    R += (p - f) * P, with the pivot row P reduced and scaled to a leading
    1 as it is chosen; a slot is reduced mod p only where it is read.
    Columns are taken in order.
    """
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
    return solve(base, m, np.zeros(m.shape[0], dtype=np.uint8)).nullspace


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


class System:
    """The system a y = b over F_q, at odd p, as its F_q matrix m = [a | b],
    reduced on the F_p matrix of m that rref describes."""

    def __init__(self, base, m: np.ndarray):
        self.base, self.m = base, m

    def rref(self) -> tuple:
        reduced, pivots = _rref_slots(self.base.p, _fp_matrix(self.base, self.m))
        return _fq_rref(self.base, reduced, pivots, self.m.shape)

    def solve(self) -> Solution | None:
        """The solutions, or None: the particular solution (free variables
        zero) and one kernel vector per free column are read from the pivot
        rows of the RREF, at its last column and at the free columns."""
        cols = self.m.shape[1] - 1
        red, pivots = self.rref()
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
            vec[pivot_cols] = self.base.neg_table[red[:, fc]]
            basis.append(vec)
        return Solution(particular, basis)

    def solves(self, y: np.ndarray) -> bool:
        return np.array_equal(matvec(self.base, self.m[:, :-1], y), self.m[:, -1])


class PackedSystem:
    """The system a y = b over F_q, q = 2^r, as one integer: the gf2.pack
    of the F_2 matrix of [a | b] that rref describes, rows*r rows of cols*r
    bits, cols counting b.  Unknown j*r + s is bit s of y_j, and column
    (cols - 1)*r is the constant 1 that b multiplies."""

    def __init__(self, base, bits: int, rows: int, cols: int):
        self.base, self.bits, self.rows, self.cols = base, bits, rows, cols

    def _reduce(self) -> tuple[int, list]:
        r = self.base.r
        return gf2.reduce(self.bits, self.rows * r, self.cols * r)

    def rref(self) -> tuple:
        reduced, pivots = self._reduce()
        r = self.base.r
        bits = gf2.unpack(reduced, (self.rows * r, self.cols * r))
        return _fq_rref(self.base, bits, pivots, (self.rows, self.cols))

    def solve(self) -> PackedSolution | None:
        """The solutions, or None when a pivot falls in b's columns."""
        reduced, pivots = self._reduce()
        if pivots and pivots[-1][1] >= (self.cols - 1) * self.base.r:
            return None
        return PackedSolution(reduced, pivots, self.cols - 1, self.base.r)

    def solves(self, y: np.ndarray) -> bool:
        """Whether a y = b: one AND and a parity per row against (y, 1)."""
        r = self.base.r
        rowbits = self.cols * r
        v = _scalar_bits(y, r) | 1 << (self.cols - 1) * r
        return not any((self.bits >> k * rowbits & v).bit_count() & 1
                       for k in range(self.rows * r))


class PackedSolution(Solution):
    """The solutions of a PackedSystem, read from its reduced pack.

    A point takes its free unknowns from a given integer and sets each
    pivot unknown to the parity of its reduced row against them, plus the
    constant when the integer has its bit: one AND per pivot row.  The
    F_q columns with no pivot are free, as in Solution; the particular
    solution and the kernel vectors are points, read when first asked for.
    """

    def __init__(self, reduced: int, pivots: list, cols: int, r: int):
        self.reduced, self.pivots, self.cols, self.r = reduced, pivots, cols, r
        pivot_cols = {c for _, c in pivots}
        self.free = [j for j in range(cols) if j * r not in pivot_cols]

    def point(self, free: int) -> int:
        """The solution bits whose free unknowns are those of free: of the
        system when free has the constant's bit, else of a y = 0."""
        width = self.cols * self.r
        rowbits = width + self.r
        out = free & ((1 << width) - 1)
        for i, c in self.pivots:
            out |= ((self.reduced >> i * rowbits & free).bit_count() & 1) << c
        return out

    def sample(self, base, rng: random.Random) -> np.ndarray:
        """Solution.sample's draw, one randrange(q) per free column in
        ascending order, as the free unknowns of one point."""
        free = 1 << self.cols * self.r
        for j in self.free:
            free |= rng.randrange(base.q) << j * self.r
        return _bit_scalars(self.point(free), self.cols, self.r)

    @cached_property
    def particular(self) -> np.ndarray:
        return _bit_scalars(self.point(1 << self.cols * self.r), self.cols, self.r)

    @cached_property
    def nullspace(self) -> list[np.ndarray]:
        return [_bit_scalars(self.point(1 << j * self.r), self.cols, self.r) for j in self.free]


def _scalar_bits(v: np.ndarray, r: int) -> int:
    """Scalars of F_q, q = 2^r, as one integer: bit s of v[j] at j*r + s."""
    v = np.asarray(v, dtype=np.uint8)
    return gf2.pack(np.unpackbits(v[:, None], axis=1, count=r, bitorder="little"))


def _bit_scalars(m: int, count: int, r: int) -> np.ndarray:
    """The count scalars whose _scalar_bits is m."""
    return np.packbits(gf2.unpack(m, (count, r)), axis=1, bitorder="little")[:, 0]


def solve(base, a: np.ndarray, b: np.ndarray) -> Solution | None:
    """Solve a x = b; None when inconsistent (a value, not an error)."""
    a = as_matrix(a)
    b = np.asarray(b, dtype=np.uint8).reshape(-1, 1)
    if a.shape[0] != b.shape[0]:
        raise ValueError("matrix and right-hand side disagree on row count")
    return _system(base, np.concatenate([a, b], axis=1)).solve()


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
