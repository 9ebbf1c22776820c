"""Exact linear algebra over F_q, vectorized through the scalar tables.

Matrices and vectors are numpy uint8 arrays of scalar indices 0..q-1.  A
product is one product over F_p for every q (see matmul); row operations are
whole-row gathers from the add/sub/mul tables of the base field.
Pivoting is deterministic: columns in order, first nonzero row, free
variables set to zero in particular solutions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..errors import SingularMatrix


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
    out -= p * np.floor(out / p)  # exact, and faster than np.mod
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
    return matmul(base, a, np.asarray(v, dtype=np.uint8).reshape(-1, 1))[:, 0]


def rref(base, m: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Reduced row echelon form and the (row, column) pivot list."""
    m = np.array(m, dtype=np.uint8, copy=True)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    rows, cols = m.shape
    add_t, sub_t = base.add_table, base.sub_table
    mul_t, inv_t = base.mul_table, base.inv_table
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        pv = int(m[r, c])
        if pv != 1:
            m[r] = mul_t[inv_t[pv], m[r]]
        col = m[:, c].copy()
        col[r] = 0
        nzr = np.nonzero(col)[0]
        if nzr.size:
            m[nzr] = sub_t[m[nzr], mul_t[col[nzr][:, None], m[r][None, :]]]
        pivots.append((r, c))
        r += 1
    return m, pivots


def rank(base, m: np.ndarray) -> int:
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


def scatter_sums(base, pairs, size: int) -> np.ndarray:
    """F_q sums into size bins of the values of each (index, values) pair of
    like-shaped arrays, each value going to the bin its index names.

    Elements add digit by digit in base p, so every base-p digit is summed
    as an integer and reduced mod p (one digit, the values, for prime q).
    """
    p, r = base.p, base.r
    sums = np.zeros((r, size))
    for index, values in pairs:
        index = np.ravel(index)
        for d in range(r):
            if d < r - 1:
                values, digit = np.divmod(values, p)
            else:
                digit = values  # the top digit is all that the divisions left
            sums[d] += np.bincount(index, np.ravel(digit), minlength=size)
    return pack_digits(base, sums % p)


def _kernel_basis(base, red: np.ndarray, pivots: list, cols: int) -> list[np.ndarray]:
    """One kernel vector per free column among the first cols of an rref."""
    pivot_cols = {c for _, c in pivots}
    neg_t = base.neg_table
    basis = []
    for fc in range(cols):
        if fc in pivot_cols:
            continue
        vec = np.zeros(cols, dtype=np.uint8)
        vec[fc] = 1
        for r, c in pivots:
            vec[c] = neg_t[red[r, fc]]
        basis.append(vec)
    return basis


def nullspace(base, m: np.ndarray) -> list[np.ndarray]:
    """Basis of the right kernel of m, one vector per free column."""
    m = as_matrix(m)
    red, pivots = rref(base, m)
    return _kernel_basis(base, red, pivots, m.shape[1])


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
    cols = a.shape[1]
    aug = np.concatenate([a, b], axis=1)
    red, pivots = rref(base, aug)
    if any(c == cols for _, c in pivots):
        return None
    particular = np.zeros(cols, dtype=np.uint8)
    for r, c in pivots:
        particular[c] = red[r, cols]
    return Solution(particular, _kernel_basis(base, red, pivots, cols))


def random_matrix(base, shape: tuple[int, int], rng: random.Random) -> np.ndarray:
    return np.array(
        [[rng.randrange(base.q) for _ in range(shape[1])] for _ in range(shape[0])],
        dtype=np.uint8,
    )


def random_invertible(base, n: int, rng: random.Random) -> np.ndarray:
    """Rejection-sample an invertible n x n matrix over the base field."""
    while True:
        m = random_matrix(base, (n, n), rng)
        if rank(base, m) == n:
            return m
