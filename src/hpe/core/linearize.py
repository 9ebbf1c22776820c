"""Coordinate expansion of products over K into equations over F_q.

A private relation is a sum of terms a * X^e * Y^(q^s) with e a sum of
q-powers.  With u = A x + c and v = B y + d, each q-power factor is an
element of K whose coordinate vector is affine in one block of variables:
its n x (n + 1) factor matrix holds, per coordinate, the coefficients over
(x_1..x_n, 1) for a power of u, or over (y_1..y_n, 1) for the power of v.
The X factors are the base-q digits of e: levels are taken mod n, since
u^(q^n) = u, and q equal levels carry into one factor a level higher, so
u^(q^t)^q is one factor u^(q^(t+1)).  The y factor comes last.

Multiplying factors through the multiplication tensor turns the coordinates
of the running product into dense coefficient tensors over the factors'
blocks, (n + 1)^d columns for d factors: the base-(n + 1) digit of factor
s is its variable, n for its constant, and with a y factor the last digit
is the y index.  The n coordinates of the full sum are the public equations.

The contraction is one flat float64 product over F_p per factor, on base-p
digits and the base field's multiply-by matrices, so BLAS does the work for
every q; every intermediate is an integer below 2^53, so the arithmetic is
exact before the reduction mod p.  The nonzero tensor entries become columns
of the public key's flat term table.
"""

from __future__ import annotations

import numpy as np

from ..mvpoly import linalg
from .keys import merge_terms

# ---------------------------------------------------------------------------
# factor matrices


def affine_block_matrix(field, mat, shift) -> np.ndarray:
    """Factor matrix of mat @ block + shift over one variable block.

    Columns 0..n-1 are the block's variables (x for u = A x + c, y for
    v = B y + d) and column n is the constant.
    """
    return np.column_stack([np.asarray(mat, dtype=np.uint8),
                            np.asarray(shift, dtype=np.uint8).reshape(-1)])


def x_levels(q: int, n: int, thetas) -> list:
    """Frobenius levels of the X factors of X^(sum q^t for t in thetas):
    the base-q digits of the exponent, so q equal levels carry into one
    level higher.  u^(q^n) = u, so the exponent counts mod q^n - 1 and the
    levels mod n."""
    e = sum(q ** (t % n) for t in thetas)
    if e:
        e = (e - 1) % (q**n - 1) + 1
    return [t for t in range(n) for _ in range(e // q**t % q)]


def frobenius_factor(field, theta: int, factor: np.ndarray) -> np.ndarray:
    """Factor matrix of the q^theta power of the element behind factor."""
    p_theta = field.frobenius_matrices[theta % field.n]
    return linalg.matmul(field.base, p_theta.T, factor)


# ---------------------------------------------------------------------------
# product expansion


def expand_product(field, coeff: int, factors: list[np.ndarray]) -> np.ndarray:
    """Coordinate tensors of coeff * product(factors), flat shape (n, (n+1)^d).

    Each factor is an n x (n + 1) block matrix of affine coordinates; the
    result row k is the dense coefficient tensor of coordinate k over the
    d factors' blocks, first factor in the most significant digit.
    """
    base, n = field.base, field.n
    p, r = base.p, base.r
    # row (i, k) of zmul @ fmat: coordinate k of z^i times each column's element
    zmul = field.tensor.transpose(0, 2, 1).reshape(n * n, n)
    # running product as float64 base-p digits, rows (k, s), one column per
    # monomial of the factors so far
    g = base.mul_matrices[list(field.coords(coeff)), 0].reshape(n * r, 1)
    for fmat in factors:
        big = fmat.shape[1]
        d = linalg.matmul(base, zmul, fmat).reshape(n, n, big)
        # w[(i, s), (k, s', b)]: digit s' of (digit s of coordinate i) * d[i, k, b]
        w = base.mul_matrices[d].transpose(0, 3, 1, 4, 2).reshape(n * r, n * r * big)
        prod = g.T @ w
        prod -= p * np.floor(prod / p)  # exact, and faster than np.mod
        g = prod.reshape(-1, n * r, big).transpose(1, 0, 2).reshape(n * r, -1)
    return linalg.pack_digits(base, g.reshape(n, r, -1))


# ---------------------------------------------------------------------------
# tensor -> sparse terms

# Records are flat term-table columns (see core.keys): a slot
# k * (n + 1) + y + 1 for coordinate k and y index y (-1 for none), a
# coefficient, and an x part, already reduced by x^q = x.


def _monomials(flat: np.ndarray, n: int, has_y: bool):
    """Nonzero entries of a flat tensor: (k, position, slot) per entry, and
    per column the x digits of shape (x factors, columns), where digit n is
    a factor's constant.  has_y says the last factor is the y factor."""
    big = n + 1
    d = 0
    while big**d < flat.shape[1]:
        d += 1
    cols = np.arange(flat.shape[1])
    digits = np.array([cols // big ** (d - 1 - s) % big for s in range(d)],
                      dtype=np.int64).reshape(d, len(cols))
    k_arr, pos = np.nonzero(flat)
    slot = k_arr * big
    if has_y:
        slot += ((digits[-1] + 1) % big)[pos]
        digits = digits[:-1]
    return k_arr, pos, slot, digits


def records_q2(field, flat: np.ndarray, n: int, has_y: bool) -> tuple:
    """(slot, x bitmask) of the nonzero monomials of a flat q=2 tensor."""
    _, pos, slot, digits = _monomials(flat, n, has_y)
    xbits = np.where(digits < n, np.uint64(1) << (digits % n).astype(np.uint64),
                     np.uint64(0))
    return slot, np.bitwise_or.reduce(xbits, axis=0)[pos]


def merge_q2(field, parts: list[tuple], n: int) -> tuple:
    """Combine q=2 records into the canonical (slot, coeff, xmask) table.

    Coefficients are parities of the record multiplicities.  Each record
    packs into one uint64, slot above mask, so a single unique pass sorts
    and counts them; MAX_MASK_VARS keeps that within 64 bits.
    """
    slot = np.concatenate([p[0] for p in parts]).astype(np.uint64)
    mask = np.concatenate([p[1] for p in parts])
    uniq, counts = np.unique((slot << np.uint64(n)) | mask, return_counts=True)
    keep = uniq[(counts & 1) == 1]
    return ((keep >> np.uint64(n)).astype(np.int64),
            np.ones(len(keep), dtype=np.uint8),
            keep & np.uint64((1 << n) - 1))


def records_general(field, flat: np.ndarray, n: int, has_y: bool) -> tuple:
    """(slot, coeff, x exponent rows) of the nonzero monomials of a flat
    tensor, any q; exponents e > 0 reduce to (e - 1) % (q - 1) + 1."""
    k_arr, pos, slot, digits = _monomials(flat, n, has_y)
    exps = np.zeros((digits.shape[1], n + 1), dtype=np.uint8)
    for row in digits:
        exps[np.arange(len(row)), row] += 1
    exps = np.where(exps > 0, (exps - 1) % (field.q - 1) + 1, 0)
    return slot, flat[k_arr, pos], exps[pos, :n]


def merge_general(field, parts: list[tuple], n: int) -> tuple:
    """Combine records into the canonical (slot, coeff, exponent rows) table."""
    return merge_terms(field.base, *(np.concatenate(col) for col in zip(*parts)))
