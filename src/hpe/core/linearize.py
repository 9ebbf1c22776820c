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
exact before the reduction mod p.

The public key's coefficient blocks are folded from the tensors column by
column: the x digits of a column reduce (x^q = x) to one x monomial, the
monomials of all columns make up the key's monomial tables, and every
tensor entry adds into the coefficient of its equation, y slot and
monomial.  The x digits are canonicalized once per column, not per entry.
"""

from __future__ import annotations

import numpy as np

from ..mvpoly import linalg
from . import keys

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
# tensors -> coefficient blocks


def records_general(field, flat: np.ndarray, n: int, has_y: bool) -> tuple:
    """(x rows, values) of a flat tensor: one x-exponent row per column of
    the x factors' digits, reduced by x^q = x (e > 0 becomes
    (e - 1) % (q - 1) + 1), and the entries as (n, x columns, slots) with
    slot 0 for no y and slot j + 1 for y_j.  has_y says the last factor is
    the y factor."""
    big = n + 1
    vals = flat.reshape(n, -1, big if has_y else 1)
    cols = np.arange(vals.shape[1])
    xd = round(np.log(len(cols)) / np.log(big))  # there are big**xd columns
    exps = np.zeros((len(cols), big), dtype=np.uint8)
    for s in range(xd):
        exps[cols, cols // big**s % big] += 1
    exps = np.where(exps > 0, (exps - 1) % (field.q - 1) + 1, 0)
    # the y factor's digit n is its constant, which carries no y
    return exps[:, :n], np.roll(vals, 1, axis=2)


def merge_general(field, parts: list[tuple], n: int) -> tuple:
    """(mono0, C0, monoy, Cy) of the sum of the parts' tensors.

    The x rows of the parts' columns make up each block's monomial table,
    and every tensor entry adds into the coefficient its column maps to."""
    out = []
    for ys, cells in ((slice(0, 1), n), (slice(1, None), n * n)):
        used = [(rows, vals[:, :, ys]) for rows, vals in parts if vals.shape[2] > ys.start]
        mono, index = keys.monomial_basis(
            field.q, np.concatenate([np.zeros((0, n), np.uint8), *(r for r, _ in used)]))
        ends = np.cumsum([len(rows) for rows, _ in used])
        pairs = []
        for col, (_, vals) in zip(np.split(index, ends[:-1]), used):
            # entry (k, column, y) is cell k * (y count) + y of the block
            cell = np.arange(n)[:, None, None] * vals.shape[2] + np.arange(vals.shape[2])
            pairs.append((cell * len(mono) + col[:, None], vals))
        out += [mono, linalg.scatter_sums(field.base, pairs, cells * len(mono))]
    return tuple(out)


# Names that perfbench/tracing.py's layer map wraps; expand_keypair calls
# records_general and merge_general for every q.
records_q2 = records_general
merge_q2 = merge_general
