"""Coordinate expansion of products over K into equations over F_q.

A private relation is a sum of terms a * X^e * Y^(q^s) with e a sum of
q-powers.  With u = A x + c and v = B y + d, each q-power factor is an
element of K whose coordinate vector is affine in one block of variables:
its n x (n + 1) factor matrix holds, per coordinate, the coefficients over
(x_1..x_n, 1) for a power of u, or over (y_1..y_n, 1) for the power of v.
The factor matrices of u and v themselves are [A | c] and [B | d], built
by keygen.expand_keypair; frobenius_factor gives those of their powers.
The X factors are the base-q digits of e: levels are taken mod n, since
u^(q^n) = u, and q equal levels carry into one factor a level higher, so
u^(q^t)^q is one factor u^(q^(t+1)).  The y factor comes last.

Multiplying factors through the multiplication tensor turns the running
product into dense tensors over the factors' blocks, (n + 1)^d columns for
d factors: the base-(n + 1) digit of factor s is its variable, n for its
constant, and with a y factor the last digit is the y index.  Each column
is one element of K, and the n coordinates of the full sum are the public
equations.

At odd p the contraction is one flat float64 product over F_p per factor,
on base-p digits and the base field's multiply-by matrices, so BLAS does
the work; every intermediate is an integer below 2^53, so the arithmetic is
exact before the reduction mod p.  At p = 2 a column is its packed element,
n*r bits in uint64 words (gf2.words), and multiplying by a factor's columns
is F_2-linear on those bits: each factor is one F_2 matrix product by the
Four Russians tables of gf2.tables, one gf2.step.

The public key's coefficient blocks are folded from the tensors column by
column: the x digits of a column reduce (x^q = x) to one x monomial, the
monomials of all columns make up the key's monomial tables, and every
column's element adds into its y slot and monomial, all n equations at
once: an XOR of packed elements at p = 2, digit sums mod p at odd p.  The x
digits are canonicalized once per column, not per entry.
"""

from __future__ import annotations

import functools

import numpy as np

from ..mvpoly import gf2, linalg
from . import keys

# ---------------------------------------------------------------------------
# factor matrices


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
    """The columns of coeff * product(factors) as K elements, flat shape
    ((n+1)^d, E) for d factors of n + 1 columns.

    Each factor is an n-row matrix of coordinates, one element of K per
    column (n x (n + 1) for an affine block).  Column c of the result is the
    product of the factors' columns given by the digits of c, first factor
    in the most significant digit.  The last axis is the element: its n
    coordinates at odd p, its n*r bits packed into E little-endian uint64
    words at p = 2 (the bits of its packed integer).
    """
    base, n = field.base, field.n
    if base.p == 2:
        return _bit_product(field, coeff, factors)
    p, r = base.p, base.r
    # running product as float64 base-p digits, rows (k, s), one column per
    # monomial of the factors so far
    g = base.mul_matrices[list(field.coords(coeff)), 0].reshape(n * r, 1)
    for fmat in factors:
        big = fmat.shape[1]
        # w[(i, s), (k, s', b)]: row (i, s) of multiplying by column b's element
        w = _digit_rows(field, fmat).transpose(0, 3, 1, 4, 2).reshape(n * r, n * r * big)
        prod = g.T @ w
        prod -= p * np.floor(prod / p)  # exact, and faster than np.mod
        g = prod.reshape(-1, n * r, big).transpose(1, 0, 2).reshape(n * r, -1)
    return linalg.pack_digits(base, g.reshape(n, r, -1)).T


def _digit_rows(field, fmat: np.ndarray) -> np.ndarray:
    """m[i, k, b, s, s']: digit s' of coordinate k of w^s z^i e_b, e_b the
    element of column b; row (i, s) of "multiply by e_b" on base-p digits."""
    n = field.n
    # row (i, k) of zmul: coordinate k of z^i times each column's element
    zmul = field.tensor.transpose(0, 2, 1).reshape(n * n, n)
    return field.base.mul_matrices[linalg.matmul(field.base, zmul, fmat).reshape(n, n, -1)]


def _bit_product(field, coeff: int, factors: list[np.ndarray]) -> np.ndarray:
    """expand_product at p = 2, on packed elements.

    Multiplying by e_b is F_2-linear on the n*r bits of an element; its row
    (i, s) is e_b times the basis element w^s z^i, one step against the
    field's basis tables.  Each factor's rows then make tables for all its
    columns at once, and one step multiplies every column of the running
    product by every column of the factor.
    """
    n, r = field.n, field.base.r
    words = (n * r + 63) // 64
    basis = _basis_tables(field)
    g = np.frombuffer(int(coeff).to_bytes(8 * words, "little"), "<u8").reshape(1, words)
    for fmat in factors:
        big = fmat.shape[1]
        # bit k*r + s of e_b is digit s of its coordinate k
        bits = np.unpackbits(fmat[:, :, None], axis=2, count=r, bitorder="little")
        cols = gf2.words(bits.transpose(1, 0, 2).reshape(big, n * r))
        rows = gf2.step(cols, basis).transpose(1, 0, 2)
        g = gf2.step(g, gf2.tables(rows)).reshape(-1, words)
    return g


@functools.lru_cache(maxsize=8)
def _basis_tables(field) -> np.ndarray:
    """gf2.tables of multiplication by each F_2 basis element w^s z^j of K,
    from the digit rows of the base field's multiply-by matrices."""
    n, r = field.n, field.base.r
    # column (j, s) is w^s z^j: coordinate j is the scalar w^s, packed 2^s
    basis = np.zeros((n, n * r), dtype=np.uint8)
    basis[np.arange(n * r) // r, np.arange(n * r)] = 1 << np.arange(n * r) % r
    m = _digit_rows(field, basis).transpose(0, 3, 2, 1, 4)
    tables = gf2.tables(gf2.words(m.reshape(n * r, n * r, n * r).astype(np.uint8)))
    tables.flags.writeable = False  # one array serves every caller
    return tables


# ---------------------------------------------------------------------------
# tensors -> coefficient blocks


def records_general(field, flat: np.ndarray, n: int, has_y: bool) -> tuple:
    """(x rows, values) of a flat tensor from expand_product: one x-exponent
    row per column of the x factors' digits, reduced by x^q = x (e > 0
    becomes (e - 1) % (q - 1) + 1), and the elements as (x columns, slots,
    E) with slot 0 for no y and slot j + 1 for y_j.  has_y says the last
    factor is the y factor."""
    big = n + 1
    vals = flat.reshape(-1, big if has_y else 1, flat.shape[-1])
    # row c counts the x digits of column c, one more factor per pass
    exps = np.zeros((1, big), dtype=np.uint8)
    while len(exps) < len(vals):
        exps = (exps[:, None] + np.eye(big, dtype=np.uint8)).reshape(-1, big)
    reduced = [0] + [(e - 1) % (field.q - 1) + 1 for e in range(1, exps.max(initial=0) + 1)]
    # the y factor's digit n is its constant, which carries no y
    return np.array(reduced, dtype=np.uint8)[exps[:, :n]], np.roll(vals, 1, axis=1)


def merge_general(field, parts: list[tuple], n: int) -> tuple:
    """(mono0, C0, monoy, Cy) of the sum of the parts' tensors.

    The x rows of the parts' columns make up each block's monomial table,
    and every column's elements add into the monomial its x row maps to."""
    out = []
    width, dtype = parts[0][1].shape[2], parts[0][1].dtype
    for ys in (slice(0, 1), slice(1, None)):
        used = [(rows, vals[:, ys]) for rows, vals in parts if vals.shape[1] > ys.start]
        mono, index = keys.monomial_basis(
            field.q, np.concatenate([np.zeros((0, n), np.uint8), *(r for r, _ in used)]))
        # with no y factor in any part the y block is empty, of n slots
        vals = np.concatenate([np.zeros((0, n if ys.start else 1, width), dtype),
                               *(v for _, v in used)])
        sums = linalg.scatter_sums(field.base, index, vals, len(mono), n)
        # sums[m, y, k] is the coefficient of equation k, y slot y, monomial m
        out += [mono, sums.transpose(2, 1, 0)]
    return tuple(out)


# Names that perfbench/tracing.py's layer map wraps; expand_keypair calls
# records_general and merge_general for every q.
records_q2 = records_general
merge_q2 = merge_general
