"""Coordinate expansion of products over K into equations over F_q.

A private relation is a sum of terms a * u^(q^t1) * .. * u^(q^td) * v^(q^s).
With u = A x + c and v = B y + d, each q-power factor is an element of K
whose coordinate vector is affine in the symbolic variables: its n x N
factor matrix holds, per coordinate, the coefficients over the homogenized
variable vector w = (x_1..x_n, y_1..y_n, 1).  Multiplying factors through
the multiplication tensor turns the coordinates of the running product into
dense degree-d coefficient tensors over w, and the n coordinates of the full
sum are the public equations.

The contraction runs per output coordinate as a flat matrix product, in
float64 so BLAS does the work; every intermediate is an integer below 2^53,
so the arithmetic is exact before the reduction mod q.  Non-prime base
fields take a table-driven fallback over the same structure.  The nonzero
tensor entries become columns of the public key's flat term table.
"""

from __future__ import annotations

import numpy as np

from ..mvpoly import linalg
from .keys import merge_terms

# ---------------------------------------------------------------------------
# factor matrices


def affine_block_matrix(field, mat, shift, nvars: int, offset: int) -> np.ndarray:
    """Factor matrix of m @ vars + shift over a homogenized variable vector.

    nvars counts the symbolic variables; the constant slot is index nvars.
    offset places the block (0 for the x block, n for the y block).
    """
    n = field.n
    out = np.zeros((n, nvars + 1), dtype=np.uint8)
    out[:, offset : offset + n] = np.asarray(mat, dtype=np.uint8)
    out[:, nvars] = np.asarray(shift, dtype=np.uint8).reshape(-1)
    return out


def frobenius_factor(field, theta: int, factor: np.ndarray) -> np.ndarray:
    """Factor matrix of the q^theta power of the element behind factor."""
    p_theta = field.frobenius_matrices[theta % field.n]
    return linalg.matmul(field.base, p_theta.T, factor)


# ---------------------------------------------------------------------------
# product expansion


def expand_product(field, coeff: int, factors: list[np.ndarray]) -> np.ndarray:
    """Coordinate tensors of coeff * product(factors), flat shape (n, N^d).

    Each factor is an n x N matrix of affine coordinates; the result row k
    is the dense coefficient tensor of coordinate k over d copies of the
    homogenized variable vector.
    """
    n = field.n
    coords = np.array(field.coords(coeff), dtype=np.uint8)
    if field.r == 1:
        return _expand_prime(field, coords, factors)
    return _expand_generic(field, coords, factors)


def _expand_prime(field, coords: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    p, n = field.p, field.n
    tensor = field.tensor.astype(np.int64)
    g = coords.reshape(n, 1).astype(np.float64)
    for fmat in factors:
        big = fmat.shape[1]
        d = np.einsum("ijk,jb->ikb", tensor, fmat.astype(np.int64)) % p
        d = d.astype(np.float64)
        r = g.shape[1]
        out = np.empty((n, r * big), dtype=np.float64)
        gt = np.ascontiguousarray(g.T)
        for k in range(n):
            out[k] = np.mod(gt @ d[:, k, :], p).reshape(-1)
        g = out
    return g.astype(np.uint8)


def _expand_generic(field, coords: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    base, n = field.base, field.n
    add_t, mul_t = base.add_table, base.mul_table
    nz = np.nonzero(field.tensor)
    entries = list(zip(nz[0].tolist(), nz[1].tolist(), nz[2].tolist()))
    g = coords.reshape(n, 1)
    for fmat in factors:
        big = fmat.shape[1]
        r = g.shape[1]
        out = np.zeros((n, r * big), dtype=np.uint8)
        for i, j, k in entries:
            t = int(field.tensor[i, j, k])
            row = mul_t[t, fmat[j]] if t != 1 else fmat[j]
            contrib = mul_t[g[i][:, None], row[None, :]]
            out[k] = add_t[out[k], contrib.reshape(-1)]
        g = out
    return g


# ---------------------------------------------------------------------------
# tensor -> sparse terms

# Records are flat term-table columns (see core.keys): a slot
# k * (n + 1) + y + 1 for coordinate k and y index y (-1 for none), a
# coefficient, and an x part, already reduced by x^q = x.


def _monomials(flat: np.ndarray, n: int, nvars: int):
    """Nonzero entries of a flat tensor: (k, position, per-factor variable
    slots of shape (d, count), y index or -1)."""
    big = nvars + 1
    d = 0
    while big**d < flat.shape[1]:
        d += 1
    k_arr, pos = np.nonzero(flat)
    slots = np.array([pos // big ** (d - 1 - s) % big for s in range(d)],
                     dtype=np.int64).reshape(d, len(pos))
    is_y = (slots >= n) & (slots < 2 * n)
    if int(is_y.sum(axis=0).max(initial=0)) > 1:
        raise AssertionError("a monomial acquired two y factors")
    y_idx = np.where(is_y.any(axis=0), (slots * is_y).sum(axis=0) - n, -1)
    return k_arr, pos, slots, y_idx


def records_q2(field, flat: np.ndarray, n: int, nvars: int) -> tuple:
    """(slot, x bitmask) of the nonzero monomials of a flat q=2 tensor."""
    k_arr, _, slots, y_idx = _monomials(flat, n, nvars)
    clipped = np.where(slots < n, slots, 0).astype(np.uint64)
    xbits = np.where(slots < n, np.uint64(1) << clipped, np.uint64(0))
    xmask = np.bitwise_or.reduce(xbits, axis=0)
    return k_arr * (n + 1) + y_idx + 1, xmask


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


def records_general(field, flat: np.ndarray, n: int, nvars: int) -> tuple:
    """(slot, coeff, x exponent rows) of the nonzero monomials of a flat
    tensor, any q; exponents e > 0 reduce to (e - 1) % (q - 1) + 1."""
    k_arr, pos, slots, y_idx = _monomials(flat, n, nvars)
    exps = np.zeros((len(pos), n), dtype=np.uint8)
    for row in slots:
        sel = np.nonzero(row < n)[0]
        exps[sel, row[sel]] += 1
    exps = np.where(exps > 0, (exps - 1) % (field.q - 1) + 1, 0)
    return k_arr * (n + 1) + y_idx + 1, flat[k_arr, pos], exps


def merge_general(field, parts: list[tuple], n: int) -> tuple:
    """Combine records into the canonical (slot, coeff, exponent rows) table."""
    return merge_terms(field.base, *(np.concatenate(col) for col in zip(*parts)))
