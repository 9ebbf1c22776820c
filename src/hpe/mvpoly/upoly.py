"""Dense univariate polynomial arithmetic over a field given by its scalar ops.

A polynomial is a plain list of scalars, coefficient of X^i at index i, with
no trailing zeros; the zero polynomial is the empty list.  The field argument
is any object exposing add/sub/mul/neg/inv on scalars with 0 and 1 as the
additive and multiplicative identities, so the same routines serve F_q
coefficients during tower construction and K coefficients during decryption.
A field whose .p is 2 gets squares by the Frobenius shortcut.

Root finding takes an ExtensionField K = GF(q^n) and follows the classic
pattern: strip the squarefree product of linear factors with
gcd(g, X^order - X), g = f made monic, then split it recursively, using
the trace map in characteristic 2 and quadratic-residue powering for odd
characteristic.  roots builds the F_q-linear map h -> h^q on K[X]/(g)
once per call, and X^order mod g is then n applications of it.  At q = 2
it squares on packed integer rows (_SquareMap): a residue is one Python
integer and the map XORs rows through 4-bit gf2.int_tables.  Every other
q uses the matrix Q of the map over F_q (Berlekamp's Q-matrix, _QPowerMap)
and multiplies coordinate rows by it.  In characteristic 2 the trace of cX
over F_q is n - 1 more applications, reduced mod the factor being split,
and r - 1 squarings mod that factor, for q = 2^r, lift it to the absolute
trace over F_2; the odd split powers X + a on scalars.

A quadratic factor X^2 + bX + e in characteristic 2 is solved in closed
form: its roots are bZ and bZ + b, Z being a root of the Artin-Schreier
equation Z^2 + Z = e/b^2.  Z -> Z^2 + Z is F_2-linear on the n*r bits of a
packed element, and its image is the hyperplane of absolute trace 0, so one
gf2.Basis per field of its images, tagged with their preimages
(_artin_schreier), gives both Z and the trace.  The random draws stay those
of the trace split, which succeeds on a draw c exactly when Tr(cb) = 1.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from ..errors import RootFindingFailed, ZeroPolynomial
from . import gf2, linalg

X = [0, 1]


def trim(f: list) -> list:
    """Drop trailing zero coefficients."""
    n = len(f)
    while n > 0 and f[n - 1] == 0:
        n -= 1
    return f[:n]


def degree(f: list) -> int:
    """Degree of f, -1 for the zero polynomial."""
    return len(f) - 1


def is_zero(f: list) -> bool:
    return len(f) == 0


def add(F, f: list, g: list) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return trim(out)


def neg(F, f: list) -> list:
    return [F.neg(c) for c in f]


def sub(F, f: list, g: list) -> list:
    return add(F, f, neg(F, g))


def scale(F, f: list, s) -> list:
    if s == 0:
        return []
    return trim([F.mul(c, s) for c in f])


def mul(F, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b == 0:
                continue
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return trim(out)


def square(F, f: list) -> list:
    """f^2; in characteristic 2 the cross terms cancel, so f^2 = sum c_i^2 X^(2i)."""
    if getattr(F, "p", None) != 2:
        return mul(F, f, f)
    out = [0] * (2 * len(f) - 1) if f else []
    for i, c in enumerate(f):
        out[2 * i] = F.mul(c, c)
    return out


def divmod_poly(F, f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by g; raises ZeroDivisionError on g = 0."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = degree(g)
    lead_inv = 1 if g[dg] == 1 else F.inv(g[dg])
    quo = [0] * max(0, len(rem) - dg)
    for i in range(len(rem) - dg - 1, -1, -1):
        c = rem[i + dg]
        if c == 0:
            continue
        q = c if lead_inv == 1 else F.mul(c, lead_inv)
        quo[i] = q
        for j in range(dg + 1):
            rem[i + j] = F.sub(rem[i + j], F.mul(q, g[j]))
    return trim(quo), trim(rem)


def mod(F, f: list, g: list) -> list:
    return divmod_poly(F, f, g)[1]


def monic(F, f: list) -> list:
    """Scale f so its leading coefficient is 1; f itself when it already is."""
    if not f or f[-1] == 1:
        return f
    return scale(F, f, F.inv(f[-1]))


def gcd(F, f: list, g: list) -> list:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while g:
        f, g = g, mod(F, f, g)
    return monic(F, f)


def powmod(F, f: list, e: int, m: list) -> list:
    """f^e reduced mod m, by left-to-right square and multiply.

    The result starts as f mod m at the top bit of e, and every later
    multiply is by f mod m, so no step squares past the last bit.
    """
    if e == 0:
        return [1]
    base = mod(F, f, m)
    result = base
    for bit in bin(e)[3:]:
        result = mod(F, square(F, result), m)
        if bit == "1":
            result = mod(F, mul(F, result, base), m)
    return result


def eval_poly(F, f: list, a):
    """Evaluate f at the scalar a by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, a), c)
    return acc


def roots(field, f: list, rng: random.Random | None = None) -> set:
    """All distinct roots of f in the ExtensionField, ignoring multiplicity.

    Raises ZeroPolynomial for f = 0, whose root set would be the whole field.
    """
    f = trim(f)
    if not f:
        raise ZeroPolynomial("every element is a root of the zero polynomial")
    if degree(f) == 0:
        return set()
    if rng is None:
        rng = random.Random()
    g = monic(field, f)
    qpower = (_SquareMap if field.q == 2 else _QPowerMap)(field, g)
    xq = qpower.poly(qpower.apply(qpower.row(mod(field, X, g)), field.n))
    s = gcd(field, sub(field, xq, X), g)
    out: set = set()
    if degree(s) >= 1:
        _split_linear(field, s, rng, out, qpower)
    return out


class _QPowerMap:
    """h -> h^q on K[X]/(g) as one matrix over F_q, for K = GF(q^n), g monic.

    An element h = h_0 + .. + h_(d-1) X^(d-1) is the row of the n*d
    coordinates of h_0, .., h_(d-1).  Since h^q = sum_j h_j^q R_j with
    R_j = X^(qj) mod g, block (j, k) of the matrix maps h_j to h_j^q R_j[k]:
    the q-power matrix P(1) of K times the multiply-by-R_j[k] matrix, whose
    row i holds the coordinates of z^i R_j[k] from the multiplication tensor.
    """

    def __init__(self, field, g: list):
        base, n, q, d = field.base, field.n, field.q, degree(g)
        powers = [[1]]
        while len(powers) < d:
            powers.append(mod(field, [0] * q + powers[-1], g))
        entries = [c for r in powers for c in r + [0] * (d - len(r))]
        blocks = linalg.times(base, field.coords_array(entries), _frobenius_tensor(field))
        matrix = blocks.reshape(d, d, n, n).transpose(0, 2, 1, 3).reshape(d * n, d * n)
        self.field, self.d = field, d
        self.operand = linalg.operand(base, matrix)

    def row(self, h: list) -> np.ndarray:
        """The (1, n*d) coordinate row of h, a polynomial of degree below d."""
        return self.field.coords_array(h + [0] * (self.d - len(h))).reshape(1, -1)

    def poly(self, row: np.ndarray) -> list:
        return trim([int(c) for c in self.field.pack_array(row.reshape(self.d, -1))])

    def apply(self, row: np.ndarray, times: int) -> np.ndarray:
        """The row of h^(q^times)."""
        for _ in range(times):
            row = linalg.times(self.field.base, row, self.operand)
        return row

    def trace(self, row: np.ndarray) -> np.ndarray:
        """The row of h + h^q + .. + h^(q^(n-1)), the trace over F_q."""
        base, acc = self.field.base, row
        for _ in range(self.field.n - 1):
            row = linalg.times(base, row, self.operand)
            acc = base.add_table[acc, row]
        return acc


class _SquareMap:
    """h -> h^2 on K[X]/(g) on packed integers, for K = GF(2^n), g monic.

    A packed element of K is its own F_2 coordinate row (bit i is the
    coefficient of z^i), so h = h_0 + .. + h_(d-1) X^(d-1) is the integer
    sum of h_j << (j*n).  Since h^2 = sum_j h_j^2 R_j with R_j = X^(2j)
    mod g, and bit i of h_j adds z^(2i) to h_j^2, bit j*n + i of h maps to
    the row z^(2i) R_j.  The rows are summed through 4-bit Kronrod tables
    (the "Four Russians", gf2.int_tables), one per 4 bits of h: a square is
    one XOR per table lookup.
    """

    def __init__(self, field, g: list):
        n, d = field.n, degree(g)
        self.n, self.d = n, d
        width = d * n
        # z times every n-bit slot: shift the slot up one bit and fold its top
        # bit back as z^n, which is the modulus less its z^n term; that is
        # below 2^n, so no product carries into the next slot
        ones = sum(1 << (k * n) for k in range(d * d))
        keep = ones * ((1 << (n - 1)) - 1)
        fold = sum(c << i for i, c in enumerate(field.modulus[:n]))

        def times_z(v: int) -> int:
            return ((v & keep) << 1) ^ (((v >> (n - 1)) & ones) * fold)

        # X h: shift h up one slot and fold the coefficient c carried out of it
        # back as c X^d, X^d being g less its X^d term: one z^b (g - X^d) for
        # each bit b of c
        folds = [self.row(g[:d])]
        for _ in range(n - 1):
            folds.append(times_z(folds[-1]))
        low = (1 << (width - n)) - 1

        def times_x(h: int) -> int:
            c, h = h >> (width - n), (h & low) << n
            while c:
                b = c & -c
                h ^= folds[b.bit_length() - 1]
                c ^= b
            return h

        powers = [1]
        for _ in range(d - 1):
            powers.append(times_x(times_x(powers[-1])))
        # every R_j side by side, width bits apart, so that one times_z moves
        # all of them; after i steps of z^2 block j is row j*n + i
        v = sum(r << (j * width) for j, r in enumerate(powers))
        full = (1 << width) - 1
        rows = [0] * width
        for i in range(n):
            for j in range(d):
                rows[j * n + i] = (v >> (j * width)) & full
            v = times_z(times_z(v))
        # a byte of h indexes one table with each nibble; an odd last table
        # pairs with a table for the high nibble, which is zero
        tables = gf2.int_tables(rows, 4) + [[0]]
        self.nbytes = (width + 7) // 8
        self.tables = tuple(zip(tables[0::2], tables[1::2]))

    def row(self, h: list) -> int:
        """The packed row of h, a polynomial of degree below d."""
        return sum(c << (j * self.n) for j, c in enumerate(h))

    def poly(self, row: int) -> list:
        n, mask = self.n, (1 << self.n) - 1
        return trim([(row >> (j * n)) & mask for j in range(self.d)])

    def _square(self, row: int) -> int:
        acc = 0
        for b, (low, high) in zip(row.to_bytes(self.nbytes, "little"), self.tables):
            acc ^= low[b & 15] ^ high[b >> 4]
        return acc

    def apply(self, row: int, times: int) -> int:
        """The row of h^(2^times)."""
        for _ in range(times):
            row = self._square(row)
        return row

    def trace(self, row: int) -> int:
        """The row of h + h^2 + .. + h^(2^(n-1)), the trace over F_2."""
        acc = row
        for _ in range(self.n - 1):
            row = self._square(row)
            acc ^= row
        return acc


@functools.lru_cache(maxsize=8)
def _frobenius_tensor(field) -> np.ndarray:
    """The linalg operand of the (n, n*n) matrix whose row m, block i holds
    the coordinates of z^(iq) z^m, from P(1) and the multiplication tensor T
    of K: the product of b's coordinates with it is P(1) M(b), block by block.
    """
    n = field.n
    frob = linalg.matmul(field.base, field.frobenius_matrices[1], field.tensor.reshape(n, n * n))
    return linalg.operand(field.base, frob.reshape(n, n, n).transpose(1, 0, 2).reshape(n, n * n))


@functools.lru_cache(maxsize=8)
def _artin_schreier(field) -> gf2.Basis:
    """Z -> Z^2 + Z on GF(2^m), m = n*r, as a gf2.Basis of its images on
    packed elements, each tagged with its preimage.

    Bit k of a packed element is an F_2 coordinate, so the images of the m
    unit vectors, one squaring each, span the image: the hyperplane of
    trace 0, since the kernel is {0, 1}.  So a reduces to 0 exactly when
    Tr(a) = 0, and a delta of trace 0 reduces with the tag Z, Z^2 + Z = delta.
    """
    basis = gf2.Basis()
    for k in range(field.n * field.r):
        pre = 1 << k
        basis.add(field.mul(pre, pre) ^ pre, pre)
    return basis


def _split_linear(field, s: list, rng: random.Random, out: set,
                  qpower: _QPowerMap | _SquareMap) -> None:
    """Recursively split a monic product of distinct linear factors.

    qpower is the q-power map modulo a multiple of s.  In characteristic 2
    the trace T of cX over F_q comes from it, reduced mod s; T + T^2 + .. +
    T^(2^(r-1)), for q = 2^r, is then the absolute trace over F_2.

    A quadratic s = X^2 + bX + e in characteristic 2 has b != 0, s being
    squarefree, and roots bZ and bZ + b with Z^2 + Z = e/b^2.  The trace
    split of s by a draw c separates the roots r1 and r2 exactly when
    Tr(c r1) != Tr(c r2), that is when Tr(cb) = 1, as r1 + r2 = b.  So c is
    drawn until Tr(cb) = 1, as often as the trace split would draw it, and
    the roots come from Z.
    """
    if degree(s) == 1:
        out.add(field.neg(s[0]))
        return
    order = field.order
    for _ in range(200):
        if field.p == 2:
            c = rng.randrange(1, order)
            if degree(s) == 2:
                basis, b = _artin_schreier(field), s[1]
                # Tr(cb) = 1 exactly when cb is left over; Z is the tag of e/b^2
                if basis.reduce(field.mul(c, b))[0]:
                    z = field.mul(b, basis.reduce(field.mul(s[0], field.inv(field.mul(b, b))))[1])
                    out.update((z, z ^ b))
                    return
                continue
            t = acc = mod(field, qpower.poly(qpower.trace(qpower.row([0, c]))), s)
            for _ in range(field.r - 1):
                t = mod(field, square(field, t), s)
                acc = add(field, acc, t)
            d = gcd(field, acc, s)
        else:
            a = rng.randrange(order)
            h = powmod(field, add(field, X, [a]), (order - 1) // 2, s)
            d = gcd(field, sub(field, h, [1]), s)
        if 0 < degree(d) < degree(s):
            _split_linear(field, d, rng, out, qpower)
            _split_linear(field, divmod_poly(field, s, d)[0], rng, out, qpower)
            return
    raise RootFindingFailed("equal-degree splitting failed to make progress")
