"""Dense univariate polynomial arithmetic over a field given by its scalar ops.

A polynomial is a plain list of scalars, coefficient of X^i at index i, with
no trailing zeros; the zero polynomial is the empty list.  The field argument
is any object exposing add/sub/mul/neg/inv on scalars with 0 and 1 as the
additive and multiplicative identities, and scale(a, coeffs), a times each
coefficient in one call, so the same routines serve F_q coefficients during
tower construction and K coefficients during decryption.  scale is how a
polynomial meets a scalar: scale and monic take one call, a product one
per coefficient of its first factor, and a division one per quotient
coefficient.  A field whose .p is 2 gets squares by the Frobenius shortcut.

Root finding takes an ExtensionField K = GF(q^n) and follows the classic
pattern: strip the squarefree product of linear factors with
gcd(g, X^order - X), g = f made monic, then split it recursively, using
the trace map in characteristic 2 and quadratic-residue powering for odd
characteristic.  roots builds a Frobenius map of K[X]/(g) once per call;
X^order mod g is order_steps applications of it, less those that the
largest power X^(e^k) of degree below deg g, e the map's exponent, already
is.  In characteristic 2, K = GF(2^m) with m = n*r, the map squares packed
integer rows (_SquareMap), X^order is at most m squarings and the trace of
cX over F_2 is m - 1 more.  At odd p it is the matrix Q of h -> h^q over
F_q (Berlekamp's Q-matrix, _QPowerMap), applied up to n times, and the
split powers X + a on scalars.

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


def add(F, f: list, g: list) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return trim(out)


def sub(F, f: list, g: list) -> list:
    out = f + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = F.sub(out[i], c)
    return trim(out)


def scale(F, f: list, s) -> list:
    if s == 0:
        return []
    return trim(F.scale(s, f))


def mul(F, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            out[i:i + len(g)] = map(F.add, out[i:i + len(g)], F.scale(a, g))
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
    """Quotient and remainder of f by g; raises ZeroDivisionError on g = 0.

    Each quotient coefficient q takes q times g below its top in one
    F.scale call; the top coefficient of the remainder cancels exactly.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = degree(g)
    lead_inv = 1 if g[dg] == 1 else F.inv(g[dg])
    tail, sub = g[:dg], F.sub
    quo = [0] * max(0, len(rem) - dg)
    for i in range(len(rem) - dg - 1, -1, -1):
        c = rem[i + dg]
        if c == 0:
            continue
        q = c if lead_inv == 1 else F.mul(c, lead_inv)
        quo[i] = q
        rem[i + dg] = 0
        rem[i:i + dg] = map(sub, rem[i:i + dg], F.scale(q, tail))
    return trim(quo), trim(rem)


def mod(F, f: list, g: list) -> list:
    return divmod_poly(F, f, g)[1]


def monic(F, f: list) -> list:
    """Scale f so its leading coefficient is 1; f itself when it already is."""
    if not f or f[-1] == 1:
        return f
    return scale(F, f, F.inv(f[-1]))


def gcd(F, f: list, g: list) -> list:
    """Monic greatest common divisor; gcd(0, 0) = 0.  Each divisor is made
    monic first: one F.inv and one F.scale, and no product per quotient
    coefficient beyond its F.scale.  A nonzero constant ends it at 1."""
    while len(g) > 1:
        g = monic(F, g)
        f, g = g, mod(F, f, g)
    return monic(F, g or f)


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
    qpower = (_SquareMap if field.p == 2 else _QPowerMap)(field, g)
    # X^(e^k), e the map's exponent, is its own residue while its degree is
    # below deg g, so the map starts from the largest such power
    start, steps = mod(field, X, g), qpower.order_steps
    while steps and 0 < degree(start) * qpower.exponent < degree(g):
        start = [0] * (degree(start) * qpower.exponent) + [1]
        steps -= 1
    xq = qpower.poly(qpower.apply(qpower.row(start), steps))
    s = gcd(field, sub(field, xq, X), g)
    out: set = set()
    if degree(s) >= 1:
        _split_linear(field, s, rng, out, qpower)
    return out


class _QPowerMap:
    """h -> h^q on K[X]/(g) as one matrix over F_q, for K = GF(q^n), q odd.

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
        self.field, self.d, self.exponent, self.order_steps = field, d, q, n
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

    def split(self, s: list, rng: random.Random) -> list | None:
        """Two factors of s, a product of distinct linear factors, from one
        draw a, or None: the gcd with (X + a)^((order - 1)/2) - 1 and its
        cofactor."""
        field = self.field
        a = rng.randrange(field.order)
        h = powmod(field, add(field, X, [a]), (field.order - 1) // 2, s)
        return _cofactors(field, s, gcd(field, sub(field, h, [1]), s))


class _SquareMap:
    """h -> h^2 on K[X]/(g) on packed integers, for K = GF(2^m), g monic.

    A packed element of K = GF(q^n), q = 2^r, is its own F_2 row of m = n*r
    bits: bit i*r + s is the coefficient of w^s z^i, w the F_q element 2.  So
    h = sum_j h_j X^j is the integer sum of h_j << (j*m).  Since h^2 = sum_j
    h_j^2 R_j with R_j = X^(2j) mod g, and bit i*r + s of h_j adds
    w^(2s) z^(2i) to h_j^2, bit j*m + i*r + s of h maps to the row
    w^(2s) z^(2i) R_j.  The rows are summed through 4-bit Kronrod tables (the
    "Four Russians", gf2.nibble_tables): a square is one XOR per table lookup.
    """

    def __init__(self, field, g: list):
        n, r, d = field.n, field.r, degree(g)
        self.field, self.exponent = field, 2
        self.m = self.order_steps = m = n * r
        self.d, width = d, d * m
        # a in F_q times every r-bit digit (digits has bit 0 of each set): bit t
        # adds a w^t, which is below 2^r, so nothing carries into the next digit
        digits, mul = ((1 << (d * d * m)) - 1) // ((1 << r) - 1), field.base.mul

        def times_scalar(v: int, a: int) -> int:
            out = 0
            for t in range(r):
                out ^= ((v >> t) & digits) * mul(a, 1 << t)
            return out

        # z times every m-bit slot (ones has bit 0 of each set): shift the slot
        # up one digit and fold its top digit back bit by bit as w^s z^n, w^s
        # times the modulus less its z^n term, below 2^m, so nothing carries
        ones = ((1 << (d * d * m)) - 1) // ((1 << m) - 1)
        keep = ones * ((1 << (m - r)) - 1)
        modulus = sum(c << (i * r) for i, c in enumerate(field.modulus[:n]))
        zfolds = [(m - r + s, times_scalar(modulus, 1 << s)) for s in range(r)]

        def times_z(v: int) -> int:
            out = (v & keep) << r
            for top, fold in zfolds:
                out ^= ((v >> top) & ones) * fold
            return out

        # X h: shift h up one slot and fold the coefficient c carried out of it
        # back as c X^d, X^d being g less its X^d term: one w^s z^i (g - X^d)
        # for each bit i*r + s of c
        folds = [times_scalar(self.row(g[:d]), 1 << s) for s in range(r)]
        while len(folds) < m:
            folds.append(times_z(folds[-r]))
        low = (1 << (width - m)) - 1

        def times_x(h: int) -> int:
            c, h = h >> (width - m), (h & low) << m
            while c:
                b = c & -c
                h ^= folds[b.bit_length() - 1]
                c ^= b
            return h

        powers = [1]
        for _ in range(d - 1):
            powers.append(times_x(times_x(powers[-1])))
        # every R_j side by side, width bits apart, so that one times_z moves
        # all; after i steps of z^2, block j of w^(2s) v is row j*m + i*r + s
        v = sum(rj << (j * width) for j, rj in enumerate(powers))
        squares = [mul(1 << s, 1 << s) for s in range(1, r)]
        stack = []
        for _ in range(n):
            stack += [v] + [times_scalar(v, a) for a in squares]
            v = times_z(times_z(v))
        full = (1 << width) - 1
        rows = [(u >> (j * width)) & full for j in range(d) for u in stack]
        # a byte of h indexes one table with each nibble; an odd last table
        # pairs with a table for the high nibble, which is zero
        tables = gf2.nibble_tables(rows) + [(0,)]
        self.nbytes = (width + 7) // 8
        self.tables = tuple(zip(tables[0::2], tables[1::2]))

    def row(self, h: list) -> int:
        """The packed row of h, a polynomial of degree below d."""
        return sum(c << (j * self.m) for j, c in enumerate(h))

    def poly(self, row: int) -> list:
        m, mask = self.m, (1 << self.m) - 1
        return trim([(row >> (j * m)) & mask for j in range(self.d)])

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
        """The row of h + h^2 + .. + h^(2^(m-1)), the trace over F_2."""
        acc = row
        for _ in range(self.m - 1):
            row = self._square(row)
            acc ^= row
        return acc

    def split(self, s: list, rng: random.Random) -> list | None:
        """Two factors of s, a product of distinct linear factors that
        divides g, from one draw c, or None: the gcd with the trace of cX
        and its cofactor.  A quadratic X^2 + bX + e splits into X + bZ and
        X + bZ + b, Z^2 + Z = e/b^2, on the draws where Tr(cb) = 1, those
        on which the trace split succeeds."""
        field = self.field
        c = rng.randrange(1, field.order)
        if degree(s) != 2:
            return _cofactors(field, s, gcd(field, self.poly(self.trace(self.row([0, c]))), s))
        basis, b = _artin_schreier(field), s[1]
        # Tr(cb) = 1 exactly when cb is left over; Z is the tag of e/b^2
        if not basis.reduce(field.mul(c, b))[0]:
            return None
        z = field.mul(b, basis.reduce(field.mul(s[0], field.inv(field.mul(b, b))))[1])
        return [[z, 1], [z ^ b, 1]]


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


def _cofactors(field, s: list, d: list) -> list | None:
    """[d, s / d] when d is a proper factor of s, else None."""
    if 0 < degree(d) < degree(s):
        return [d, divmod_poly(field, s, d)[0]]
    return None


def _split_linear(field, s: list, rng: random.Random, out: set,
                  qpower: _QPowerMap | _SquareMap) -> None:
    """Recursively split a monic product of distinct linear factors by the
    draws of qpower.split, the Frobenius map modulo a multiple of s."""
    if degree(s) == 1:
        out.add(field.neg(s[0]))
        return
    for _ in range(200):
        parts = qpower.split(s, rng)
        if parts:
            for part in parts:
                _split_linear(field, part, rng, out, qpower)
            return
    raise RootFindingFailed("equal-degree splitting failed to make progress")
