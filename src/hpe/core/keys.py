"""Key material: a private key's four parts and the public key they expand to.

The public key is n equations in (x, y), each linear in y, held as two
coefficient blocks over F_q: C0 (n, M0) for the terms with no y, and
Cy (n, n, My) for the terms of equation k with y_j.  Each block has its own
monomial table (mono0, monoy): the x monomials that occur in it, as rows of
n exponents reduced by x^q = x, in monomial_basis order.  The nonzero
entries of C0[k] and then Cy[k] are equation k's terms.

One kernel evaluates the key, built on its first use, not by keygen or
load_public.  It computes the value of every monomial of both blocks at
a batch of x, and the blocks' coefficients take it from there.  At
p = 2, for every q = 2^r, each block is a table of packed F_2 columns, one
for each monomial and bit-plane s: w^s times the monomial's [Cy_u | 0] in
the linalg.PackedSystem layout of the augmented system [Cy(x) | C0(x)]
(gf2.pack, entry (k, j) of its F_2 matrix at bit k*(n + 1)*r + j), and w^s
times C0_u as the F_2 block of the last r columns.  The system at x is the
XOR of the columns that the bits of the monomial values select, so it
comes out as the one integer that encryption reduces and reads y from,
and an equation's value at (x, y) is the parity of its rows against
(y, 1).  At q = 2 a monomial is 1 exactly when its variables lie inside
x's set bits, one numpy AND over their bitmasks; at r > 1 the values are
mul_table takes over the homogenized (x, 1).  At odd p each block is a
float64 linalg operand that the values multiply.  PublicKey.system is the
system at x that encryption solves, eval_at the values at (x, y) that
verify and exhaustive search test, and linear_system the system as F_q
(matrix, rhs).
"""

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, VariableMismatch
from ..fields import parse_decimal
from ..mvpoly import gf2, linalg
from ..mvpoly.linalg import inverse, matvec, random_invertible, random_scalars


def monomial_basis(q: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """(table, index): the distinct x-exponent rows in order, and the
    position in the table of each given row.

    The order compares exponent rows lexicographically, x_0 first; for
    q = 2 it starts at x_{n-1}, the order of the bitmasks the format was
    first written from.  Rows pack into base-q uint64 keys, one per run of
    digits that fits, most significant first, so one lexsort orders them.
    At q = 2 the keys are the bitmask of a row, bit j the exponent of x_j,
    as little-endian 64-bit words from gf2.words, the word holding x_{n-1}
    first: words of one alignment compare like the whole bitmasks.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    if q == 2:
        keys = gf2.words(rows).T[::-1]
    else:
        width = 1
        while q ** (width + 1) <= 1 << 64:
            width += 1
        keys = []
        for lo in range(0, rows.shape[1], width):
            key = np.zeros(len(rows), dtype=np.uint64)
            for col in rows[:, lo:lo + width].T:
                key = key * np.uint64(q) + col
            keys.append(key)
        keys = np.stack(keys)
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return rows[order[new]], index


# Largest X-degree of a hidden relation, for keygen and for a private key
# read from a file: decryption roots a polynomial of this degree.
MAX_DEGX = 64


# mixed X/Y monomials in a hidden relation, each on its own level of Y
N_MONOMIALS = 3


@dataclass(frozen=True)
class KeyGenParams:
    """Knobs for key generation.

    q is the scalar field order, n the extension degree (and message
    length in scalars), t_max the largest allowed monomial weight and
    degX_max the largest allowed power of X inside the hidden equation.
    check() refuses every set from which no key can be drawn.
    """

    q: int = 2
    n: int = 16
    t_max: int = 3
    degX_max: int = 9

    def check(self) -> None:
        if self.n < N_MONOMIALS:
            # each mixed monomial takes its own Frobenius level on Y
            raise VariableMismatch(
                "cannot give %d mixed monomials distinct y levels with n=%d"
                % (N_MONOMIALS, self.n))
        if not 2 <= self.degX_max <= MAX_DEGX:
            raise VariableMismatch("degX_max must lie in [2, %d]" % MAX_DEGX)
        # the least mixed monomial is X^(1+q) Y, of weight 3
        if self.t_max < 3:
            raise VariableMismatch("t_max must be at least 3")
        if 1 + self.q > self.degX_max:
            raise VariableMismatch(
                "no mixed monomial fits degX_max=%d: the least X part, "
                "X^(1+q), has degree %d" % (self.degX_max, 1 + self.q))


@dataclass(frozen=True)
class PrivatePolynomial:
    """The hidden bivariate relation f(X, Y) over the big field.

    mixed holds (coeff, x_thetas, y_theta) triples standing for
    a * X^(sum q^theta) * Y^(q^y_theta); pure holds (coeff, x_thetas)
    pairs with no Y factor; const is the constant coefficient.
    Exponents of X are carried as sorted tuples of Frobenius levels.
    Everything but the file lines walks the relation through terms().
    """

    mixed: tuple = ()
    pure: tuple = ()
    const: int = 0

    def terms(self) -> list:
        """Every term as (coeff, x_thetas, y_theta): the mixed terms, the
        pure ones with y_theta None, and last (const, (), None)."""
        return [*self.mixed, *((b, xth, None) for b, xth in self.pure),
                (self.const, (), None)]

    def t(self) -> int:
        """Largest total weight (number of q-power factors) of any term."""
        return max(len(xth) + (yth is not None) for _, xth, yth in self.terms())

    def x_exponent(self, q: int, thetas: tuple) -> int:
        return sum(q**t for t in thetas)

    def deg_x(self, q: int) -> int:
        return max(self.x_exponent(q, xth) for _, xth, _ in self.terms())

    def univariate_in_x(self, field, v: int) -> list:
        """Coefficients of g(X) = f(X, v), low to high, over the big field,
        with no zero coefficient at the top ([] when every term cancels)."""
        q = field.base.q
        out = []
        for c, xth, yth in self.terms():
            if yth is not None:
                c = field.mul(c, field.frob(v, yth))
            e = self.x_exponent(q, xth)
            out += [0] * (e + 1 - len(out))  # extended up to X^e if shorter
            out[e] = field.add(out[e], c)
        while out and not out[-1]:
            out.pop()
        return out

    def to_lines(self) -> list[str]:
        out = []
        for a, xth, yth in self.mixed:
            out.append("MIX %d %s : %d" % (a, " ".join(map(str, xth)), yth))
        for b, xth in self.pure:
            out.append("PUREX %d %s" % (b, " ".join(map(str, xth))))
        out.append("CONST %d" % self.const)
        return out

    @classmethod
    def from_lines(cls, lines: list[str]) -> "PrivatePolynomial":
        mixed, pure, const = [], [], 0
        for line in lines:
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "MIX":
                    sep = parts.index(":")
                    coeff = parse_decimal(parts[1])
                    xth = tuple(parse_decimal(s) for s in parts[2:sep])
                    mixed.append((coeff, xth, parse_decimal(parts[sep + 1])))
                elif parts[0] == "PUREX":
                    pure.append((parse_decimal(parts[1]),
                                 tuple(parse_decimal(s) for s in parts[2:])))
                elif parts[0] == "CONST":
                    const = parse_decimal(parts[1])
                else:
                    raise FormatError("unknown private term line: %r" % line)
            except (ValueError, IndexError) as exc:
                raise FormatError("bad private term line: %r" % line) from exc
        return cls(tuple(mixed), tuple(pure), const)


class AffinePair:
    """The two invertible affine masks u = A x + c and v = B y + d.

    Matrices and shifts live coordinatewise over the scalar field; A's
    inverse is computed once up front so decryption stays cheap.
    """

    def __init__(self, base, a_mat, c_vec, b_mat, d_vec):
        self.base = base
        self.a_mat = np.ascontiguousarray(a_mat, dtype=np.uint8)
        self.c_vec = np.ascontiguousarray(c_vec, dtype=np.uint8)
        self.b_mat = np.ascontiguousarray(b_mat, dtype=np.uint8)
        self.d_vec = np.ascontiguousarray(d_vec, dtype=np.uint8)
        self.a_inv = inverse(base, self.a_mat)

    @classmethod
    def sample(cls, base, n: int, rng) -> "AffinePair":
        a_mat = random_invertible(base, n, rng)
        b_mat = random_invertible(base, n, rng)
        c_vec = random_scalars(base.q, n, rng)
        d_vec = random_scalars(base.q, n, rng)
        return cls(base, a_mat, c_vec, b_mat, d_vec)

    def unmap_u(self, u_vec: np.ndarray) -> np.ndarray:
        shifted = self.base.sub_table[np.asarray(u_vec, dtype=np.uint8), self.c_vec]
        return matvec(self.base, self.a_inv, shifted)

    def map_y(self, y_vec: np.ndarray) -> np.ndarray:
        v = matvec(self.base, self.b_mat, y_vec)
        return self.base.add_table[v, self.d_vec]


class PublicKey:
    """Public encryption key: the coefficient blocks plus the message alphabet.

    mono0 (M0, n) and C0 (n, M0) hold the terms with no y, monoy (My, n)
    and Cy (n, n, My) the terms with a y; see the module docstring.
    The constructor drops monomials whose coefficients are all zero.
    """

    def __init__(self, base, n: int, t: int, mono0, C0, monoy, Cy, alphabet):
        self.base = base
        self.q = base.q
        self.n = n
        self.t = t
        self.alphabet = alphabet
        C0, Cy = C0.reshape(n, len(mono0)), Cy.reshape(n, n, len(monoy))
        keep0, keepy = C0.any(axis=0), Cy.any(axis=(0, 1))
        self.mono0, self.C0 = mono0[keep0], C0[:, keep0]
        self.monoy, self.Cy = monoy[keepy], Cy[:, :, keepy]
        self._kernel = None

    def term_count(self) -> int:
        return int(np.count_nonzero(self.C0) + np.count_nonzero(self.Cy))

    def _blocks(self):
        """The kernel, built on first use: a function giving the values of
        the monomials of both blocks, mono0's then monoy's, at a batch of x,
        and the blocks' coefficients, packed at p = 2, float64 at odd p."""
        if self._kernel is None:
            monos = np.concatenate([self.mono0, self.monoy])
            monomials = _mask_values(monos) if self.q == 2 else _product_values(self.base, monos)
            kind = _PackedKernel if self.base.p == 2 else _FloatKernel
            self._kernel = kind(self, monomials)
        return self._kernel

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        """Every equation collapsed at each x of an (m, n) batch, as
        (m, n, n + 1) rows over (1, y_0..y_{n-1})."""
        aug = self._blocks().augmented(xs)
        return np.concatenate([aug[:, :, self.n:], aug[:, :, :self.n]], axis=2)

    def system(self, x_vec: np.ndarray):
        """The system the ciphertext x imposes on y: a linalg.PackedSystem
        at p = 2, a linalg.System at odd p."""
        return self._blocks().system(self, np.asarray(x_vec, dtype=np.uint8))

    def linear_system(self, x_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(matrix, rhs) of the system the ciphertext x imposes on y."""
        rows = self._rows(np.asarray(x_vec, dtype=np.uint8).reshape(1, self.n))[0]
        return rows[:, 1:], self.base.neg_table[rows[:, 0]]

    def eval_at(self, x_vec: np.ndarray, y_vec: np.ndarray) -> np.ndarray:
        """The n equation values at (x, y), rows . (1, y); an (m, n) batch
        of x gives (m, n) values."""
        x = np.asarray(x_vec, dtype=np.uint8)
        y_one = np.append(np.asarray(y_vec, dtype=np.uint8), np.uint8(1))
        vals = self._blocks().values(x.reshape(-1, self.n), y_one)
        return vals.reshape(x.shape[:-1] + (self.n,))

    def shape_violations(self) -> list:
        """Structural defects, empty for a well-formed key."""
        n = self.n
        # the y monomials of each equation, over all y slots at once
        ymono = self.Cy.any(axis=1)
        has_y = ymono.any(axis=1)
        deg0 = np.where(self.C0 != 0, self.mono0.sum(axis=1), 0)
        degy = np.where(ymono, self.monoy.sum(axis=1), 0)
        # an empty equation has degree 0
        deg = np.maximum(deg0.max(axis=1, initial=0), degy.max(axis=1, initial=0))
        out = []
        for k in range(n):
            if not has_y[k]:
                out.append("equation %d has no y variable" % k)
            if deg[k] < 2:
                out.append("equation %d is linear in x" % k)
            if deg[k] > self.t:
                out.append("equation %d exceeds x-degree %d" % (k, self.t))
        return out


def _mask_values(monos: np.ndarray):
    """At q = 2: a monomial is 1 at x exactly when its variables, as a
    bitmask, lie inside the set bits of x."""
    masks = gf2.words(monos)
    return lambda xs: ~(masks & ~gf2.words(xs)[:, None]).any(axis=2)


def _product_values(base, monos: np.ndarray):
    """The value of each monomial at each x of a batch, one flat mul_table
    take per factor over the homogenized (x, 1)."""
    # factor j of a monomial is the first variable whose running exponent
    # sum passes j, or n once they all stop
    ends = np.cumsum(monos, axis=1)
    degree = max(1, int(ends[:, -1].max(initial=0)))
    factors = np.array([(ends <= j).sum(axis=1) for j in range(degree)])
    mul = base.mul_table.ravel()

    def values(xs):
        xh = np.concatenate([xs, np.ones((len(xs), 1), dtype=np.uint8)], axis=1)
        # a product a*b of scalars is entry q*b + a of the flat table
        xq = xh * np.intp(base.q)
        vals = xh.take(factors[0], axis=1)
        for idx in factors[1:]:
            vals = mul.take(xq.take(idx, axis=1) + vals)
        return vals

    return values


class _FloatKernel:
    """Odd p: each block's coefficients as a float64 linalg operand, which
    the values of its monomials at x multiply."""

    def __init__(self, pk, monomials):
        self.base, self.n, self.monomials = pk.base, pk.n, monomials
        self.split = len(pk.mono0)
        self.right0 = linalg.operand(pk.base, pk.C0.T)
        self.righty = linalg.operand(pk.base, pk.Cy.reshape(pk.n * pk.n, -1).T)

    def augmented(self, xs: np.ndarray) -> np.ndarray:
        """[Cy(x) | C0(x)] at each x of an (m, n) batch, (m, n, n + 1)."""
        m, n = len(xs), self.n
        vals = self.monomials(xs)
        out = np.empty((m, n, n + 1), dtype=np.uint8)
        out[:, :, :n] = linalg.times(self.base, vals[:, self.split:], self.righty).reshape(m, n, n)
        out[:, :, n] = linalg.times(self.base, vals[:, :self.split], self.right0)
        return out

    def values(self, xs: np.ndarray, y_one: np.ndarray) -> np.ndarray:
        """The (m, n) equation values at each x of a batch and (y, 1)."""
        rows = self.augmented(xs).reshape(-1, self.n + 1)
        return matvec(self.base, rows, y_one).reshape(len(xs), self.n)

    def system(self, pk, x: np.ndarray):
        matrix, rhs = pk.linear_system(x)
        return linalg.System(self.base, np.concatenate([matrix, rhs[:, None]], axis=1))


# Bytes of F_2 matrices a packed kernel expands at a time: the expansion
# takes three arrays of this size, so a small one keeps the build's peak
# memory near the tables it leaves (at q=2 n=32, 0.1 MB).
_BUILD_BYTES = 1 << 16


def _packed_columns(base, blocks, size: int, rows: int, cols: int) -> np.ndarray:
    """(words, size*r) uint64: column u*r + s holds the gf2.pack of the F_2
    matrix (rref's expansion) of w^s times block u, rows x cols over F_q,
    blocks(lo, hi) giving blocks lo..hi-1 as an array."""
    r = base.r
    shifts = np.arange(r, dtype=np.uint8)
    sb = np.add.outer(shifts, shifts)
    step = max(1, _BUILD_BYTES // (r ** 3 * rows * cols))
    out = np.empty(((rows * cols * r * r + 63) // 64, size * r), dtype=np.uint64)
    for lo in range(0, size, step):
        # planes[e] is w^e times the blocks, so bit a of planes[s + b] is
        # entry (a, b) of the F_2 block of w^s times an entry
        planes = [blocks(lo, min(size, lo + step))]
        for _ in range(2 * r - 2):
            planes.append(base.mul_table[2].take(planes[-1]))
        bits = np.stack(planes)[sb][..., None] >> shifts & 1  # (s, b, h, k, j, a)
        # to column h*r + s, entry (k*r + a, j*r + b)
        bits = bits.transpose(2, 0, 3, 5, 4, 1).reshape(len(planes[0]) * r, -1)
        out[:, lo * r:lo * r + len(bits)] = gf2.words(bits).T
    return out


class _PackedKernel:
    """p = 2: the F_2 matrix of the system at x is the XOR of the packed
    columns that the bits of the monomial values select, one table a block.
    Column u*r + s of the y table is w^s times [Cy_u | 0], monomial u's y
    block with a zero right-hand side, in the linalg.PackedSystem layout of
    the whole system; column u*r + s of the other is w^s times C0_u, the
    n*r x r F_2 block that the system's last r columns get."""

    def __init__(self, pk, monomials):
        n, split = pk.n, len(pk.mono0)
        self.base, self.n, self.split, self.monomials = pk.base, n, split, monomials
        self.shifts = np.arange(pk.base.r, dtype=np.uint8)

        def blocks_y(lo, hi):
            out = np.zeros((hi - lo, n, n + 1), dtype=np.uint8)
            out[:, :, :n] = pk.Cy[:, :, lo:hi].transpose(2, 0, 1)
            return out

        self.table_y = _packed_columns(pk.base, blocks_y, len(pk.monoy), n, n + 1)
        self.table_0 = _packed_columns(pk.base, lambda lo, hi: pk.C0[:, lo:hi].T[:, :, None],
                                       split, n, 1)

    def words(self, xs: np.ndarray) -> np.ndarray:
        """The systems at each x of an (m, n) batch as (m, words) rows."""
        m, n, r = len(xs), self.n, self.base.r
        vals = self.monomials(xs).astype(np.uint8, copy=False)
        select = (vals[:, :, None] >> self.shifts & 1).reshape(m, vals.shape[1] * r).view(bool)
        cut = self.split * r
        out = np.empty((m, len(self.table_y)), dtype=np.uint64)
        rhs = np.empty((m, len(self.table_0)), dtype=np.uint64)
        for i, sel in enumerate(select):
            np.bitwise_xor.reduce(self.table_y.compress(sel[cut:], axis=1), axis=1, out=out[i])
            np.bitwise_xor.reduce(self.table_0.compress(sel[:cut], axis=1), axis=1, out=rhs[i])
        # the C0 blocks go to the last r columns of every F_2 row
        bits = np.zeros((m, n * r, (n + 1) * r), dtype=np.uint8)
        bits[:, :, n * r:] = np.unpackbits(rhs.view(np.uint8), axis=1, count=n * r * r,
                                           bitorder="little").reshape(m, n * r, r)
        return out ^ gf2.words(bits.reshape(m, n * (n + 1) * r * r))

    def _bits(self, xs: np.ndarray) -> np.ndarray:
        """The systems at each x of an (m, n) batch as (m, n*r, (n+1)*r) bits."""
        n, r = self.n, self.base.r
        bits = np.unpackbits(self.words(xs).view(np.uint8), axis=1,
                             count=n * (n + 1) * r * r, bitorder="little")
        return bits.reshape(len(xs), n * r, (n + 1) * r)

    def augmented(self, xs: np.ndarray) -> np.ndarray:
        """[Cy(x) | C0(x)] at each x of an (m, n) batch, (m, n, n + 1):
        entry (k, j) is the column of digits at F_2 rows k*r.., column j*r."""
        n, r = self.n, self.base.r
        digits = self._bits(xs).reshape(len(xs), n, r, n + 1, r)[..., 0].transpose(0, 1, 3, 2)
        return np.packbits(digits, axis=3, bitorder="little")[..., 0]

    def values(self, xs: np.ndarray, y_one: np.ndarray) -> np.ndarray:
        """The (m, n) equation values at each x of a batch and (y, 1): bit
        a of value k is the parity of F_2 row k*r + a against (y, 1)."""
        r = self.base.r
        y_bits = np.unpackbits(y_one[:, None], axis=1, count=r, bitorder="little").ravel()
        digits = np.bitwise_xor.reduce(self._bits(xs) & y_bits, axis=2)
        return np.packbits(digits.reshape(len(xs), self.n, r), axis=2, bitorder="little")[..., 0]

    def system(self, pk, x: np.ndarray):
        bits = int.from_bytes(self.words(x[None]).tobytes(), "little")
        return linalg.PackedSystem(self.base, bits, self.n, self.n + 1)


class PrivateKey:
    """Private key: the field tower, hidden relation, affine masks and the
    message alphabet.

    Decryption and signing need only those; the matching public key is
    keygen.expand_keypair of the four.
    """

    def __init__(self, field, priv: PrivatePolynomial, affine: AffinePair,
                 alphabet):
        self.field = field
        self.priv = priv
        self.affine = affine
        self.alphabet = alphabet

    @property
    def base(self):
        return self.field.base

    @property
    def n(self) -> int:
        return self.field.n
