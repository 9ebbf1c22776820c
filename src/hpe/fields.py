"""The two-level field tower F_p <= F_q <= K used by every scheme here.

Scalars of F_q (q = p^r <= 256) are integers 0..q-1 whose base-p digits
are the coordinates in F_p[w]/(modulus_p), w being the element p.  Each
scalar's r x r "multiply by" matrix over F_p yields every scalar table and
lets an F_q matrix product run as one product over F_p.

Elements of K = F_q[z]/(modulus), deg n, are integers 0..q^n-1 whose base-q
digits are the coordinates in the polynomial basis 1, z, .., z^(n-1).  The
field carries the Frobenius matrices P(k) with row i holding the coordinates
of (z^i)^(q^k), and the multiplication tensor T with T[i, j] holding the
coordinates of z^i * z^j, so coordinate-level expansion of products and
q-power maps reduces to contractions against these tables.

Multiplication, inversion, powers and Frobenius in K run on one of three
backends, chosen at construction from the field size:

- "log", when q^n <= TABLE_MAX_ORDER (2^20), for every q: exp/log tables
  over a primitive element, so mul, inv, pow (negative exponents too) and
  frob are one or two lookups.  The tables are array('I'), 12 bytes per
  element, built on the first multiply; fields that are only used for
  public-key work (keygen, encrypt, verify) never build them.
- "clmul", GF(2^n) above the threshold: carry-less multiply over a 4-bit
  window with byte tables that reduce the overflow, binary extended Euclid
  for inv, and per-k column masks for frob.
- "coords", q > 2 above the threshold: an integer convolution of base-p
  digit vectors reduced by one precomputed matrix, inv as a^(q^n - 2), and
  frob through P(k).

Moduli default to the lexicographically least monic irreducible of the right
degree, least meaning smallest integer encoding sum(c_i * q^i) + q^deg; the
scan uses the definitive distinct-degree test, not a probabilistic one.
"""

from __future__ import annotations

import functools
import random
from array import array

import numpy as np

from .errors import InvalidDegree, InvalidOrder, NotIrreducible
from .mvpoly import linalg, upoly

MAX_Q = 256
TABLE_MAX_ORDER = 1 << 20  # largest K served by log/antilog tables


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q as p^r with p prime; raises InvalidOrder otherwise."""
    if q < 2:
        raise InvalidOrder("field order must be at least 2, got %r" % (q,))
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    r, m = 0, q
    while m % p == 0:
        m //= p
        r += 1
    if m != 1:
        raise InvalidOrder("%d is not a prime power" % q)
    return p, r


class BaseField:
    """F_q for q = p^r <= 256, with dense scalar operation tables.

    Row t of mul_matrices[a] holds the base-p digits of a * w^t, w the
    element p, so b's digits times mul_matrices[a] mod p are a * b's; they
    are float64 so that F_q products go straight to BLAS.
    """

    def __init__(self, q: int):
        p, r = prime_power_split(q)
        if q > MAX_Q:
            raise InvalidOrder("base field order %d exceeds the supported %d" % (q, MAX_Q))
        self.p = p
        self.r = r
        self.q = q
        self.order = q
        self.modulus_p = _least_irreducible(base_field(p), r) if r > 1 else None
        self._build_tables()

    def _build_tables(self) -> None:
        p, r, q = self.p, self.r, self.q
        weights = p ** np.arange(r)
        digits = np.arange(q)[:, None] // weights % p
        rows = [digits]
        for _ in range(1, r):
            # a * w^t is a * w^(t-1) shifted up one digit, the top digit folded
            # back through the monic modulus: w^r = -(m_0 + .. + m_(r-1) w^(r-1))
            prev = rows[-1]
            shifted = np.concatenate([np.zeros((q, 1), dtype=prev.dtype), prev[:, :-1]], axis=1)
            rows.append((shifted - prev[:, -1:] * np.array(self.modulus_p[:r])) % p)
        mats = np.stack(rows, axis=1)
        add = (digits[:, None] + digits[None, :]) % p @ weights
        mul = np.einsum("bt,atj->abj", digits, mats) % p @ weights
        neg = -digits % p @ weights
        add, mul, neg = (t.astype(np.uint8) for t in (add, mul, neg))
        sub = add[:, neg]
        inv = np.argmax(mul == 1, axis=1).astype(np.uint8)
        mats = mats.astype(np.float64)
        for t in (add, sub, mul, neg, inv, mats):
            t.flags.writeable = False
        self.add_table, self.sub_table = add, sub
        self.mul_table, self.neg_table, self.inv_table = mul, neg, inv
        self.mul_matrices = mats

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_%d" % self.q)
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return "BaseField(q=%d)" % self.q


@functools.lru_cache(maxsize=32)
def base_field(q: int) -> BaseField:
    return BaseField(q)


def _is_irreducible(base: BaseField, m: list) -> bool:
    """Distinct-degree test: no factor of degree <= deg(m)/2 means irreducible."""
    n = upoly.degree(m)
    h = upoly.mod(base, upoly.X, m)
    for _ in range(n // 2):
        h = upoly.powmod(base, h, base.q, m)
        if upoly.degree(upoly.gcd(base, upoly.sub(base, h, upoly.X), m)) != 0:
            return False
    return True


def _least_irreducible(base: BaseField, n: int) -> tuple:
    """Least monic irreducible of degree n over F_q, ascending integer scan."""
    q = base.q
    for enc in range(q**n):
        cand = [(enc // q**i) % q for i in range(n)] + [1]
        if cand[0] == 0:
            continue
        if any(upoly.eval_poly(base, cand, a) == 0 for a in range(q)):
            continue
        if _is_irreducible(base, cand):
            return tuple(cand)
    raise NotIrreducible("no irreducible of degree %d over F_%d" % (n, q))


def _prime_factors(m: int) -> list:
    """Distinct prime factors of m >= 1, by trial division."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _matpow(fp: BaseField, mat: np.ndarray, e: int) -> np.ndarray:
    """mat^e over the prime field fp."""
    out = linalg.identity(len(mat))
    while e:
        if e & 1:
            out = linalg.matmul(fp, out, mat)
        mat = linalg.matmul(fp, mat, mat)
        e >>= 1
    return out


def _apply_linear(fp: BaseField, mat: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Images of packed elements under an F_p-linear map given on base-p digits.

    Row k of mat is the image of the k-th digit's unit vector.  For p = 2
    packed addition is XOR, so the image is the XOR of per-byte tables;
    otherwise the digits are unpacked in blocks and multiplied through.
    """
    p = fp.p
    weights = np.array([p**k for k in range(len(mat))], dtype=np.int64)
    if p == 2:
        out = np.zeros_like(packed)
        for c in range(0, len(mat), 8):
            rows = mat[c : c + 8]
            bits = (np.arange(1 << len(rows))[:, None] >> np.arange(len(rows))) & 1
            table = linalg.matmul(fp, bits, rows) @ weights
            out ^= table.astype(packed.dtype)[(packed >> c) & 255]
        return out
    blocks = []
    for start in range(0, len(packed), 4096):
        digits = packed[start : start + 4096, None] // weights % p
        blocks.append((linalg.matmul(fp, digits, mat) @ weights).astype(packed.dtype))
    return np.concatenate(blocks)


class ExtensionField:
    """K = F_q[z]/(modulus) of degree n, elements packed as base-q integers."""

    def __init__(self, base: BaseField, n: int, modulus: tuple):
        self.base = base
        self.p, self.r, self.q = base.p, base.r, base.q
        self.n = n
        self.modulus = tuple(int(c) for c in modulus)
        self.order = self.q**n
        self._qpows = tuple(self.q**i for i in range(n + 1))
        self._fast2 = self.p == 2 and self.r == 1
        self._build_tables()
        if self.order <= TABLE_MAX_ORDER:
            self.backend = "log"
            self._mul, self._inv, self._frob = self._mul_log, self._inv_log, self._frob_log
        elif self._fast2:
            self.backend = "clmul"
            self._mod_int = sum(c << i for i, c in enumerate(self.modulus))
            self._mul, self._inv, self._frob = self._mul_clmul, self._inv_euclid, self._frob_masks
        else:
            self.backend = "coords"
            self._mul, self._inv, self._frob = (
                self._mul_coords,
                self._inv_fermat,
                self._frob_matrix,
            )

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        base, n = self.base, self.n
        zpows = []
        cur = [1]
        for _ in range(2 * n - 1):
            zpows.append(cur)
            cur = upoly.mod(base, upoly.mul(base, cur, upoly.X), self.modulus)
        tensor = np.zeros((n, n, n), dtype=np.uint8)
        for i in range(n):
            for j in range(n):
                row = zpows[i + j]
                tensor[i, j, : len(row)] = row
        zq = upoly.powmod(base, upoly.X, self.q, self.modulus)
        p1 = np.zeros((n, n), dtype=np.uint8)
        cur = [1]
        for i in range(n):
            p1[i, : len(cur)] = cur
            cur = upoly.mod(base, upoly.mul(base, cur, zq), self.modulus)
        frob = [linalg.identity(n), p1]
        for _ in range(n - 2):
            frob.append(linalg.matmul(base, frob[-1], p1))
        frob = frob[:n]
        for mat in frob:
            mat.flags.writeable = False
        tensor.flags.writeable = False
        self.tensor = tensor
        self.frobenius_matrices = tuple(frob)

    @functools.cached_property
    def _log_tables(self) -> tuple[array, array]:
        """exp[i] = g^i for a primitive g, and log, its inverse on K*.

        exp is stored twice over so exp[log a + log b] needs no reduction;
        log[0] is unused.  Powers of g are built by doubling: with g^0..g^(L-1)
        known, the next L are their images under "multiply by g^L".
        """
        fp, m = base_field(self.p), self.order - 1
        step = self._primitive_map()
        exp = np.ones(1, dtype=np.uintc)
        while len(exp) < m:
            exp = np.concatenate([exp, _apply_linear(fp, step, exp)])
            step = linalg.matmul(fp, step, step)
        exp = exp[:m]
        log = np.zeros(self.order, dtype=np.uintc)
        log[exp] = np.arange(m, dtype=np.uintc)
        exp_table, log_table = array("I"), array("I")
        exp_table.frombytes(memoryview(exp).cast("B"))
        exp_table.frombytes(memoryview(exp).cast("B"))
        log_table.frombytes(memoryview(log).cast("B"))
        return exp_table, log_table

    def _primitive_map(self) -> np.ndarray:
        """Matrix of "multiply by g" on base-p digits, g the least primitive element.

        Row k holds the digits of p^k * g (p^k packed is the k-th F_p basis
        vector); g is primitive when no map^((order-1)/l) is the identity.
        """
        p, m, width = self.p, self.order - 1, self.n * self.r
        fp, eye = base_field(p), linalg.identity(width)
        factors = _prime_factors(m)
        # elements below q lie in F_q, whose orders divide q - 1 < order - 1
        for g in range(self.q, self.order):
            prods = [self._mul_coords(p**k, g) for k in range(width)]
            mat = linalg.as_matrix([[a // p**j % p for j in range(width)] for a in prods])
            if all(not np.array_equal(_matpow(fp, mat, m // f), eye) for f in factors):
                return mat
        raise NotIrreducible("K* has no generator, so the modulus is reducible")

    @functools.cached_property
    def _reduce_tables(self) -> tuple:
        """Byte tables for GF(2^n): entry v of table c is v * z^(n+8c) mod modulus."""
        n, mod_int = self.n, self._mod_int
        highs = []
        cur = mod_int ^ (1 << n)
        for _ in range(n - 1):
            highs.append(cur)
            cur <<= 1
            if cur >> n:
                cur ^= mod_int
        tables = []
        for c in range(0, n - 1, 8):
            bits = highs[c : c + 8]
            table = [0] * (1 << len(bits))
            for v in range(1, len(table)):
                low = v & -v
                table[v] = table[v ^ low] ^ bits[low.bit_length() - 1]
            tables.append(table)
        return tuple(tables)

    @functools.cached_property
    def _colmasks(self) -> tuple:
        """GF(2^n) Frobenius columns: bit i of _colmasks[k][j] is P(k)[i, j]."""
        return tuple(
            tuple(int(sum(1 << i for i in range(self.n) if mat[i, j])) for j in range(self.n))
            for mat in self.frobenius_matrices
        )

    @functools.cached_property
    def _coord_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Digit rows, reduction matrix and digit weights for _mul_coords.

        An element is laid out as n groups of 2r-1 slots, the r base-p
        digits of each coordinate then r-1 zeros, so the integer convolution
        of two layouts holds the coefficient of w^j z^i of the unreduced
        product at slot i*(2r-1)+j, w being the F_q element p.  Row
        i*(2r-1)+j of the reduction matrix holds the base-p digits of
        w^j z^i in K.
        """
        p, r, n, base = self.p, self.r, self.n, self.base
        stride = 2 * r - 1
        scalar_digits = base.mul_matrices[:, 0].astype(np.int64)
        digits = np.zeros((self.q, stride), dtype=np.int64)
        digits[:, :r] = scalar_digits
        rows = []
        for i in range(2 * n - 1):
            z_i = self.tensor[min(i, n - 1), i - min(i, n - 1)]
            for j in range(stride):
                rows.append(scalar_digits[base.mul_table[base.pow(p, j), z_i]].ravel())
        weights = np.array([p**j for j in range(r)], dtype=np.int64)
        return digits, np.array(rows, dtype=np.int64), weights

    def descriptor(self) -> str:
        """Canonical one-line field descriptor."""
        return "F %d %d %d %s" % (
            self.p,
            self.r,
            self.n,
            " ".join(str(c) for c in self.modulus),
        )

    # -- coordinate packing ------------------------------------------------

    def coords(self, a: int) -> tuple:
        """Base-q digit vector of a, low position first."""
        return tuple((a // self._qpows[i]) % self.q for i in range(self.n))

    def from_coords(self, vec) -> int:
        return sum(int(c) % self.q * self._qpows[i] for i, c in enumerate(vec))

    def coords_array(self, elems) -> np.ndarray:
        """Coordinate matrix, one row per packed element."""
        arr = np.asarray(elems, dtype=np.uint64)
        if self._fast2 and self.n <= 64:
            shifts = np.arange(self.n, dtype=np.uint64)
            return ((arr[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        return np.array([self.coords(int(a)) for a in arr], dtype=np.uint8)

    def pack_array(self, coord_rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(coord_rows, dtype=np.uint64)
        if self._fast2 and self.n <= 64:
            shifts = np.arange(self.n, dtype=np.uint64)
            return (rows << shifts[None, :]).sum(axis=1, dtype=np.uint64)
        return np.array([self.from_coords(r) for r in rows], dtype=np.uint64)

    # -- element arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        bt = self.base.add_table
        return self.from_coords(
            [int(bt[x, y]) for x, y in zip(self.coords(a), self.coords(b))]
        )

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        nt = self.base.neg_table
        return self.from_coords([int(nt[x]) for x in self.coords(a)])

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul(a, b)

    def pow(self, a: int, e: int) -> int:
        if self.backend == "log":
            if a == 0:
                if e < 0:
                    raise ZeroDivisionError("0 has no inverse")
                return 0 if e else 1
            exp, log = self._log_tables
            return exp[log[a] * e % (self.order - 1)]
        if e < 0:
            return self.pow(self.inv(a), -e)
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv(a)

    def frob(self, a: int, k: int) -> int:
        """a^(q^k), the k-th power of the Frobenius map."""
        return self._frob(a, k % self.n)

    # log/antilog backend, q^n <= TABLE_MAX_ORDER

    def _mul_log(self, a: int, b: int) -> int:
        if a and b:
            exp, log = self._log_tables
            return exp[log[a] + log[b]]
        return 0

    def _inv_log(self, a: int) -> int:
        exp, log = self._log_tables
        return exp[self.order - 1 - log[a]]

    def _frob_log(self, a: int, k: int) -> int:
        if a:
            exp, log = self._log_tables
            return exp[log[a] * self._qpows[k] % (self.order - 1)]
        return 0

    # GF(2^n) backend above the table threshold

    def _mul_clmul(self, a: int, b: int) -> int:
        """Carry-less product over a 4-bit window of b, then byte-table reduction."""
        a2, a4, a8 = a << 1, a << 2, a << 3
        a3, a12 = a2 ^ a, a8 ^ a4
        window = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
                  a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
        res, shift = 0, 0
        while b:
            res ^= window[b & 15] << shift
            b >>= 4
            shift += 4
        high = res >> self.n
        if high:
            res &= self._qpows[self.n] - 1
            for table in self._reduce_tables:
                res ^= table[high & 255]
                high >>= 8
        return res

    def _inv_euclid(self, a: int) -> int:
        """Binary extended Euclid in F_2[z]: g1*a = u and g2*a = v mod the modulus."""
        u, v, g1, g2 = a, self._mod_int, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def _frob_masks(self, a: int, k: int) -> int:
        masks = self._colmasks[k]
        return sum(((a & masks[j]).bit_count() & 1) << j for j in range(self.n))

    # coordinate backend, q > 2 above the table threshold

    def _mul_coords(self, a: int, b: int) -> int:
        """Integer convolution of base-p digit vectors, reduced by one matrix mod p."""
        digits, reduction, weights = self._coord_tables
        da = digits[np.array(self.coords(a))].ravel()
        db = digits[np.array(self.coords(b))].ravel()
        out = np.convolve(da, db)[: len(reduction)] @ reduction % self.p
        return self.from_coords(out.reshape(self.n, self.r) @ weights)

    def _inv_fermat(self, a: int) -> int:
        return self.pow(a, self.order - 2)

    def _frob_matrix(self, a: int, k: int) -> int:
        vec = linalg.matvec(
            self.base, self.frobenius_matrices[k].T, np.array(self.coords(a), dtype=np.uint8)
        )
        return self.from_coords(vec)

    # -- batch helpers -----------------------------------------------------

    def mul_many(self, a_arr: np.ndarray, b_arr: np.ndarray) -> np.ndarray:
        """Pairwise products of two packed-element arrays."""
        a_arr = np.asarray(a_arr, dtype=np.uint64)
        b_arr = np.asarray(b_arr, dtype=np.uint64)
        if self.r == 1:
            ca = self.coords_array(a_arr).astype(np.float64)
            cb = self.coords_array(b_arr).astype(np.float64)
            t = self.tensor.reshape(self.n * self.n, self.n).astype(np.float64)
            outer = np.einsum("ai,aj->aij", ca, cb).reshape(len(ca), -1)
            ck = (np.rint(outer @ t).astype(np.int64) % self.p).astype(np.uint8)
            return self.pack_array(ck)
        return np.array(
            [self.mul(int(a), int(b)) for a, b in zip(a_arr, b_arr)], dtype=np.uint64
        )

    def random(self, rng: random.Random) -> int:
        return rng.randrange(self.order)

    def random_nonzero(self, rng: random.Random) -> int:
        return rng.randrange(1, self.order)

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return "ExtensionField(q=%d, n=%d)" % (self.q, self.n)


@functools.lru_cache(maxsize=64)
def _cached_extension(q: int, n: int, modulus: tuple | None) -> ExtensionField:
    base = base_field(q)
    if modulus is None:
        modulus = _least_irreducible(base, n)
    return ExtensionField(base, n, modulus)


def build_extension(q: int, n: int, modulus=None) -> ExtensionField:
    """Construct (and cache) the tower F_q <= K with K of degree n.

    The modulus, when supplied, is a low-to-high coefficient sequence of a
    monic degree-n polynomial over F_q; it is checked for irreducibility.
    Without one, the lexicographically least monic irreducible is used.
    """
    prime_power_split(q)  # raises InvalidOrder for non prime powers
    if q > MAX_Q:
        raise InvalidOrder("base field order %d exceeds the supported %d" % (q, MAX_Q))
    if n < 2:
        raise InvalidDegree("extension degree must be >= 2, got %d" % n)
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise NotIrreducible("modulus must be monic of degree %d" % n)
        if any(not 0 <= c < q for c in modulus):
            raise NotIrreducible("modulus coefficients must lie in 0..%d" % (q - 1))
        base = base_field(q)
        if any(upoly.eval_poly(base, list(modulus), a) == 0 for a in range(q)) or (
            not _is_irreducible(base, list(modulus))
        ):
            raise NotIrreducible("supplied modulus is reducible over F_%d" % q)
    return _cached_extension(q, n, modulus)


def parse_descriptor(line: str) -> ExtensionField:
    """Rebuild a field from its canonical descriptor line."""
    parts = line.split()
    if len(parts) < 5 or parts[0] != "F":
        raise ValueError("malformed field descriptor: %r" % line)
    p, r, n = int(parts[1]), int(parts[2]), int(parts[3])
    coeffs = tuple(int(c) for c in parts[4:])
    if len(coeffs) != n + 1:
        raise ValueError("field descriptor modulus has wrong length")
    return build_extension(p**r, n, coeffs)
