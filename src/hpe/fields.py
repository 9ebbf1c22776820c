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
backends, chosen at construction from the field size.  So does scale(a, bs),
a times every element of a list, which polynomial arithmetic (upoly) calls
once per polynomial product so that what a product needs of a is made once:

- "log", when q^n <= TABLE_MAX_ORDER (2^20), for every q: exp/log tables
  over a primitive element, so mul, inv, pow (negative exponents too) and
  frob are one or two lookups, and scale looks up log a once.  The tables
  are array('I'), 12 bytes per element, built on the first multiply; fields
  that are only used for public-key work (keygen, encrypt, verify) never
  build them.
- "clmul", GF(2^n) above the threshold: carry-less multiply over a 4-bit
  window of a, built once per scale, with byte tables (gf2.int_tables) that
  reduce the overflow, binary extended Euclid for inv, and per-k column
  masks for frob.
- "coords", q > 2 above the threshold: scale is one mul_many of the whole
  list and mul a scale of one, inv is a^(q^n - 2), and frob goes through P(k).

Addition and subtraction are chosen once too: XOR at p = 2, digitwise
through the base tables at odd p.

mul_many, the one coordinate multiply, takes the F_q products of two
elements' coordinates times T.  coords_array and pack_array convert between
packed elements and coordinate rows, vectorized up to q^n = 2^64.

Root finding in K (upoly.roots) builds a Frobenius map of K[X]/(g) once
per call, the same way on every backend.  In characteristic 2 a packed
element is its own F_2 row of n*r bits, so the map squares packed integer
rows with no multiply in K; at odd p it is h -> h^q, one F_q matrix built
from P(1) and T, applied to coordinate rows.

Moduli default to the lexicographically least monic irreducible of the right
degree, least meaning smallest integer encoding sum(c_i * q^i) + q^deg; the
scan uses the definitive distinct-degree test, not a probabilistic one.
A supplied modulus (a private key's field line) gets the same test once per
process: the check runs inside a cached builder, so a second key over the
same field skips it, and a reducible modulus, never cached, raises each time.
A process holds one field per modulus: the default modulus and the same one
spelled out give the same ExtensionField.
"""

from __future__ import annotations

import functools
import operator
import random
import re
from array import array

import numpy as np

from .errors import InvalidDegree, InvalidOrder, NotIrreducible
from .mvpoly import gf2, linalg, upoly

MAX_Q = 256
TABLE_MAX_ORDER = 1 << 20  # largest K served by log/antilog tables
_DECIMAL = "0|[1-9][0-9]*"
# tokens joined by commas, each followed by one; a token that holds a comma
# passes here, but int() refuses it
_DECIMALS = re.compile("(?:(?:%s),)*" % _DECIMAL)


def parse_decimal(tok: str) -> int:
    """The value of a canonical decimal token: ASCII digits with no leading
    zero but in '0'.  Anything else raises ValueError; int() would also
    read a sign, '_', non-ASCII digits and zero padding, none of which
    writes back as the token that was read."""
    return parse_decimals([tok])[0]


def parse_decimals(toks: list[str]) -> list[int]:
    """The values of canonical decimal tokens, as parse_decimal reads each,
    checked by one match over all of them."""
    if not _DECIMALS.fullmatch(",".join([*toks, ""])):
        bad = next(tok for tok in toks if not re.fullmatch(_DECIMAL, tok))
        raise ValueError("not a canonical decimal: %r" % bad)
    return list(map(int, toks))


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
        # before the split, whose trial division takes sqrt(q) steps
        if q > MAX_Q:
            raise InvalidOrder("base field order %d exceeds the supported %d" % (q, MAX_Q))
        p, r = prime_power_split(q)
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

    def scale(self, a: int, coeffs) -> list:
        """[a * b for b in coeffs]."""
        row = self.mul_table[a].tolist()
        return [row[b] for b in coeffs]

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


@functools.lru_cache(maxsize=64)
def _least_irreducible(base: BaseField, n: int) -> tuple:
    """Least monic irreducible of degree n over F_q, ascending integer scan,
    run once per process."""
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
    packed addition is XOR, so the image is one gf2.step through the rows'
    tables; otherwise the digits are unpacked in blocks and multiplied through.
    """
    p = fp.p
    if p == 2:
        tables = gf2.tables(gf2.words(mat)).astype(packed.dtype)
        return gf2.step(packed[:, None], tables)[:, 0]
    weights = np.array([p**k for k in range(len(mat))], dtype=np.int64)
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
        self._build_tables()
        if self.order <= TABLE_MAX_ORDER:
            self.backend = "log"
            self._mul, self._scale = self._mul_log, self._scale_log
            self._inv, self._frob = self._inv_log, self._frob_log
        elif self.q == 2:
            self.backend = "clmul"
            self._mod_int = sum(c << i for i, c in enumerate(self.modulus))
            self._mul, self._scale = self._mul_clmul, self._scale_clmul
            self._inv, self._frob = self._inv_euclid, self._frob_masks
        else:
            self.backend = "coords"
            self._mul, self._scale = self._mul_coords, self._scale_coords
            self._inv, self._frob = self._inv_fermat, self._frob_matrix
        # packed addition is XOR in characteristic 2, digitwise at odd p
        if self.p == 2:
            self.add = self.sub = operator.xor
        else:
            self.add = functools.partial(self._digitwise, base.add_table)
            self.sub = functools.partial(self._digitwise, base.sub_table)

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
        weights = p ** np.arange(width, dtype=np.uint64)
        for g in range(self.q, self.order):
            prods = self.mul_many(weights, np.full(width, g, dtype=np.uint64))
            mat = (prods[:, None] // weights % p).astype(np.uint8)
            if all(not np.array_equal(_matpow(fp, mat, m // f), eye) for f in factors):
                return mat
        raise NotIrreducible("K* has no generator, so the modulus is reducible")

    @functools.cached_property
    def _reduce_tables(self) -> tuple:
        """gf2.int_tables for GF(2^n): entry v of table c is v * z^(n+8c) mod modulus."""
        n, mod_int = self.n, self._mod_int
        highs = []
        cur = mod_int ^ (1 << n)
        for _ in range(n - 1):
            highs.append(cur)
            cur <<= 1
            if cur >> n:
                cur ^= mod_int
        return tuple(gf2.int_tables(highs, 8))

    @functools.cached_property
    def _colmasks(self) -> tuple:
        """GF(2^n) Frobenius columns: bit i of _colmasks[k][j] is P(k)[i, j],
        all packed by one gf2.words over the stacked, transposed P(k)."""
        n = self.n
        cols = gf2.words(np.stack(self.frobenius_matrices).transpose(0, 2, 1))
        masks = gf2.ints(cols.reshape(-1, cols.shape[-1]))
        return tuple(tuple(masks[k:k + n]) for k in range(0, len(masks), n))

    @functools.cached_property
    def _tensor_operand(self) -> np.ndarray:
        """The linalg operand of the (n*n, n) multiplication tensor."""
        return linalg.operand(self.base, self.tensor.reshape(self.n * self.n, self.n))

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
        if self.order > 1 << 64:
            return np.array([self.coords(int(a)) for a in elems], dtype=np.uint8).reshape(-1, self.n)
        arr = np.asarray(elems, dtype=np.uint64).reshape(-1, 1)
        return (arr // self._weights % self.q).astype(np.uint8)

    def pack_array(self, coord_rows: np.ndarray) -> np.ndarray:
        """Packed elements of coordinate rows; Python ints (dtype object)
        when q^n exceeds 2^64."""
        rows = np.asarray(coord_rows, dtype=np.uint64)
        if self.order > 1 << 64:
            return np.array([self.from_coords(r) for r in rows], dtype=object)
        return (rows * self._weights).sum(axis=1, dtype=np.uint64)

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        """q^i for each coordinate i, as uint64; only for q^n <= 2^64."""
        return np.array(self._qpows[: self.n], dtype=np.uint64)

    # -- element arithmetic ------------------------------------------------

    # add(a, b) and sub(a, b) are set in __init__: XOR at p = 2, else _digitwise

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def _digitwise(self, table, a: int, b: int) -> int:
        """The element whose digit i is table[a_i, b_i]: add or sub at odd p."""
        return self.from_coords(
            [int(table[x, y]) for x, y in zip(self.coords(a), self.coords(b))]
        )

    def mul(self, a: int, b: int) -> int:
        return self._mul(a, b)

    def scale(self, a: int, coeffs) -> list:
        """[a * b for b in coeffs], one call for a whole coefficient list."""
        return self._scale(a, coeffs)

    # square and multiply through self.mul and self.inv, on every backend
    pow = BaseField.pow

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

    def _scale_log(self, a: int, coeffs) -> list:
        if not a:
            return [0] * len(coeffs)
        exp, log = self._log_tables
        la = log[a]
        return [exp[la + log[b]] if b else 0 for b in coeffs]

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
        return self._scale_clmul(a, (b,))[0]

    def _scale_clmul(self, a: int, coeffs) -> list:
        """Carry-less products over one 4-bit window of a, each reduced
        through the byte tables."""
        a2, a4, a8 = a << 1, a << 2, a << 3
        a3, a12 = a2 ^ a, a8 ^ a4
        window = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
                  a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
        n, low, tables = self.n, self._qpows[self.n] - 1, self._reduce_tables
        out = []
        for b in coeffs:
            res, shift = 0, 0
            while b:
                res ^= window[b & 15] << shift
                b >>= 4
                shift += 4
            high = res >> n
            if high:
                res &= low
                for table in tables:
                    res ^= table[high & 255]
                    high >>= 8
            out.append(res)
        return out

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
        return self._scale_coords(a, [b])[0]

    def _scale_coords(self, a: int, coeffs) -> list:
        return self.mul_many([a] * len(coeffs), coeffs).tolist()

    def _inv_fermat(self, a: int) -> int:
        return self.pow(a, self.order - 2)

    def _frob_matrix(self, a: int, k: int) -> int:
        vec = linalg.matvec(
            self.base, self.frobenius_matrices[k].T, np.array(self.coords(a), dtype=np.uint8)
        )
        return self.from_coords(vec)

    # -- batch helpers -----------------------------------------------------

    def mul_many(self, a_arr, b_arr) -> np.ndarray:
        """Pairwise products of two packed-element arrays: the F_q products
        a_i b_j of their coordinates times the multiplication tensor."""
        ca, cb = self.coords_array(a_arr), self.coords_array(b_arr)
        pairs = self.base.mul_table[ca[:, :, None], cb[:, None, :]]
        pairs = pairs.reshape(len(ca), self.n * self.n)
        return self.pack_array(linalg.times(self.base, pairs, self._tensor_operand))

    def random(self, rng: random.Random) -> int:
        return rng.randrange(self.order)

    def random_nonzero(self, rng: random.Random) -> int:
        return rng.randrange(1, self.order)

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return "ExtensionField(q=%d, n=%d)" % (self.q, self.n)


@functools.lru_cache(maxsize=64)
def _extension(q: int, n: int, modulus: tuple) -> ExtensionField:
    """The one tower over modulus in the process, whether the modulus was
    the default or spelled out."""
    return ExtensionField(base_field(q), n, modulus)


@functools.lru_cache(maxsize=64)
def _checked_extension(q: int, n: int, modulus: tuple) -> ExtensionField:
    """The tower over a supplied modulus, tested for irreducibility here, so
    each one is tested once per process; lru_cache keeps no exception, so a
    reducible one raises on every call."""
    base = base_field(q)
    if any(upoly.eval_poly(base, list(modulus), a) == 0 for a in range(q)) or (
        not _is_irreducible(base, list(modulus))
    ):
        raise NotIrreducible("supplied modulus is reducible over F_%d" % q)
    return _extension(q, n, modulus)


def build_extension(q: int, n: int, modulus=None) -> ExtensionField:
    """Construct (and cache) the tower F_q <= K with K of degree n.

    The modulus, when supplied, is a low-to-high coefficient sequence of a
    monic degree-n polynomial over F_q; it is checked for irreducibility
    on its first use in the process.  Without one, the lexicographically
    least monic irreducible is used, and the field is the one that the
    same modulus spelled out gives.
    """
    base = base_field(q)  # raises InvalidOrder for unsupported orders
    if n < 2:
        raise InvalidDegree("extension degree must be >= 2, got %d" % n)
    if modulus is None:
        return _extension(q, n, _least_irreducible(base, n))
    modulus = tuple(int(c) for c in modulus)
    if len(modulus) != n + 1 or modulus[-1] != 1:
        raise NotIrreducible("modulus must be monic of degree %d" % n)
    if any(not 0 <= c < q for c in modulus):
        raise NotIrreducible("modulus coefficients must lie in 0..%d" % (q - 1))
    return _checked_extension(q, n, modulus)


def parse_descriptor(line: str) -> ExtensionField:
    """Rebuild a field from its canonical descriptor line."""
    parts = line.split()
    if len(parts) < 5 or parts[0] != "F":
        raise ValueError("malformed field descriptor: %r" % line)
    p, r, n = (parse_decimal(tok) for tok in parts[1:4])
    # before p**r, which a huge r would make a huge integer
    if p > MAX_Q or not 1 <= r <= 8:
        raise InvalidOrder("base field p^r with p=%d, r=%d is outside the "
                           "supported p <= %d, 1 <= r <= 8" % (p, r, MAX_Q))
    if prime_power_split(p) != (p, 1):
        raise InvalidOrder("field descriptor p=%d is not a prime" % p)
    coeffs = tuple(parse_decimals(parts[4:]))
    if len(coeffs) != n + 1:
        raise ValueError("field descriptor modulus has wrong length")
    return build_extension(p**r, n, coeffs)
