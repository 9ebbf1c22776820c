"""Key material: private polynomial, affine masks, and the public key.

The public key is n equations in (x, y), each linear in y.  All their
terms sit in one flat table sorted by (equation, y, x part).  A term is a
slot eq * (n + 1) + y + 1 (y = -1 for a term with no y factor), a uint8
coefficient, and an x part: a uint64 bitmask over the n x-variables when
q = 2 (every coefficient is then 1), otherwise a row of n exponents
already reduced by x^q = x.

One kernel evaluates the table.  At each x of a batch it computes every
term's value with the x part (a mask test for q = 2, power_table and
mul_table gathers otherwise) and sums the values into their slots over
F_q, giving each equation as a row over (1, y_0..y_{n-1}).  The linear
system for encryption, the values at (x, y) and the batch zero test of
exhaustive search are all those rows times (1, y).
"""

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, VariableMismatch
from ..mvpoly.linalg import (inverse, matvec, random_invertible,
                             segment_sums)
from ..mvpoly.multipoly import MultiPoly

# q = 2 x parts are uint64 bitmasks, and linearize.merge_q2 packs a term's
# slot above its mask in one uint64, so q = 2 keys stop at 48 variables.
MAX_MASK_VARS = 48


def x_part(q: int, n: int, exps) -> np.ndarray:
    """x parts of terms from their (T, n) x-exponent rows."""
    if q == 2:
        bits = np.asarray(exps, dtype=np.uint64) << np.arange(n, dtype=np.uint64)
        return np.bitwise_or.reduce(bits, axis=1)
    return np.asarray(exps, dtype=np.uint8)


def merge_terms(base, slot, coeff, xpart) -> tuple:
    """The canonical table of unordered terms: sorted by (slot, x part),
    terms with the same slot and x part added over F_q, zero sums dropped."""
    xpart = np.asarray(xpart)
    order = np.lexsort((*np.atleast_2d(xpart.T)[::-1], slot))
    slot, coeff, xpart = np.asarray(slot)[order], np.asarray(coeff)[order], xpart[order]
    cols = np.atleast_2d(xpart.T)  # one row per x-part column
    new = np.ones(len(slot), dtype=bool)
    new[1:] = (slot[1:] != slot[:-1]) | (cols[:, 1:] != cols[:, :-1]).any(axis=0)
    first = np.nonzero(new)[0]
    sums = segment_sums(base, coeff, first)
    return slot[first[sums != 0]], sums[sums != 0], xpart[first[sums != 0]]


@dataclass(frozen=True)
class KeyGenParams:
    """Knobs for key generation.

    q is the scalar field order, n the extension degree (and message
    length in scalars), t_max the largest allowed monomial weight,
    degX_max the largest allowed power of X inside the hidden equation,
    and n_monomials the number of mixed X/Y monomials to sample.
    """

    q: int = 2
    n: int = 16
    t_max: int = 3
    degX_max: int = 9
    n_monomials: int = 3
    seed: int | None = None

    def check(self) -> None:
        if self.n < 2:
            raise VariableMismatch("extension degree must be at least 2")
        if self.t_max < 2:
            raise VariableMismatch("t_max must be at least 2")
        if not 2 <= self.degX_max <= 64:
            raise VariableMismatch("degX_max must lie in [2, 64]")
        if self.n_monomials < 1:
            raise VariableMismatch("need at least one mixed monomial")
        if self.q == 2 and self.n > MAX_MASK_VARS:
            raise VariableMismatch(
                "q=2 keys support at most %d variables" % MAX_MASK_VARS)


@dataclass(frozen=True)
class PrivatePolynomial:
    """The hidden bivariate relation f(X, Y) over the big field.

    mixed holds (coeff, x_thetas, y_theta) triples standing for
    a * X^(sum q^theta) * Y^(q^y_theta); pure holds (coeff, x_thetas)
    pairs with no Y factor; const is the constant coefficient.
    Exponents of X are carried as sorted tuples of Frobenius levels.
    """

    mixed: tuple = ()
    pure: tuple = ()
    const: int = 0

    def t(self) -> int:
        """Largest total weight (number of q-power factors) of any term."""
        best = 0
        for _, xth, _ in self.mixed:
            best = max(best, len(xth) + 1)
        for _, xth in self.pure:
            best = max(best, len(xth))
        return best

    def x_exponent(self, q: int, thetas: tuple) -> int:
        return sum(q**t for t in thetas)

    def deg_x(self, q: int) -> int:
        degs = [self.x_exponent(q, xth) for _, xth, _ in self.mixed]
        degs += [self.x_exponent(q, xth) for _, xth in self.pure]
        return max(degs, default=0)

    def univariate_in_x(self, field, v: int) -> list:
        """Coefficients of g(X) = f(X, v), low to high, over the big field."""
        q = field.base.q
        bucket: dict[int, int] = {}

        def put(e: int, c: int) -> None:
            s = field.add(bucket.get(e, 0), c)
            if s:
                bucket[e] = s
            else:
                bucket.pop(e, None)

        for a, xth, yth in self.mixed:
            put(self.x_exponent(q, xth), field.mul(a, field.frob(v, yth)))
        for b, xth in self.pure:
            put(self.x_exponent(q, xth), b)
        if self.const:
            put(0, self.const)
        if not bucket:
            return []
        out = [0] * (max(bucket) + 1)
        for e, c in bucket.items():
            out[e] = c
        return out

    def eval(self, field, u: int, v: int) -> int:
        q = field.base.q
        acc = self.const
        for a, xth, yth in self.mixed:
            term = field.mul(a, field.pow(u, self.x_exponent(q, xth)))
            acc = field.add(acc, field.mul(term, field.frob(v, yth)))
        for b, xth in self.pure:
            acc = field.add(acc, field.mul(b, field.pow(u, self.x_exponent(q, xth))))
        return acc

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
                    coeff = int(parts[1])
                    xth = tuple(int(s) for s in parts[2:sep])
                    mixed.append((coeff, xth, int(parts[sep + 1])))
                elif parts[0] == "PUREX":
                    pure.append((int(parts[1]), tuple(int(s) for s in parts[2:])))
                elif parts[0] == "CONST":
                    const = int(parts[1])
                else:
                    raise FormatError("unknown private term line: %r" % line)
            except (ValueError, IndexError) as exc:
                raise FormatError("bad private term line: %r" % line) from exc
        return cls(tuple(mixed), tuple(pure), const)


class AffinePair:
    """The two invertible affine masks u = A x + c and v = B y + d.

    Matrices and shifts live coordinatewise over the scalar field;
    inverses are computed once up front so decryption stays cheap.
    """

    def __init__(self, base, a_mat, c_vec, b_mat, d_vec):
        self.base = base
        self.a_mat = np.ascontiguousarray(a_mat, dtype=np.uint8)
        self.c_vec = np.ascontiguousarray(c_vec, dtype=np.uint8)
        self.b_mat = np.ascontiguousarray(b_mat, dtype=np.uint8)
        self.d_vec = np.ascontiguousarray(d_vec, dtype=np.uint8)
        self.a_inv = inverse(base, self.a_mat)
        self.b_inv = inverse(base, self.b_mat)

    @classmethod
    def sample(cls, base, n: int, rng) -> "AffinePair":
        a_mat = random_invertible(base, n, rng)
        b_mat = random_invertible(base, n, rng)
        c_vec = np.array([rng.randrange(base.q) for _ in range(n)], dtype=np.uint8)
        d_vec = np.array([rng.randrange(base.q) for _ in range(n)], dtype=np.uint8)
        return cls(base, a_mat, c_vec, b_mat, d_vec)

    def map_x(self, x_vec: np.ndarray) -> np.ndarray:
        u = matvec(self.base, self.a_mat, x_vec)
        return self.base.add_table[u, self.c_vec]

    def unmap_u(self, u_vec: np.ndarray) -> np.ndarray:
        shifted = self.base.sub_table[np.asarray(u_vec, dtype=np.uint8), self.c_vec]
        return matvec(self.base, self.a_inv, shifted)

    def map_y(self, y_vec: np.ndarray) -> np.ndarray:
        v = matvec(self.base, self.b_mat, y_vec)
        return self.base.add_table[v, self.d_vec]

    def unmap_v(self, v_vec: np.ndarray) -> np.ndarray:
        shifted = self.base.sub_table[np.asarray(v_vec, dtype=np.uint8), self.d_vec]
        return matvec(self.base, self.b_inv, shifted)


class PublicKey:
    """Public encryption key: the flat term table plus the message alphabet.

    slot, coeff and xpart run in parallel over the terms of all n
    equations, sorted by (slot, x part); bounds[k]:bounds[k + 1] is the
    range of equation k.  See the module docstring for the layout.
    """

    def __init__(self, base, n: int, t: int, slot, coeff, xpart, alphabet):
        self.base = base
        self.q = base.q
        self.n = n
        self.t = t
        self.slot = np.ascontiguousarray(slot, dtype=np.int64)
        self.coeff = np.ascontiguousarray(coeff, dtype=np.uint8)
        self.xpart = np.ascontiguousarray(xpart)
        self.alphabet = alphabet
        if not len(self.slot) == len(self.coeff) == len(self.xpart):
            raise VariableMismatch("term table columns differ in length")
        self.bounds = np.searchsorted(self.slot, np.arange(n + 1) * (n + 1))
        self._starts = np.flatnonzero(np.diff(self.slot, prepend=-1))

    def term_count(self) -> int:
        return len(self.slot)

    def _x_exponents(self, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, n) x-exponent rows of terms lo..hi-1."""
        part = self.xpart[lo:hi]
        if self.q == 2:
            octets = part.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
            return np.unpackbits(octets, axis=1, bitorder="little")[:, : self.n]
        return part

    def equation_terms(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and (T, 2n) exponent rows, x then y, of equation k."""
        lo, hi = self.bounds[k], self.bounds[k + 1]
        exps = np.zeros((hi - lo, 2 * self.n), dtype=np.uint8)
        exps[:, : self.n] = self._x_exponents(lo, hi)
        y = self.slot[lo:hi] - k * (self.n + 1) - 1
        has_y = np.nonzero(y >= 0)[0]
        exps[has_y, self.n + y[has_y]] = 1
        return self.coeff[lo:hi], exps

    def equations(self) -> list:
        """The equations as 2n-variable MultiPolys (a bridge for oracles)."""
        out = []
        for k in range(self.n):
            coeffs, exps = self.equation_terms(k)
            terms = dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))
            out.append(MultiPoly(self.base, 2 * self.n, terms))
        return out

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        """The kernel: every equation collapsed at each x of an (m, n)
        batch, as (m, n, n + 1) rows over (1, y_0..y_{n-1})."""
        m, n = xs.shape
        if self.q == 2:
            # all coefficients are 1; a monomial is 1 iff its mask is in x
            vals = (self.xpart & x_part(2, n, xs)[:, None]) == self.xpart
        else:
            # products index mul_table flat at a * q + b; holding every
            # value times q makes each factor one add and one take
            pt, q = self.base.power_table(), self.q
            scaled = self.base.mul_table.ravel().astype(np.intp) * q
            vals = np.broadcast_to(self.coeff * np.intp(q), (m, len(self.coeff)))
            for i in range(n):
                factor = np.take(pt[xs[:, i]], self.xpart[:, i], axis=1)
                vals = scaled.take(vals + factor)
            vals = vals // q
        rows = np.zeros((m, n * (n + 1)), dtype=np.uint8)
        rows[:, self.slot[self._starts]] = segment_sums(self.base, vals, self._starts)
        return rows.reshape(m, n, n + 1)

    def linear_system(self, x_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(matrix, rhs) of the system the ciphertext x imposes on y."""
        rows = self._rows(np.asarray(x_vec, dtype=np.uint8).reshape(1, self.n))[0]
        return rows[:, 1:], self.base.neg_table[rows[:, 0]]

    def eval_at(self, x_vec: np.ndarray, y_vec: np.ndarray) -> np.ndarray:
        """The n equation values at (x, y), rows . (1, y); an (m, n) batch
        of x gives (m, n) values."""
        x = np.asarray(x_vec, dtype=np.uint8)
        rows = self._rows(x.reshape(-1, self.n)).reshape(-1, self.n + 1)
        one_y = np.insert(np.asarray(y_vec, dtype=np.uint8), 0, 1)
        vals = matvec(self.base, rows, one_y)
        return vals.reshape(x.shape[:-1] + (self.n,))

    def shape_violations(self) -> list:
        """Structural defects, empty for a well-formed key."""
        n, slots = self.n, self.slot[self._starts]
        has_y = np.bincount(slots // (n + 1), slots % (n + 1) > 0, minlength=n)
        if self.q == 2:
            degs = np.bitwise_count(self.xpart)
        else:
            degs = self.xpart.sum(axis=1, dtype=np.int64)
        filled = self.bounds[:-1] < self.bounds[1:]  # an empty equation has degree 0
        deg = np.zeros(n, dtype=np.int64)
        deg[filled] = np.maximum.reduceat(degs, self.bounds[:-1][filled])
        out = []
        for k in range(n):
            if not has_y[k]:
                out.append("equation %d has no y variable" % k)
            if deg[k] < 2:
                out.append("equation %d is linear in x" % k)
            if deg[k] > self.t:
                out.append("equation %d exceeds x-degree %d" % (k, self.t))
        return out


class PrivateKey:
    """Private key: the field tower, hidden relation, and affine masks.

    Keeps the matching public key alongside so a holder can re-derive
    and cross-check the published equations.
    """

    def __init__(self, field, priv: PrivatePolynomial, affine: AffinePair,
                 public: PublicKey):
        self.field = field
        self.priv = priv
        self.affine = affine
        self.public = public

    @property
    def base(self):
        return self.field.base

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def alphabet(self):
        return self.public.alphabet
