"""Key material: private polynomial, affine masks, and the public key.

The public key is n equations in (x, y), each linear in y, held as two
coefficient blocks over F_q: C0 (n, M0) for the terms with no y, and
Cy (n, n, My) for the terms of equation k with y_j.  Each block has its own
monomial table (mono0, monoy): the x monomials that occur in it, as rows of
n exponents reduced by x^q = x, in HPE1 term order (monomial_basis).  The
nonzero entries of C0[k] and then Cy[k] are equation k's terms in file order.

One kernel evaluates the key.  At each x of a batch it computes the value
of every monomial (at most t mul_table gathers over the homogenized
(x, 1)) and multiplies the values by C0 and Cy, giving each equation as a
row over (1, y_0..y_{n-1}).  The linear system for encryption, the values
at (x, y) and the batch zero test of exhaustive search are all those rows
times (1, y).
"""

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, VariableMismatch
from ..mvpoly import linalg
from ..mvpoly.linalg import inverse, matvec, random_invertible
from ..mvpoly.multipoly import MultiPoly


def monomial_basis(q: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """(table, index): the distinct x-exponent rows in HPE1 term order, and
    the position in the table of each given row.

    The order compares exponent rows lexicographically, x_0 first; for
    q = 2 it starts at x_{n-1}, the order of the bitmasks the format was
    first written from.  Rows pack into base-q uint64 keys, one per run of
    digits that fits, most significant first, so one lexsort orders them.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    digits = rows[:, ::-1] if q == 2 else rows
    width = 1
    while q ** (width + 1) <= 1 << 64:
        width += 1
    keys = []
    for lo in range(0, digits.shape[1], width):
        key = np.zeros(len(rows), dtype=np.uint64)
        for col in digits[:, lo:lo + width].T:
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

    @classmethod
    def from_terms(cls, base, n: int, t: int, slot, coeff, x_rows,
                   alphabet) -> "PublicKey":
        """The key of a list of terms in any order: a slot k * (n + 1) + y + 1
        for equation k and y index y (-1 for none), a coefficient and an
        x-exponent row each.  Repeated terms add over F_q."""
        slot = np.asarray(slot, dtype=np.int64)
        coeff = np.asarray(coeff, dtype=np.uint8)
        x_rows = np.asarray(x_rows, dtype=np.uint8).reshape(len(slot), n)
        k, y = np.divmod(slot, n + 1)
        free = y == 0
        mono0, i0 = monomial_basis(base.q, x_rows[free])
        monoy, iy = monomial_basis(base.q, x_rows[~free])
        C0 = linalg.scatter_sums(
            base, [(k[free] * len(mono0) + i0, coeff[free])], n * len(mono0))
        cell = k[~free] * n + y[~free] - 1
        Cy = linalg.scatter_sums(
            base, [(cell * len(monoy) + iy, coeff[~free])], n * n * len(monoy))
        return cls(base, n, t, mono0, C0, monoy, Cy, alphabet)

    def term_count(self) -> int:
        return int(np.count_nonzero(self.C0) + np.count_nonzero(self.Cy))

    def equation_terms(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and (T, 2n) exponent rows, x then y, of equation k,
        in file order."""
        n = self.n
        (m0,) = np.nonzero(self.C0[k])
        ys, my = np.nonzero(self.Cy[k])
        exps = np.zeros((len(m0) + len(my), 2 * n), dtype=np.uint8)
        exps[: len(m0), :n] = self.mono0[m0]
        exps[len(m0):, :n] = self.monoy[my]
        exps[np.arange(len(m0), len(exps)), n + ys] = 1
        return np.concatenate([self.C0[k, m0], self.Cy[k, ys, my]]), exps

    def equations(self) -> list:
        """The equations as 2n-variable MultiPolys (a bridge for oracles)."""
        out = []
        for k in range(self.n):
            coeffs, exps = self.equation_terms(k)
            terms = dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))
            out.append(MultiPoly(self.base, 2 * self.n, terms))
        return out

    def _blocks(self) -> list:
        """Per block: its monomials as (degree, M) indices into the
        homogenized (x, 1), index n standing for the 1, and the float64
        right operand of its coefficients, built on first use."""
        if self._kernel is None:
            n = self.n
            self._kernel = []
            for mono, coeffs in ((self.mono0, self.C0),
                                 (self.monoy, self.Cy.reshape(n * n, -1))):
                # factor j of a monomial is the first variable whose
                # running exponent sum passes j, or n once they all stop
                ends = np.cumsum(mono, axis=1)
                degree = max(1, int(ends[:, -1].max(initial=0)))
                factors = np.array([(ends <= j).sum(axis=1) for j in range(degree)])
                self._kernel.append((factors, linalg.operand(self.base, coeffs.T)))
        return self._kernel

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        """The kernel: every equation collapsed at each x of an (m, n)
        batch, as (m, n, n + 1) rows over (1, y_0..y_{n-1})."""
        m, n = xs.shape
        mul = self.base.mul_table
        xh = np.concatenate([xs, np.ones((m, 1), dtype=np.uint8)], axis=1)
        out = []
        for factors, right in self._blocks():
            vals = xh[:, factors[0]]
            for idx in factors[1:]:
                vals = mul[vals, xh[:, idx]]
            out.append(linalg.times(self.base, vals, right))
        return np.concatenate([out[0][:, :, None], out[1].reshape(m, n, n)], axis=2)

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
        n = self.n
        has_y = self.Cy.any(axis=(1, 2))
        deg0 = np.where(self.C0 != 0, self.mono0.sum(axis=1), 0)
        degy = np.where(self.Cy != 0, self.monoy.sum(axis=1), 0)
        # an empty equation has degree 0
        deg = np.maximum(deg0.max(axis=1, initial=0), degy.max(axis=(1, 2), initial=0))
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
    """Private key: the field tower, hidden relation, affine masks and the
    message alphabet.

    Decryption and signing need only those.  The matching public key is
    expanded from them on first use of public, unless the constructor was
    given it (keygen has it at hand).
    """

    def __init__(self, field, priv: PrivatePolynomial, affine: AffinePair,
                 alphabet, public: PublicKey | None = None):
        self.field = field
        self.priv = priv
        self.affine = affine
        self.alphabet = alphabet
        self._public = public

    @property
    def public(self) -> PublicKey:
        if self._public is None:
            # serial imports this module; the expansion is looked up there
            # by name so that a wrapper installed on serial sees the call
            from . import serial
            self._public = serial.expand_keypair(
                self.field, self.priv, self.affine, self.alphabet)
        return self._public

    @property
    def base(self):
        return self.field.base

    @property
    def n(self) -> int:
        return self.field.n
