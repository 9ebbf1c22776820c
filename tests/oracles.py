"""Reference implementations the tests check the library against.

MultiPoly is a sparse multivariate polynomial over F_q, evaluated and
transformed term by term; the functions below view a public key through it,
evaluate its equations at x term by term (kernel_rows_oracle), and write the
term-line text of the retired HPE1 public format, whose digests pin the keys
keygen produces.  digit_product_oracle is the float64
product that key expansion ran at every q before characteristic 2 moved to
packed elements, rref_oracle the column loop that row reduction ran,
solve_oracle and encrypt_oracle the F_q route that encryption took before
characteristic 2 read y from one packed integer (with f2_expansion_oracle
and bits_oracle for that integer, entry by entry), colmasks_oracle the bit
loop that built the GF(2^n) Frobenius masks, and random_matrix_oracle the
one randrange call per entry that random matrices were drawn with.

The rest is what the tests need beside the library's own paths:
exhaustive_invert, every preimage of a ciphertext by search, the ground
truth for trapdoor decryption; the private side read the other way round,
map_x and unmap_v for the masks, private_eval for f(u, v) and
private_relation_check for both sides of the hidden relation at one point;
relation_value, a harvested bilinear relation at one (x, y) pair;
random_quadratic_public, the structureless control for relation harvesting;
and hex16, a 16-letter alphabet with strong per-block filtering.
"""

import numpy as np

from hpe.core import linearize
from hpe.core.alphabet import make_alphabet
from hpe.core.keys import PublicKey
from hpe.core.protocol import batch_zero_mask
from hpe.errors import SingularMatrix, TooLarge, VariableMismatch
from hpe.fields import build_extension
from hpe.imattack import _monomial_rows
from hpe.mvpoly import linalg, upoly


class MultiPoly:
    """A polynomial in nvars variables with coefficients in the base field.

    Terms live in a dict mapping exponent tuples (one slot per variable) to
    nonzero scalars.  Exponents are symbolic: x^q is not identified with x
    unless normalize_exponents is called, which applies the reduction that
    is valid for the function each polynomial computes on F_q points.
    """

    __slots__ = ("base", "nvars", "terms")

    def __init__(self, base, nvars: int, terms=None):
        self.base = base
        self.nvars = nvars
        clean: dict[tuple, int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise VariableMismatch(
                    "term has %d exponents, expected %d" % (len(exps), nvars)
                )
            coeff = int(coeff) % base.q
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, base, nvars: int) -> "MultiPoly":
        return cls(base, nvars, {})

    @classmethod
    def constant(cls, base, nvars: int, c: int) -> "MultiPoly":
        return cls(base, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, base, nvars: int, index: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(base, nvars, {tuple(exps): 1})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise VariableMismatch(
                "operands have %d and %d variables" % (self.nvars, other.nvars)
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        add = self.base.add
        for exps, coeff in other.terms.items():
            s = add(out.get(exps, 0), coeff)
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return MultiPoly(self.base, self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        neg = self.base.neg
        return MultiPoly(
            self.base, self.nvars, {e: neg(c) for e, c in self.terms.items()}
        )

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        out: dict[tuple, int] = {}
        add, mul = self.base.add, self.base.mul
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = add(out.get(key, 0), mul(c1, c2))
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return MultiPoly(self.base, self.nvars, out)

    __rmul__ = __mul__

    def scale(self, s: int) -> "MultiPoly":
        mul = self.base.mul
        return MultiPoly(
            self.base, self.nvars, {e: mul(c, s % self.base.q) for e, c in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, indices) -> int:
        """Largest combined exponent over the given variable indices."""
        if not self.terms:
            return -1
        idx = list(indices)
        return max(sum(e[i] for i in idx) for e in self.terms)

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        return sorted(self.terms.items())

    def eval(self, point) -> int:
        """Evaluate at a point given as a scalar sequence."""
        if len(point) != self.nvars:
            raise VariableMismatch("point has wrong length")
        base = self.base
        acc = 0
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(point, exps):
                if e:
                    val = base.mul(val, base.pow(int(x), e))
            acc = base.add(acc, val)
        return acc

    # -- structural transforms --------------------------------------------

    def normalize_exponents(self) -> "MultiPoly":
        """Reduce exponents by x^q = x, preserving the function on F_q points."""
        q = self.base.q
        add = self.base.add
        out: dict[tuple, int] = {}
        for exps, coeff in self.terms.items():
            key = tuple(0 if e == 0 else (e - 1) % (q - 1) + 1 for e in exps)
            s = add(out.get(key, 0), coeff)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return MultiPoly(self.base, self.nvars, out)

    def substitute_affine(self, m, c, block: tuple[int, int]) -> "MultiPoly":
        """Replace the variable block v with m @ v + c, m invertible.

        block is (start, size); variables outside the block pass through.
        """
        start, size = block
        if not (0 <= start and start + size <= self.nvars):
            raise VariableMismatch("block out of range")
        m = np.asarray(m, dtype=np.uint8)
        c = np.asarray(c, dtype=np.uint8).reshape(-1)
        if m.shape != (size, size) or c.shape != (size,):
            raise VariableMismatch("affine map has wrong shape for the block")
        if linalg.rank(self.base, m) != size:
            raise SingularMatrix("affine substitution requires an invertible matrix")
        forms = []
        for i in range(size):
            t: dict[tuple, int] = {}
            for j in range(size):
                if m[i, j]:
                    e = [0] * self.nvars
                    e[start + j] = 1
                    t[tuple(e)] = int(m[i, j])
            if c[i]:
                t[(0,) * self.nvars] = self.base.add(
                    t.get((0,) * self.nvars, 0), int(c[i])
                )
            forms.append(MultiPoly(self.base, self.nvars, t))
        pow_cache: dict[tuple[int, int], MultiPoly] = {}

        def form_power(i: int, e: int) -> MultiPoly:
            key = (i, e)
            if key not in pow_cache:
                if e == 1:
                    pow_cache[key] = forms[i]
                else:
                    pow_cache[key] = form_power(i, e - 1) * forms[i]
            return pow_cache[key]

        total = MultiPoly.zero(self.base, self.nvars)
        for exps, coeff in self.terms.items():
            piece_exps = list(exps)
            prod = None
            for i in range(size):
                e = exps[start + i]
                if e:
                    piece_exps[start + i] = 0
                    f = form_power(i, e)
                    prod = f if prod is None else prod * f
            mono = MultiPoly(self.base, self.nvars, {tuple(piece_exps): coeff})
            total = total + (mono if prod is None else mono * prod)
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = [
            "%d:%s" % (c, ",".join(str(e) for e in exps))
            for exps, c in self.sorted_terms()
        ]
        return "MultiPoly(%s)" % " + ".join(bits)


def equation_terms(pk, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and (T, 2n) exponent rows, x then y, of equation k of
    the public key pk: the nonzero entries of C0[k], then of Cy[k], so the
    x parts come in monomial_basis order within each block."""
    n = pk.n
    (m0,) = np.nonzero(pk.C0[k])
    ys, my = np.nonzero(pk.Cy[k])
    exps = np.zeros((len(m0) + len(my), 2 * n), dtype=np.uint8)
    exps[: len(m0), :n] = pk.mono0[m0]
    exps[len(m0):, :n] = pk.monoy[my]
    exps[np.arange(len(m0), len(exps)), n + ys] = 1
    return np.concatenate([pk.C0[k, m0], pk.Cy[k, ys, my]]), exps


def equations(pk) -> list:
    """The equations of the public key pk as 2n-variable MultiPolys."""
    out = []
    for k in range(pk.n):
        coeffs, exps = equation_terms(pk, k)
        terms = dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))
        out.append(MultiPoly(pk.base, 2 * pk.n, terms))
    return out


def kernel_rows_oracle(pk, xs):
    """What PublicKey._rows computes, term by term: entry [i, k, 0] is the
    sum of equation k's terms with no y at x = xs[i], entry [i, k, 1 + j]
    the sum of its terms in y_j with y_j = 1, each evaluated as a MultiPoly
    in the n x variables."""
    n = pk.n
    parts = [[{} for _ in range(n + 1)] for _ in range(n)]
    for k in range(n):
        coeffs, exps = equation_terms(pk, k)
        for coeff, e in zip(coeffs.tolist(), exps.tolist()):
            slot = 1 + e[n:].index(1) if any(e[n:]) else 0
            parts[k][slot][tuple(e[:n])] = coeff
    polys = [MultiPoly(pk.base, n, terms) for row in parts for terms in row]
    rows = [[poly.eval(x) for poly in polys] for x in np.asarray(xs).tolist()]
    return np.array(rows, dtype=np.uint8).reshape(len(xs), n, n + 1)


def _token_table(q):
    """(table, w): row v < q of the uint8 table is the decimal token of v
    and row q is ':', each left-aligned in w bytes (w the widest token),
    then a space, then zero bytes up to a row of 2 or 4 bytes."""
    tokens = [str(v).encode("ascii") for v in range(q)] + [b":"]
    w = max(map(len, tokens))
    table = np.zeros((q + 1, 2 if w == 1 else 4), dtype=np.uint8)
    for v, tok in enumerate(tokens):
        table[v, : len(tok)] = np.frombuffer(tok, dtype=np.uint8)
    table[:, w] = ord(" ")
    return table, w


def dump_hpe1(pk):
    """The HPE1 text of pk, as dump_public wrote it before HPE2: the header,
    the alphabet, then per equation 'EQ k T' and its T term lines
    'c : e_1 .. e_2n' in the order of equation_terms."""
    head = ["HPE1 %d %d %d" % (pk.q, pk.n, pk.t), *pk.alphabet.to_lines(), ""]
    out = ["\n".join(head)]
    table, w = _token_table(pk.q)
    # A row of the table is one 2- or 4-byte word, so rendering is one
    # gather of words; each term line is 2n + 2 cells (coefficient, ':',
    # 2n exponents), and dropping the zero bytes of the cells leaves the
    # text.
    words = table.view("u%d" % table.shape[1]).ravel()
    for k in range(pk.n):
        coeffs, exps = equation_terms(pk, k)
        cells = np.empty((len(coeffs), 2 * pk.n + 2), dtype=np.uint8)
        cells[:, 0], cells[:, 1], cells[:, 2:] = coeffs, pk.q, exps
        chars = words.take(cells).view(np.uint8).reshape(*cells.shape, -1)
        chars[:, -1, w] = ord("\n")
        out.append("EQ %d %d\n" % (k, len(coeffs)))
        out.append(chars.tobytes().replace(b"\0", b"").decode("ascii"))
    return "".join(out)


def rref_oracle(base, m):
    """Reduced row echelon form and pivot list by one column loop of F_q
    table gathers: columns in order, first nonzero row as the pivot."""
    m = np.array(m, dtype=np.uint8, copy=True)
    rows, cols = m.shape
    sub_t, mul_t, inv_t = base.sub_table, base.mul_table, base.inv_table
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        pv = int(m[r, c])
        if pv != 1:
            m[r] = mul_t[inv_t[pv], m[r]]
        col = m[:, c].copy()
        col[r] = 0
        nzr = np.nonzero(col)[0]
        if nzr.size:
            m[nzr] = sub_t[m[nzr], mul_t[col[nzr][:, None], m[r][None, :]]]
        pivots.append((r, c))
        r += 1
    return m, pivots


def solve_oracle(base, a, b):
    """linalg.Solution of a y = b read from rref_oracle, or None: the
    particular solution has its free unknowns zero, and each free column
    gives the kernel vector with a 1 there."""
    cols = a.shape[1]
    red, pivots = rref_oracle(base, np.concatenate([a, np.reshape(b, (-1, 1))], axis=1))
    if any(c == cols for _, c in pivots):
        return None
    rows, pivot_cols = [i for i, _ in pivots], [c for _, c in pivots]
    particular = np.zeros(cols, dtype=np.uint8)
    particular[pivot_cols] = red[rows, cols]
    kernel = []
    for fc in range(cols):
        if fc not in pivot_cols:
            vec = np.zeros(cols, dtype=np.uint8)
            vec[fc] = 1
            vec[pivot_cols] = base.neg_table[red[rows, fc]]
            kernel.append(vec)
    return linalg.Solution(particular, kernel)


def encrypt_oracle(pk, x_vec, rng):
    """What protocol.encrypt_raw returns, by the F_q route: the system from
    kernel_rows_oracle, solve_oracle, Solution.sample and a matvec check."""
    rows = kernel_rows_oracle(pk, np.asarray(x_vec)[None])[0]
    matrix, rhs = rows[:, 1:], pk.base.neg_table[rows[:, 0]]
    sol = solve_oracle(pk.base, matrix, rhs)
    if sol is None:
        return None
    y = sol.sample(pk.base, rng)
    assert np.array_equal(linalg.matvec(pk.base, matrix, y), rhs)
    return y


def f2_expansion_oracle(base, m):
    """The F_2 matrix of an F_q matrix, q = 2^r, one entry at a time: entry
    (i*r + a, j*r + b) is bit a of w^b m[i, j]."""
    r = base.r
    rows, cols = m.shape
    out = np.zeros((rows * r, cols * r), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            for b in range(r):
                v = int(base.mul_table[1 << b, m[i, j]])
                for a in range(r):
                    out[i * r + a, j * r + b] = v >> a & 1
    return out


def bits_oracle(bits):
    """A 0/1 matrix as one integer, entry (k, j) at bit k*cols + j."""
    cols = bits.shape[1]
    return sum(int(v) << (k * cols + j) for (k, j), v in np.ndenumerate(bits))


def colmasks_oracle(field):
    """GF(2^n) Frobenius column masks bit by bit: bit i of entry [k][j] is
    P(k)[i, j]."""
    return tuple(
        tuple(int(sum(1 << i for i in range(field.n) if mat[i, j])) for j in range(field.n))
        for mat in field.frobenius_matrices
    )


def digit_product_oracle(field, coeff, factors):
    """Coordinates (n, columns) of coeff * product(factors), as
    linearize.expand_product orders its columns: one float64 product over
    F_p per factor, on base-p digits and the base field's multiply-by
    matrices, reduced mod p after each product."""
    base, n = field.base, field.n
    p, r = base.p, base.r
    zmul = field.tensor.transpose(0, 2, 1).reshape(n * n, n)
    g = base.mul_matrices[list(field.coords(coeff)), 0].reshape(n * r, 1)
    for fmat in factors:
        big = fmat.shape[1]
        d = linalg.matmul(base, zmul, fmat).reshape(n, n, big)
        # w[(i, s), (k, s', b)]: digit s' of (digit s of coordinate i) * d[i, k, b]
        w = base.mul_matrices[d].transpose(0, 3, 1, 4, 2).reshape(n * r, n * r * big)
        prod = np.mod(g.T @ w, p)
        g = prod.reshape(-1, n * r, big).transpose(1, 0, 2).reshape(n * r, -1)
    return linalg.pack_digits(base, g.reshape(n, r, -1))


def random_matrix_oracle(base, shape, rng):
    """A random matrix drawn one rng.randrange(q) per entry, row by row."""
    return np.array(
        [[rng.randrange(base.q) for _ in range(shape[1])] for _ in range(shape[0])],
        dtype=np.uint8,
    )


def hex16():
    """16 hex symbols, 8-bit blocks, q=2; strong per-block filtering."""
    return make_alphabet(2, 8, "0123456789abcdef", 2, seed=0x16A11)


def map_x(affine, x_vec):
    """u = A x + c, the x-side mask."""
    u = linalg.matvec(affine.base, affine.a_mat, x_vec)
    return affine.base.add_table[u, affine.c_vec]


def unmap_v(affine, v_vec):
    """y = B^-1 (v - d), the inverse of the y-side mask."""
    base = affine.base
    shifted = base.sub_table[np.asarray(v_vec, dtype=np.uint8), affine.d_vec]
    return linalg.matvec(base, linalg.inverse(base, affine.b_mat), shifted)


def private_eval(field, priv, u, v):
    """f(u, v): the polynomial that decryption roots, evaluated at u."""
    return upoly.eval_poly(field, priv.univariate_in_x(field, v), u)


def private_relation_check(sk, pk, u, v):
    """Evaluate both sides of the hidden relation at one point.

    Takes the extension-field pair (u, v), pulls it back through the affine
    maps to (x, y) and returns (hidden, public): the coordinates of f(u, v)
    and the values of pk's equations.  They must agree everywhere when pk
    is sk's public key.
    """
    field = sk.field
    x_vec = sk.affine.unmap_u(np.array(field.coords(u), dtype=np.uint8))
    y_vec = unmap_v(sk.affine, np.array(field.coords(v), dtype=np.uint8))
    hidden = np.array(field.coords(private_eval(field, sk.priv, u, v)),
                      dtype=np.uint8)
    return hidden, pk.eval_at(x_vec, y_vec)


def exhaustive_invert(pk, y_vec, limit=1 << 24):
    """Every x with all public equations vanishing at (x, y), by search.

    Ground truth for the trapdoor path; refuses spaces above limit.
    Results come back as digit vectors in ascending packed order.
    """
    total = pk.q**pk.n
    if total > limit:
        raise TooLarge("search space %d exceeds limit %d" % (total, limit))
    out = []
    chunk = 1 << 13
    powers = pk.q ** np.arange(pk.n, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :] % pk.q).astype(np.uint8)
        good = batch_zero_mask(pk, digits, y_vec)
        out.extend(digits[good])
    return out


def relation_value(base, vector, x_vec, y_vec):
    """The bilinear relation with coefficient vector `vector`, as
    harvest_relations returns it, evaluated at one (x, y) pair."""
    row = _monomial_rows(base, np.asarray(x_vec, dtype=np.uint8)[None, :],
                         np.asarray(y_vec, dtype=np.uint8)[None, :])
    return int(linalg.matvec(base, row, vector)[0])


def random_quadratic_public(base, n, rng):
    """A structureless quadratic map y = Q(x), the control for relation
    harvesting: Q is a random (n, n + 1, n + 1) tensor of forms over the
    homogenized (x, 1), published as the equations Q(x) - y."""
    quad = linalg.random_scalars(base.q, n * (n + 1) ** 2, rng).reshape(n, n + 1, n + 1)
    field = build_extension(base.q, n)
    # -y_k in equation k: no x factor, then the y slots and the constant
    minus_y = np.zeros((n, n + 1), dtype=np.uint8)
    minus_y[np.arange(n), np.arange(n)] = base.neg(1)
    # each tensor as a one-factor product by 1: its columns as the elements
    # that merge_general sums
    parts = [linearize.records_general(
                 field, linearize.expand_product(field, 1, [tensor]), n, has_y)
             for tensor, has_y in ((quad.reshape(n, -1), False), (minus_y, True))]
    return PublicKey(base, n, 2, *linearize.merge_general(field, parts, n), None)
