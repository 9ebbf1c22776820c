"""The ancestral power-map cryptosystem and its linearization attack.

The old scheme encrypts through the bijection u -> u^(q^theta + 1),
masked by two affine maps, which makes every ciphertext coordinate an
explicit quadratic form in the plaintext.  That structure leaks: the
hidden identity u * v^(q^theta) = u^(q^2theta) * v induces equations
bilinear in (plaintext, ciphertext), and those can be learned from
public encryptions alone, then used to strip almost all entropy from
any target ciphertext.  The harvest half doubles as a control
experiment against the newer keys, where no such relations survive.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .core.protocol import encrypt_raw
from .errors import BadTheta, SolutionSpaceTooLarge
from .fields import build_extension
from .core import linearize
from .core.keys import AffinePair
from .mvpoly import linalg
from .mvpoly.multipoly import MultiPoly


class IMPublicKey:
    """n explicit ciphertext coordinates, each a quadratic form in x.

    quad has shape (n, n+1, n+1) over the homogenized vector (x, 1);
    coordinate k of the ciphertext is xt @ quad[k] @ xt.
    """

    def __init__(self, base, n: int, quad: np.ndarray):
        self.base = base
        self.q = base.q
        self.n = n
        self.quad = np.ascontiguousarray(quad, dtype=np.uint8)

    def encrypt(self, x_vec: np.ndarray) -> np.ndarray:
        return self.encrypt_many(np.asarray(x_vec, dtype=np.uint8)[None, :])[0]

    def encrypt_many(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate all quadratic forms on a batch of plaintext rows."""
        xs = np.asarray(xs, dtype=np.uint8)
        m = xs.shape[0]
        xt = np.concatenate([xs, np.ones((m, 1), dtype=np.uint8)], axis=1)
        pairs = self.base.mul_table[xt[:, :, None], xt[:, None, :]].reshape(m, -1)
        return linalg.matmul(self.base, pairs, self.quad.reshape(self.n, -1).T)

    def quad_polys(self) -> list:
        """The forms as 2n-variable polynomials, ciphertext side explicit."""
        out = []
        for k in range(self.n):
            terms: dict = {}
            for a in range(self.n + 1):
                for b in range(self.n + 1):
                    c = int(self.quad[k, a, b])
                    if not c:
                        continue
                    exps = [0] * (2 * self.n)
                    for slot in (a, b):
                        if slot < self.n:
                            exps[slot] += 1
                    key = tuple(exps)
                    s = self.base.add(terms.get(key, 0), c)
                    if s:
                        terms[key] = s
                    else:
                        terms.pop(key, None)
            yk = [0] * (2 * self.n)
            yk[self.n + k] = 1
            key = tuple(yk)
            s = self.base.sub(terms.get(key, 0), 1)
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
            out.append(MultiPoly(self.base, 2 * self.n, terms))
        return out


@dataclass
class IMKeyPair:
    field: object
    theta: int
    h: int
    h_prime: int
    affine: AffinePair
    public: IMPublicKey


def _check_theta(q: int, n: int, theta: int) -> int:
    if not 0 <= theta < n:
        raise BadTheta("theta=%d is outside [0, %d)" % (theta, n))
    if q == 2 and theta == 0:
        raise BadTheta("theta=0 over F_2 makes the power map linear")
    h = q**theta + 1
    g = math.gcd(h, q**n - 1)
    if g != 1:
        raise BadTheta(
            "gcd(q^theta+1, q^n-1) = gcd(%d, %d) = %d, map is not 1-1"
            % (h, q**n - 1, g))
    return h


def default_theta(q: int, n: int) -> int:
    for theta in range(1, n):
        try:
            _check_theta(q, n, theta)
            return theta
        except BadTheta:
            continue
    raise BadTheta("no valid theta in [1, %d) for q=%d" % (n, q))


def im_keygen(q: int, n: int, theta: int | None = None,
              rng: random.Random | None = None) -> IMKeyPair:
    """Build a power-map key: masks, exponent data, explicit equations.

    The ciphertext side is solved symbolically once: with w the
    coordinates of (Ax+c)^(q^theta+1), the published forms are
    y = B^(-1) (w - d).
    """
    if rng is None:
        rng = random.Random()
    if theta is None:
        theta = default_theta(q, n)
    h = _check_theta(q, n, theta)
    h_prime = pow(h, -1, q**n - 1)
    field = build_extension(q, n)
    base = field.base
    affine = AffinePair.sample(base, n, rng)

    x_factor = linearize.affine_block_matrix(field, affine.a_mat, affine.c_vec)
    flat = linearize.expand_product(
        field, 1, [linearize.frobenius_factor(field, theta, x_factor), x_factor])
    const_slot = (n + 1) ** 2 - 1
    quad_flat = linalg.matmul(base, affine.b_inv, flat)
    shift = linalg.matvec(base, affine.b_inv, affine.d_vec)
    quad_flat[:, const_slot] = base.sub_table[quad_flat[:, const_slot], shift]
    quad = quad_flat.reshape(n, n + 1, n + 1)
    return IMKeyPair(field, theta, h, h_prime, affine, IMPublicKey(base, n, quad))


def im_encrypt(kp_or_pub, x_vec: np.ndarray) -> np.ndarray:
    pub = kp_or_pub.public if isinstance(kp_or_pub, IMKeyPair) else kp_or_pub
    return pub.encrypt(x_vec)


def im_decrypt(kp: IMKeyPair, y_vec: np.ndarray) -> np.ndarray:
    """Invert the chain: v = By + d, u = v^(h'), x = A^(-1)(u - c)."""
    field = kp.field
    v = field.from_coords(kp.affine.map_y(np.asarray(y_vec, dtype=np.uint8)))
    u = field.pow(v, kp.h_prime)
    return kp.affine.unmap_u(np.array(field.coords(u), dtype=np.uint8))


# ---------------------------------------------------------------------------
# relation learning

# Monomial layout for relation vectors: x_i y_j at i*n + j, then the n
# x_i, then the n y_j, then the constant 1.


@dataclass
class BilinearRelation:
    """A form sum g_ij x_i y_j + sum d_i x_i + sum e_j y_j + z that
    vanishes on every honest (plaintext, ciphertext) pair."""

    vector: np.ndarray
    n: int

    @property
    def gamma(self) -> np.ndarray:
        return self.vector[: self.n * self.n].reshape(self.n, self.n)

    @property
    def delta(self) -> np.ndarray:
        return self.vector[self.n * self.n : self.n * self.n + self.n]

    @property
    def epsilon(self) -> np.ndarray:
        return self.vector[self.n * self.n + self.n : self.n * self.n + 2 * self.n]

    @property
    def zeta(self) -> int:
        return int(self.vector[-1])

    def eval(self, base, x_vec, y_vec) -> int:
        row = _monomial_rows(base, np.asarray(x_vec, dtype=np.uint8)[None, :],
                             np.asarray(y_vec, dtype=np.uint8)[None, :])
        return int(linalg.matvec(base, row, self.vector)[0])


def _monomial_rows(base, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    m, n = xs.shape
    ones = np.ones((m, 1), dtype=np.uint8)
    xy = base.mul_table[xs[:, :, None], ys[:, None, :]].reshape(m, n * n)
    return np.concatenate([xy, xs, ys, ones], axis=1)


def _sample_pairs(pk, count: int, rng: random.Random):
    """Honest (x, y) pairs using only the public key.

    Power-map keys evaluate directly; equation-system keys draw uniform
    raw plaintexts and keep the ones whose system is solvable.
    """
    n, q = pk.n, pk.q
    if isinstance(pk, IMPublicKey):
        xs = np.array(
            [[rng.randrange(q) for _ in range(n)] for _ in range(count)],
            dtype=np.uint8)
        return xs, pk.encrypt_many(xs)
    xs, ys = [], []
    while len(xs) < count:
        x = np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8)
        y = encrypt_raw(pk, x, rng)
        if y is not None:
            xs.append(x)
            ys.append(y)
    return np.array(xs, dtype=np.uint8), np.array(ys, dtype=np.uint8)


def harvest_relations(pk, sample_count: int | None = None,
                      rng: random.Random | None = None) -> list:
    """Learn every bilinear (x, y) relation a key's traffic satisfies.

    Uses public encryptions only.  The default sample count doubles the
    monomial count so spurious relations do not survive; the returned
    list is a basis of the relation space (empty when none exist).
    """
    if rng is None:
        rng = random.Random()
    n = pk.n
    ncols = n * n + 2 * n + 1
    if sample_count is None:
        sample_count = 2 * ncols
    xs, ys = _sample_pairs(pk, sample_count, rng)
    rows = _monomial_rows(pk.base, xs, ys)
    basis = linalg.nullspace(pk.base, rows)
    return [BilinearRelation(vec, n) for vec in basis]


def patarin_attack(pk: IMPublicKey, relations: list, y_target: np.ndarray,
                   guard: int = 1 << 20) -> list:
    """Recover plaintext candidates for one ciphertext from relations.

    Substituting the target y into each relation leaves equations linear
    in x; the affine solution space is enumerated (bounded by guard) and
    filtered by re-encryption, so every returned candidate is a true
    preimage.  Empty when the relations exclude everything.
    """
    base = pk.base
    n = pk.n
    y = np.asarray(y_target, dtype=np.uint8)
    # With no relations the system is empty and every x is a candidate.
    gamma = np.array([rel.gamma for rel in relations], dtype=np.uint8)
    delta = np.array([rel.delta for rel in relations], dtype=np.uint8)
    eps = np.array([rel.epsilon for rel in relations], dtype=np.uint8)
    zeta = np.array([rel.zeta for rel in relations], dtype=np.uint8)
    gamma_y = linalg.matvec(base, gamma.reshape(-1, n), y).reshape(-1, n)
    mat = base.add_table[gamma_y, delta.reshape(-1, n)]
    eps_y = linalg.matvec(base, eps.reshape(-1, n), y)
    rhs = base.neg_table[base.add_table[eps_y, zeta]]
    sol = linalg.solve(base, mat, rhs)
    if sol is None:
        return []
    if sol.count(base) > guard:
        raise SolutionSpaceTooLarge(
            "affine space of size %d exceeds guard %d"
            % (sol.count(base), guard))
    cands = np.stack(list(sol.enumerate(base)))
    ok = (pk.encrypt_many(cands) == y[None, :]).all(axis=1)
    return [c for c in cands[ok]]


def random_quadratic_public(base, n: int, rng: random.Random) -> IMPublicKey:
    """A structureless quadratic map, the control for relation harvesting."""
    quad = np.array(
        [[[rng.randrange(base.q) for _ in range(n + 1)]
          for _ in range(n + 1)] for _ in range(n)],
        dtype=np.uint8)
    return IMPublicKey(base, n, quad)
