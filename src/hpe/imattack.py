"""The ancestral power-map cryptosystem and its linearization attack.

The old scheme is the paper's design with the simplest hidden relation,
f(X, Y) = X^(q^theta + 1) - Y: the same affine masks u = A x + c and
v = B y + d, and the same expansion into public equations as the newer
keys.  Since f is linear in Y with a unit coefficient, every plaintext has
exactly one ciphertext, and each ciphertext coordinate is an explicit
quadratic form in the plaintext.  That structure leaks: the hidden identity
u * v^(q^theta) = u^(q^2theta) * v induces equations bilinear in
(plaintext, ciphertext), and those can be learned from public encryptions
alone, then used to strip almost all entropy from any target ciphertext.
The harvest half doubles as a control experiment against the newer keys,
where no such relations survive.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .core.keygen import expand_keypair
from .core.keys import AffinePair, PrivatePolynomial, PublicKey
from .core.protocol import batch_zero_mask, encrypt_raw
from .errors import BadTheta, SolutionSpaceTooLarge
from .fields import build_extension
from .core import linearize
from .mvpoly import linalg


@dataclass
class IMKeyPair:
    field: object
    theta: int
    h: int
    h_prime: int
    affine: AffinePair
    public: PublicKey


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
    """Build a power-map key: masks, exponent data and the public equations
    of f(X, Y) = X^(q^theta + 1) - Y, expanded like any hidden relation."""
    if rng is None:
        rng = random.Random()
    if theta is None:
        theta = default_theta(q, n)
    h = _check_theta(q, n, theta)
    h_prime = pow(h, -1, q**n - 1)
    field = build_extension(q, n)
    affine = AffinePair.sample(field.base, n, rng)
    relation = PrivatePolynomial(mixed=((field.neg(1), (), 0),),
                                 pure=((1, (0, theta)),))
    public = expand_keypair(field, relation, affine, None)
    return IMKeyPair(field, theta, h, h_prime, affine, public)


def im_encrypt(kp_or_pub, x_vec: np.ndarray) -> np.ndarray:
    """The one ciphertext of x under a key pair or a public key whose
    equations are linear in y with an invertible y block."""
    pub = getattr(kp_or_pub, "public", kp_or_pub)
    matrix, rhs = pub.linear_system(np.asarray(x_vec, dtype=np.uint8))
    return linalg.solve(pub.base, matrix, rhs).particular


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
    """Honest (x, y) pairs using only the public key: uniform raw
    plaintexts, kept when their system is solvable, each with a uniform
    solution.  Power-map keys solve every x to its one ciphertext."""
    n, q = pk.n, pk.q
    xs, ys = [], []
    while len(xs) < count:
        x = linalg.random_scalars(q, n, rng)
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


def patarin_attack(pk: PublicKey, relations: list, y_target: np.ndarray,
                   guard: int = 1 << 20) -> list:
    """Recover plaintext candidates for one ciphertext from relations.

    Substituting the target y into each relation leaves equations linear
    in x; the affine solution space is enumerated (bounded by guard) and
    filtered by the public equations, so every returned candidate is a true
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
    return list(cands[batch_zero_mask(pk, cands, y)])


def random_quadratic_public(base, n: int, rng: random.Random) -> PublicKey:
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
