"""The ancestral power-map cryptosystem and its linearization attack.

The old scheme is the paper's design with the simplest hidden relation,
f(X, Y) = X^(q^theta + 1) - Y: the same affine masks u = A x + c and
v = B y + d, and the same expansion into public equations as the newer
keys.  Its keys are an ordinary (PublicKey, PrivateKey) pair, so
protocol.encrypt_raw and protocol.decrypt_raw serve them like any other.
Since f is linear in Y with a unit coefficient, every plaintext has
exactly one ciphertext, and each ciphertext coordinate is an explicit
quadratic form in the plaintext; since q^theta + 1 is coprime to q^n - 1,
f(X, v) has exactly one root.  That structure leaks: the hidden identity
u * v^(q^theta) = u^(q^2theta) * v induces equations bilinear in
(plaintext, ciphertext), and those can be learned from public encryptions
alone, then used to strip almost all entropy from any target ciphertext.
The harvest half doubles as a control experiment against the newer keys,
where no such relations survive.
"""

import math
import random

import numpy as np

from .core.keygen import expand_keypair
from .core.keys import AffinePair, PrivateKey, PrivatePolynomial, PublicKey
from .core.protocol import batch_zero_mask, encrypt_raw
from .errors import BadTheta, SolutionSpaceTooLarge
from .fields import build_extension
from .mvpoly import linalg


def _check_theta(q: int, n: int, theta: int) -> None:
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


def default_theta(q: int, n: int) -> int:
    for theta in range(1, n):
        try:
            _check_theta(q, n, theta)
            return theta
        except BadTheta:
            continue
    raise BadTheta("no valid theta in [1, %d) for q=%d" % (n, q))


def im_keygen(q: int, n: int, theta: int | None = None,
              rng: random.Random | None = None) -> tuple[PublicKey, PrivateKey]:
    """A (public, private) power-map key pair: the hidden relation
    f(X, Y) = X^(q^theta + 1) - Y behind random masks, expanded like any
    other.  The keys carry no alphabet."""
    if rng is None:
        rng = random.Random()
    if theta is None:
        theta = default_theta(q, n)
    _check_theta(q, n, theta)
    field = build_extension(q, n)
    affine = AffinePair.sample(field.base, n, rng)
    relation = PrivatePolynomial(mixed=((field.neg(1), (), 0),),
                                 pure=((1, (0, theta)),))
    public = expand_keypair(field, relation, affine, None)
    return public, PrivateKey(field, relation, affine, None)


# ---------------------------------------------------------------------------
# relation learning


def _monomial_rows(base, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """One row per (x, y) pair: x_i y_j at i*n + j, then the n x_i, then
    the n y_j, then the constant 1."""
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


def harvest_relations(pk, rng: random.Random | None = None) -> list:
    """Learn every bilinear (x, y) relation a key's traffic satisfies.

    A relation is a form sum g_ij x_i y_j + sum d_i x_i + sum e_j y_j + z
    that vanishes on every honest (plaintext, ciphertext) pair, held as
    its coefficient vector in the monomial order of _monomial_rows.  Uses
    public encryptions only, twice as many pairs as there are monomials,
    so that spurious relations do not survive; the returned list is a
    basis of the relation space (empty when none exist).
    """
    if rng is None:
        rng = random.Random()
    n = pk.n
    xs, ys = _sample_pairs(pk, 2 * (n * n + 2 * n + 1), rng)
    return linalg.nullspace(pk.base, _monomial_rows(pk.base, xs, ys))


def patarin_attack(pk: PublicKey, relations: list, y_target: np.ndarray,
                   guard: int = 1 << 20) -> list:
    """Recover plaintext candidates for one ciphertext from relations.

    Substituting the target y into each relation leaves equations affine
    in x; the affine solution space is enumerated (bounded by guard) and
    filtered by the public equations, so every returned candidate is a true
    preimage.  Empty when the relations exclude everything.
    """
    base = pk.base
    n = pk.n
    y = np.asarray(y_target, dtype=np.uint8)
    # Each relation's value at (0, y) is its constant in x, and its value
    # at (e_i, y) less that constant is the coefficient of x_i.  With no
    # relations the system is empty and every x is a candidate.
    xs = np.concatenate([np.zeros((1, n), dtype=np.uint8), linalg.identity(n)])
    rows = _monomial_rows(base, xs, np.tile(y, (n + 1, 1)))
    vecs = np.array(relations, dtype=np.uint8)
    vals = linalg.matmul(base, vecs.reshape(-1, rows.shape[1]), rows.T)
    mat = base.sub_table[vals[:, 1:], vals[:, :1]]
    sol = linalg.solve(base, mat, base.neg_table[vals[:, 0]])
    if sol is None:
        return []
    if sol.count(base) > guard:
        raise SolutionSpaceTooLarge(
            "affine space of size %d exceeds guard %d"
            % (sol.count(base), guard))
    cands = np.stack(list(sol.enumerate(base)))
    return list(cands[batch_zero_mask(pk, cands, y)])
