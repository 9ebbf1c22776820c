import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from hpe import decrypt_raw, encrypt_raw, sign
from hpe.errors import BadTheta, SolutionSpaceTooLarge, TooLarge
from hpe.fields import base_field
from hpe.imattack import (default_theta, harvest_relations, im_keygen,
                          patarin_attack)
from hpe.mvpoly import linalg

from oracles import (equations, map_x, random_quadratic_public,
                     relation_value, unmap_v)


@pytest.fixture(scope="module")
def kp9():
    return im_keygen(2, 9, 1, random.Random(201))


@pytest.fixture(scope="module")
def rels9(kp9):
    return harvest_relations(kp9[0], rng=random.Random(202))


def _encrypt(pk, x):
    # a power-map key, like the quadratic control, solves every x to one y
    # (nullity 0), so encrypt_raw draws nothing from the rng
    return encrypt_raw(pk, x, random.Random(0))


def _all_vectors(n):
    out = np.zeros((1 << n, n), dtype=np.uint8)
    for i in range(1 << n):
        for j in range(n):
            out[i, j] = (i >> j) & 1
    return out


def test_theta_validation():
    # q^theta + 1 must be coprime to q^n - 1 for the power map to biject.
    with pytest.raises(BadTheta):
        im_keygen(2, 8, 3, random.Random(1))
    assert math.gcd(2 ** 3 + 1, 2 ** 8 - 1) == 3
    with pytest.raises(BadTheta):
        im_keygen(2, 9, 9, random.Random(1))
    with pytest.raises(BadTheta):
        im_keygen(2, 9, -1, random.Random(1))
    with pytest.raises(BadTheta):
        # theta = 0 over q = 2 makes X^2 linear, not a trapdoor.
        im_keygen(2, 9, 0, random.Random(1))


def test_default_theta_choices():
    assert default_theta(2, 9) == 1
    t = default_theta(2, 10)
    assert math.gcd(2 ** t + 1, 1023) == 1 and t >= 1
    t4 = default_theta(4, 3)
    assert math.gcd(4 ** t4 + 1, 63) == 1
    # n = 8 admits no theta: 255 shares a factor with every 2^theta + 1.
    with pytest.raises(BadTheta):
        default_theta(2, 8)
    # Odd q never works: q^theta + 1 and q^n - 1 share the factor 2.
    with pytest.raises(BadTheta):
        default_theta(3, 4)


def test_im_round_trip_exhaustive(kp9):
    pk, sk = kp9
    xs = _all_vectors(9)
    ys = [_encrypt(pk, x) for x in xs]
    for i in range(512):
        back = decrypt_raw(sk, ys[i])
        assert len(back) == 1 and np.array_equal(back[0], xs[i])


@pytest.mark.parametrize("q,n,theta", [(2, 9, 1), (4, 3, 0), (4, 3, 1), (8, 3, 0)])
def test_im_encrypt_matches_private_chain(q, n, theta):
    # Solving the public equations must equal the explicit chain
    # u = Ax + c, w = u^(q^theta + 1), y = Binverse (w - d), at x = 0 (the
    # equations' constants alone) and at random x; and the trapdoor must
    # find exactly that x again, the one root of X^(q^theta + 1) - v.
    pk, sk = im_keygen(q, n, theta, random.Random(204))
    field, affine = sk.field, sk.affine
    rng = random.Random(205)
    xs = [np.zeros(n, dtype=np.uint8)]
    xs += [np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8)
           for _ in range(50)]
    for x in xs:
        u = field.from_coords(map_x(affine, x))
        w = field.pow(u, q**theta + 1)
        want = unmap_v(affine, np.array(field.coords(w), dtype=np.uint8))
        assert np.array_equal(_encrypt(pk, x), want)
        back = decrypt_raw(sk, want)
        assert len(back) == 1 and np.array_equal(back[0], x)


def test_im_decrypt_degree_is_capped():
    # Decryption roots f(X, v) = X^(q^theta + 1) - v.  At q=2 n=9, theta=5
    # gives degree 33, within MAX_DEGX = 64, and theta=6 gives 65, above
    # it; both exponents are coprime to 2^9 - 1, so both keys are valid.
    x = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    pk, sk = im_keygen(2, 9, 5, random.Random(217))
    assert sk.priv.deg_x(2) == 33
    back = decrypt_raw(sk, _encrypt(pk, x))
    assert len(back) == 1 and np.array_equal(back[0], x)
    pk, sk = im_keygen(2, 9, 6, random.Random(217))
    assert sk.priv.deg_x(2) == 65
    with pytest.raises(TooLarge):
        decrypt_raw(sk, _encrypt(pk, x))
    with pytest.raises(TooLarge):
        sign(sk, "m", random.Random(218))


def test_im_map_is_not_affine(kp9):
    pk, _ = kp9
    xs = _all_vectors(9)
    ys = [_encrypt(pk, x) for x in xs]
    zero = _encrypt(pk, np.zeros(9, dtype=np.uint8))
    witness = False
    for i in (1, 2, 3):
        for j in (4, 8, 16):
            s = (ys[i] ^ ys[j] ^ zero)
            if not np.array_equal(s, ys[i ^ j]):
                witness = True
    assert witness


def test_quad_polys_match_encrypt(kp9):
    pk, _ = kp9
    polys = equations(pk)
    assert len(polys) == 9
    rng = random.Random(205)
    for _ in range(20):
        x = np.array([rng.randrange(2) for _ in range(9)], dtype=np.uint8)
        y = _encrypt(pk, x)
        point = list(map(int, x)) + list(map(int, y))
        for p in polys:
            assert p.eval(point) == 0


def test_harvest_finds_full_relation_space(kp9, rels9):
    # The hidden relation u^(q^theta) v = u v^(q^n-th power back) spans at
    # least n independent bilinear identities.
    pk, _ = kp9
    assert len(rels9) >= 9
    base = base_field(2)
    rng = random.Random(206)
    for _ in range(100):
        x = np.array([rng.randrange(2) for _ in range(9)], dtype=np.uint8)
        y = _encrypt(pk, x)
        for rel in rels9:
            assert relation_value(base, rel, x, y) == 0


def test_kp9_relations_pinned(rels9):
    # The relation basis the harvest finds for key seed 201, recorded when
    # the power-map key had its own evaluator beside the public key's.
    digest = hashlib.sha256(b"".join(rel.tobytes() for rel in rels9))
    assert len(rels9) == 18
    assert digest.hexdigest() == (
        "e5aa76b44a7193d839c085ac8499c195c3006b186b3a7f0163ddc9cd3ca3d28b")


def test_relation_views_match_vector(rels9):
    rel = rels9[0]
    base = base_field(2)
    # the monomial layout [x_i y_j | x_i | y_j | 1], read in the test
    gamma = rel[:81].reshape(9, 9).astype(np.int64)
    delta, epsilon, zeta = rel[81:90], rel[90:99], rel[99]
    rng = random.Random(207)
    for _ in range(20):
        x = np.array([rng.randrange(2) for _ in range(9)], dtype=np.uint8)
        y = np.array([rng.randrange(2) for _ in range(9)], dtype=np.uint8)
        acc = int(zeta)
        acc ^= int(x @ gamma @ y) & 1
        acc ^= int(delta @ x) & 1
        acc ^= int(epsilon @ y) & 1
        assert relation_value(base, rel, x, y) == acc


def test_attack_recovers_plaintexts(kp9, rels9):
    pk, _ = kp9
    rng = random.Random(208)
    for _ in range(25):
        x = np.array([rng.randrange(2) for _ in range(9)], dtype=np.uint8)
        y = _encrypt(pk, x)
        cands = patarin_attack(pk, rels9, y)
        assert [list(map(int, c)) for c in cands] == [list(map(int, x))]


def test_attack_candidates_reencrypt(kp9, rels9):
    pk, _ = kp9
    rng = random.Random(209)
    for _ in range(10):
        x = np.array([rng.randrange(2) for _ in range(9)], dtype=np.uint8)
        y = _encrypt(pk, x)
        for cand in patarin_attack(pk, rels9, y):
            assert np.array_equal(_encrypt(pk, cand), y)


def test_attack_guard_on_thin_relations(kp9):
    pk, _ = kp9
    y = _encrypt(pk, np.ones(9, dtype=np.uint8))
    with pytest.raises(SolutionSpaceTooLarge):
        patarin_attack(pk, [], y, guard=16)


def test_random_quadratics_have_no_relations():
    rng = random.Random(210)
    pub = random_quadratic_public(base_field(2), 9, rng)
    rels = harvest_relations(pub, rng=random.Random(211))
    assert rels == []


def test_random_quadratic_control_at_odd_p():
    # Power-map keys cannot reach odd q (no theta is valid there), so this
    # control is what checks the sign of the y coefficient at odd p: every
    # x solves to exactly one y, and that y is Q(x) for the tensor Q the
    # control draws, n forms over the homogenized (x, 1).
    q, n = 3, 5
    base = base_field(q)
    pub = random_quadratic_public(base, n, random.Random(215))
    rng = random.Random(215)
    quad = np.array([[[rng.randrange(q) for _ in range(n + 1)]
                      for _ in range(n + 1)] for _ in range(n)], dtype=np.int64)
    for x in itertools.product(range(q), repeat=n):
        x = np.array(x, dtype=np.uint8)
        sol = linalg.solve(base, *pub.linear_system(x))
        assert sol is not None and sol.nullspace == []
        xt = np.append(x, 1).astype(np.int64)
        want = np.einsum("i,kij,j->k", xt, quad, xt) % q
        assert np.array_equal(sol.particular, want)
        assert np.array_equal(_encrypt(pub, x), want)
    assert harvest_relations(pub, rng=random.Random(216)) == []


def test_hpe_key_resists_linearization(pair16):
    pk, _ = pair16
    rels = harvest_relations(pk, rng=random.Random(212))
    assert rels == []


def test_im_keygen_deterministic():
    blocks = ("mono0", "C0", "monoy", "Cy")
    a = im_keygen(2, 9, 1, random.Random(5))
    b = im_keygen(2, 9, 1, random.Random(5))
    c = im_keygen(2, 9, 1, random.Random(6))
    assert all(np.array_equal(getattr(a[0], k), getattr(b[0], k))
               for k in blocks)
    assert not all(np.array_equal(getattr(a[0], k), getattr(c[0], k))
                   for k in blocks)


def test_im_composite_base_round_trip():
    # q = 4 exercises the table arithmetic path end to end.
    pk, sk = im_keygen(4, 3, None, random.Random(213))
    assert sk.priv.deg_x(4) == 4 ** default_theta(4, 3) + 1
    rng = random.Random(214)
    for _ in range(40):
        x = np.array([rng.randrange(4) for _ in range(3)], dtype=np.uint8)
        back = decrypt_raw(sk, _encrypt(pk, x))
        assert len(back) == 1 and np.array_equal(back[0], x)
    with pytest.raises(BadTheta):
        im_keygen(3, 4, 1, random.Random(1))
