import itertools
import random
import sys

import numpy as np
import pytest

from hpe import KeyGenParams, dump_private, dump_public, keygen
from hpe.core.alphabet import base4, default_alphabet, hex16
from hpe.core.keys import AffinePair, PrivatePolynomial
from hpe.errors import GenerationFailed, LengthMismatch, VariableMismatch
from hpe.fields import build_extension
from hpe.mvpoly.linalg import identity

from conftest import sub_key

keygen_mod = sys.modules["hpe.core.keygen"]
sample_private = keygen_mod.sample_private
expand_keypair = keygen_mod.expand_keypair
theta_options = keygen_mod.theta_options


def _identity_affine(field):
    n = field.n
    zero = np.zeros(n, dtype=np.uint8)
    return AffinePair(field.base, identity(n), zero, identity(n), zero)


def _x_degrees(pk):
    """Largest x-degree of a term, per public equation."""
    return [max((sum(e[:pk.n]) for e in eq.terms), default=0)
            for eq in pk.equations()]


def test_params_validation():
    KeyGenParams(q=2, n=8).check()
    with pytest.raises(VariableMismatch):
        KeyGenParams(q=2, n=1).check()
    with pytest.raises(VariableMismatch):
        KeyGenParams(q=2, n=8, t_max=1).check()
    with pytest.raises(VariableMismatch):
        KeyGenParams(q=2, n=8, degX_max=1).check()
    with pytest.raises(VariableMismatch):
        KeyGenParams(q=2, n=8, degX_max=65).check()
    with pytest.raises(VariableMismatch):
        KeyGenParams(q=2, n=8, n_monomials=0).check()
    # q = 2 keys take any n; nothing packs the x exponents into 64 bits.
    KeyGenParams(q=2, n=49).check()


@pytest.mark.parametrize("q,weight,cap,n", [(2, 2, 9, 8), (3, 2, 9, 5), (2, 3, 9, 6)])
def test_theta_options_against_brute_force(q, weight, cap, n):
    got = set(theta_options(q, weight, cap, n))
    want = set()
    for combo in itertools.combinations_with_replacement(range(n), weight):
        if sum(q ** t for t in combo) <= cap:
            want.add(tuple(sorted(combo)))
    assert got == want


def test_sample_private_structure():
    params = KeyGenParams(q=2, n=16, t_max=3, degX_max=9, n_monomials=3)
    field = build_extension(2, 16)
    rng = random.Random(31)
    for _ in range(50):
        priv = sample_private(params, field, rng)
        assert len(priv.mixed) == 3
        y_levels = [y for (_, _, y) in priv.mixed]
        assert len(set(y_levels)) == 3
        for coeff, x_thetas, y_theta in priv.mixed:
            assert 0 < coeff < field.order
            assert list(x_thetas) == sorted(x_thetas)
            assert 2 <= len(x_thetas) <= params.t_max - 1
            assert 0 <= y_theta < 16
        assert len(priv.pure) == 2
        decomps = set()
        for coeff, x_thetas in priv.pure:
            assert 0 < coeff < field.order
            assert 1 <= len(x_thetas) <= params.t_max
            decomps.add(tuple(x_thetas))
        assert len(decomps) == 2
        assert priv.const != 0
        assert priv.deg_x(2) <= params.degX_max
        assert priv.t() == 3


def test_sample_private_eval_matches_formula():
    params = KeyGenParams(q=2, n=12)
    field = build_extension(2, 12)
    rng = random.Random(37)
    priv = sample_private(params, field, rng)
    for _ in range(30):
        u, v = field.random(rng), field.random(rng)
        want = priv.const
        for coeff, x_thetas, y_theta in priv.mixed:
            ex = sum(2 ** t for t in x_thetas)
            term = field.mul(coeff, field.mul(field.pow(u, ex),
                                              field.pow(v, 2 ** y_theta)))
            want = field.add(want, term)
        for coeff, x_thetas in priv.pure:
            ex = sum(2 ** t for t in x_thetas)
            want = field.add(want, field.mul(coeff, field.pow(u, ex)))
        assert priv.eval(field, u, v) == want


def test_generation_failure_modes():
    field = build_extension(2, 8)
    rng = random.Random(41)
    with pytest.raises(GenerationFailed):
        sample_private(KeyGenParams(q=2, n=8, t_max=2), field, rng)
    with pytest.raises(GenerationFailed):
        sample_private(KeyGenParams(q=2, n=8, n_monomials=9), field, rng)


def test_expansion_of_cubic_times_y_identity_masks():
    # f(X, Y) = X^3 Y over GF(4) with identity masks, checked at every point.
    field = build_extension(2, 2)
    priv = PrivatePolynomial(mixed=((1, (0, 1), 0),), pure=(), const=0)
    pk = expand_keypair(field, priv, _identity_affine(field), base4())
    for bits in range(16):
        x = np.array([bits & 1, (bits >> 1) & 1], dtype=np.uint8)
        y = np.array([(bits >> 2) & 1, (bits >> 3) & 1], dtype=np.uint8)
        u, v = field.from_coords(x), field.from_coords(y)
        want = np.array(field.coords(field.mul(field.pow(u, 3), v)),
                        dtype=np.uint8)
        assert np.array_equal(pk.eval_at(x, y), want)


def test_expansion_matches_private_eval_random_key():
    # (5, 3) and (9, 3) sum digits over odd p, (8, 3) three digits over p = 2.
    rng = random.Random(43)
    for q, n, degx in ((2, 6, 9), (3, 4, 9), (4, 3, 9), (5, 3, 9), (8, 3, 9),
                       (9, 3, 10)):
        params = KeyGenParams(q=q, n=n, degX_max=degx)
        field = build_extension(q, n)
        priv = sample_private(params, field, rng)
        affine = AffinePair.sample(field.base, n, rng)
        pk = expand_keypair(field, priv, affine, default_alphabet(2, 12))
        for _ in range(40):
            x = np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8)
            y = np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8)
            u = field.from_coords(affine.map_x(x))
            v = field.from_coords(affine.map_y(y))
            want = np.array(field.coords(priv.eval(field, u, v)), dtype=np.uint8)
            assert np.array_equal(pk.eval_at(x, y), want)


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 3), (8, 3), (9, 3)])
def test_expansion_against_generic_substitution(q, n):
    # Expanding under masks must agree with expanding under identity masks
    # and then composing each equation with the affine maps symbolically.
    # The least mixed X exponent is 1 + q, so q = 9 needs degX_max = 10.
    rng = random.Random(47)
    field = build_extension(q, n)
    priv = sample_private(KeyGenParams(q=q, n=n, degX_max=max(9, q + 1)), field, rng)
    affine = AffinePair.sample(field.base, n, rng)
    alph = default_alphabet(2, 12)
    direct = expand_keypair(field, priv, affine, alph)
    plain = expand_keypair(field, priv, _identity_affine(field), alph)
    for mp, want in zip(plain.equations(), direct.equations()):
        mp = mp.substitute_affine(affine.a_mat, affine.c_vec, (0, n))
        mp = mp.substitute_affine(affine.b_mat, affine.d_vec, (n, n))
        assert mp.normalize_exponents() == want


def test_repeated_level_factor_collapses_to_linear():
    # X^2 with q=2 is the Frobenius map, so a term using the (0, 0)
    # decomposition must publish x-linear equations after cancellation.
    field = build_extension(2, 4)
    priv = PrivatePolynomial(mixed=((1, (0, 0), 0),), pure=(), const=0)
    rng = random.Random(53)
    affine = AffinePair.sample(field.base, 4, rng)
    pk = expand_keypair(field, priv, affine, base4())
    assert max(_x_degrees(pk)) <= 1
    for _ in range(60):
        x = np.array([rng.randrange(2) for _ in range(4)], dtype=np.uint8)
        y = np.array([rng.randrange(2) for _ in range(4)], dtype=np.uint8)
        u = field.from_coords(affine.map_x(x))
        v = field.from_coords(affine.map_y(y))
        want = np.array(field.coords(priv.eval(field, u, v)), dtype=np.uint8)
        assert np.array_equal(pk.eval_at(x, y), want)


@pytest.mark.parametrize("q,n,pure", [
    (2, 6, ((1, 1, 2), (5, 5))),     # u^8 and u^64 = u^(2^5 * 2) = u
    (3, 4, ((0, 0, 0), (3, 3, 3))),  # u^3 and u^(3 * 27) = u
    (4, 3, ((0, 0, 0, 0), (0, 2))),  # u^4 and u^17
    (2, 5, ((0, 1, 2, 3, 4), (0, 0, 4, 4))),  # u^31 and u^34 = u^3
])
def test_repeated_and_wrapping_levels_carry(q, n, pure):
    # q equal Frobenius levels carry into one level higher, and level n
    # wraps to level 0; the expanded key must still equal f under the masks.
    field = build_extension(q, n)
    rng = random.Random(59)
    priv = PrivatePolynomial(
        mixed=((field.random_nonzero(rng), (0, n - 1), 1),),
        pure=tuple((field.random_nonzero(rng), xth) for xth in pure),
        const=field.random_nonzero(rng))
    affine = AffinePair.sample(field.base, n, rng)
    pk = expand_keypair(field, priv, affine, default_alphabet(2, 12))
    for _ in range(60):
        x = np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8)
        y = np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8)
        u = field.from_coords(affine.map_x(x))
        v = field.from_coords(affine.map_y(y))
        want = np.array(field.coords(priv.eval(field, u, v)), dtype=np.uint8)
        assert np.array_equal(pk.eval_at(x, y), want)
    # u = 0 exercises a full exponent u^(q^n - 1), which is not the constant 1
    x0 = affine.unmap_u(np.zeros(n, dtype=np.uint8))
    y0 = np.zeros(n, dtype=np.uint8)
    want = np.array(field.coords(priv.eval(field, 0, field.from_coords(
        affine.map_y(y0)))), dtype=np.uint8)
    assert np.array_equal(pk.eval_at(x0, y0), want)


def test_keygen_shapes_at_small_size():
    pk, sk = keygen(KeyGenParams(q=2, n=8, t_max=3, degX_max=9, n_monomials=3,
                                 seed=5))
    assert len(pk.equations()) == 8
    assert pk.t == 3 and sk.priv.t() == 3
    assert pk.shape_violations() == []
    for eq, deg in zip(pk.equations(), _x_degrees(pk)):
        assert any(sum(e[8:]) for e in eq.terms)
        assert 2 <= deg <= pk.t


def _shape_oracle(pk):
    """shape_violations, read equation by equation from the MultiPoly view."""
    out = []
    for k, (eq, deg) in enumerate(zip(pk.equations(), _x_degrees(pk))):
        if not any(sum(e[pk.n:]) for e in eq.terms):
            out.append("equation %d has no y variable" % k)
        if deg < 2:
            out.append("equation %d is linear in x" % k)
        if deg > pk.t:
            out.append("equation %d exceeds x-degree %d" % (k, pk.t))
    return out


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4)])
def test_shape_violations_match_per_equation_oracle(q, n):
    field = build_extension(q, n)
    rng = random.Random(61)
    affine = AffinePair.sample(field.base, n, rng)
    a, b = field.random_nonzero(rng), field.random_nonzero(rng)
    privs = [
        PrivatePolynomial(pure=((a, (0, 1)),), const=b),  # no y
        PrivatePolynomial(mixed=((a, (), 0),), pure=((b, (2,)),)),  # x-linear
        PrivatePolynomial(mixed=((a, (0, 1), 2),), pure=((b, (0, 1, 2)),)),
    ]
    seen = set()
    for priv in privs:
        pk = expand_keypair(field, priv, affine, default_alphabet(2, 12))
        # t = 1 makes every quadratic equation too deep; dropping the odd
        # equations leaves empty ones
        sub = sub_key(pk, range(0, n, 2), t=1)
        for key in (pk, sub):
            got = key.shape_violations()
            assert got == _shape_oracle(key)
            seen.update(msg.split(" ", 2)[2] for msg in got)
    assert seen == {"has no y variable", "is linear in x", "exceeds x-degree 1"}


def test_keygen_deterministic_under_seed():
    a = keygen(KeyGenParams(q=2, n=12, seed=6))
    b = keygen(KeyGenParams(q=2, n=12, seed=6))
    assert dump_public(a[0]) == dump_public(b[0])
    assert dump_private(a[1]) == dump_private(b[1])
    c = keygen(KeyGenParams(q=2, n=12, seed=7))
    assert dump_public(c[0]) != dump_public(a[0])


def test_keygen_with_explicit_alphabet(pair16_hex):
    pk, sk = pair16_hex
    assert pk.alphabet.letters == hex16().letters
    assert sk.alphabet.letters == hex16().letters


def test_keygen_rejects_mismatched_alphabet():
    with pytest.raises(LengthMismatch):
        keygen(KeyGenParams(q=2, n=12, seed=8), alphabet=hex16())


def test_term_count_grows_with_degree():
    counts = []
    for n in (8, 12, 16):
        sizes = [keygen(KeyGenParams(q=2, n=n, seed=s))[0].term_count()
                 for s in (1, 2, 3)]
        counts.append(sum(sizes) / 3)
    assert counts[0] < counts[1] < counts[2]


def test_term_count_scaling_with_size():
    # With monomial weight capped at 3 the equation banks should grow
    # like n^4, so doubling n multiplies the term count by about 16.
    # Averaged over seeds; a loose factor-two bracket absorbs the rest.
    ratios = []
    for seed in (1, 2, 3, 4):
        small = keygen(KeyGenParams(q=2, n=8, seed=seed))[0].term_count()
        large = keygen(KeyGenParams(q=2, n=16, seed=seed))[0].term_count()
        ratios.append(large / small)
    mean = sum(ratios) / len(ratios)
    assert 8 <= mean <= 32


def test_public_equations_lazy_view(pair16):
    pk, _ = pair16
    eqs = pk.equations()
    assert len(eqs) == 16
    assert eqs[0].nvars == 32
    assert pk.term_count() == sum(len(eq.terms) for eq in eqs)
