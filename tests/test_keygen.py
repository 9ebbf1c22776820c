import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpe import KeyGenParams, dump_private, dump_public, keygen
from hpe.core import linearize
from hpe.core.alphabet import base4, default_alphabet
from hpe.core.keys import AffinePair, PrivatePolynomial, PublicKey, monomial_basis
from hpe.errors import GenerationFailed, LengthMismatch, VariableMismatch
from hpe.fields import base_field, build_extension
from hpe.mvpoly import linalg
from hpe.mvpoly.linalg import identity

from conftest import sub_key
from oracles import (digit_product_oracle, equations, hex16, map_x,
                     private_eval, random_matrix_oracle, rref_oracle)

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
            for eq in equations(pk)]


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
    # each of the 3 mixed monomials needs its own y level, so n >= 3
    with pytest.raises(VariableMismatch):
        KeyGenParams(q=2, n=2).check()
    KeyGenParams(q=2, n=3).check()
    # a mixed monomial has weight 3 at least, X^(1+q) Y
    with pytest.raises(VariableMismatch):
        KeyGenParams(q=2, n=8, t_max=2).check()
    with pytest.raises(VariableMismatch):
        KeyGenParams(q=9, n=6, degX_max=9).check()
    KeyGenParams(q=8, n=6, degX_max=9).check()
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
    params = KeyGenParams(q=2, n=16, t_max=3, degX_max=9)
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
        assert private_eval(field, priv, u, v) == want


def test_generation_failure_modes(monkeypatch):
    # Parameters that admit no relation are refused before any draw; a
    # key whose every draw is ill-shaped fails after the regeneration budget.
    field = build_extension(2, 8)
    rng = random.Random(41)
    state = rng.getstate()
    with pytest.raises(VariableMismatch):
        sample_private(KeyGenParams(q=2, n=8, t_max=2), field, rng)
    assert rng.getstate() == state
    attempts = []
    monkeypatch.setattr(PublicKey, "shape_violations",
                        lambda pk: attempts.append(pk) or ["ill-shaped"])
    with pytest.raises(GenerationFailed, match="no well-shaped key"):
        keygen(KeyGenParams(q=2, n=8), rng)
    assert len(attempts) == keygen_mod._REGEN_BUDGET


def _walk_oracle(field, priv, v):
    """(univariate_in_x, t, deg_x) of priv term by term: each term's X
    exponent from its levels, its coefficient at Y = v through field.pow,
    summed into a dict and trimmed above the top nonzero coefficient."""
    q = field.base.q
    terms = [(a, xth, field.pow(v, q ** yth)) for a, xth, yth in priv.mixed]
    terms += [(b, xth, 1) for b, xth in priv.pure]
    sums = {0: priv.const}
    for coeff, xth, y_value in terms:
        e = sum(q ** lv for lv in xth)
        sums[e] = field.add(sums.get(e, 0), field.mul(coeff, y_value))
    top = max((e for e, c in sums.items() if c), default=-1)
    g = [sums.get(e, 0) for e in range(top + 1)]
    weight = max([len(xth) + 1 for _, xth, _ in priv.mixed]
                 + [len(xth) for _, xth in priv.pure], default=0)
    degree = max((sum(q ** lv for lv in xth) for _, xth, *_ in
                  (*priv.mixed, *priv.pure)), default=0)
    return g, weight, degree


def _colliding_relations(field, v):
    """Relations whose terms share X-degrees and cancel at Y = v: the top
    term cancelled, every term cancelled (the constant too, in the last),
    and a zero constant."""
    a = 1 + (v % (field.order - 1))  # some nonzero coefficient
    cancel = field.neg(field.mul(a, field.frob(v, 1)))
    top = (a, (0, 1), 1)  # a X^(1+q) Y^q
    return {
        "top cancelled": PrivatePolynomial(
            mixed=(top, (a, (0,), 0)),
            pure=((cancel, (0, 1)), (a, (1,))), const=a),
        "all cancelled": PrivatePolynomial(
            mixed=(top,), pure=((cancel, (0, 1)),), const=0),
        "zero constant": PrivatePolynomial(
            mixed=(top,), pure=((a, (0, 1)), (field.neg(a), (0,)),
                                (a, (0,)), (a, (0, 0, 1))), const=0),
        "constant cancelled": PrivatePolynomial(
            mixed=((a, (), 0),), pure=((a, (1,)), (field.neg(a), (1,))),
            const=field.neg(field.mul(a, v))),
    }


@pytest.mark.parametrize("q,n", [(2, 6), (4, 3), (3, 4)])
def test_relation_walks_match_a_term_by_term_oracle(q, n):
    # The relations collide in X-degree so that sums cancel: the top of
    # f(X, v) must be trimmed, and a relation that cancels out gives [].
    field = build_extension(q, n)
    rng = random.Random(q * 100 + n)
    for _ in range(6):
        v = field.random_nonzero(rng)
        for name, priv in _colliding_relations(field, v).items():
            g, weight, degree = _walk_oracle(field, priv, v)
            assert priv.univariate_in_x(field, v) == g, name
            assert priv.t() == weight and priv.deg_x(q) == degree, name
            if name in ("all cancelled", "constant cancelled"):
                assert g == []
            if name == "top cancelled":
                assert len(g) < degree + 1
            if name == "zero constant":
                assert g[0] == 0 and g[-1] != 0


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
            u = field.from_coords(map_x(affine, x))
            v = field.from_coords(affine.map_y(y))
            want = np.array(field.coords(private_eval(field, priv, u, v)),
                            dtype=np.uint8)
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
    for mp, want in zip(equations(plain), equations(direct)):
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
        u = field.from_coords(map_x(affine, x))
        v = field.from_coords(affine.map_y(y))
        want = np.array(field.coords(private_eval(field, priv, u, v)),
                        dtype=np.uint8)
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
        u = field.from_coords(map_x(affine, x))
        v = field.from_coords(affine.map_y(y))
        want = np.array(field.coords(private_eval(field, priv, u, v)),
                        dtype=np.uint8)
        assert np.array_equal(pk.eval_at(x, y), want)
    # u = 0 exercises a full exponent u^(q^n - 1), which is not the constant 1
    x0 = affine.unmap_u(np.zeros(n, dtype=np.uint8))
    y0 = np.zeros(n, dtype=np.uint8)
    v0 = field.from_coords(affine.map_y(y0))
    want = np.array(field.coords(private_eval(field, priv, 0, v0)),
                    dtype=np.uint8)
    assert np.array_equal(pk.eval_at(x0, y0), want)


def _packed_coords(field, flat):
    """Coordinates (columns, n) of expand_product's packed char-2 elements."""
    n, r = field.n, field.base.r
    bits = np.unpackbits(flat.view(np.uint8), axis=1, count=n * r, bitorder="little")
    return (bits.reshape(-1, n, r).astype(np.int64) << np.arange(r)).sum(axis=2)


# q = 2^r with n*r = 5, 12, 33, 65, 6, 66, 9 and 8 bits: most not a multiple
# of 8, two above one 64-bit word
@settings(max_examples=40)
@given(case=st.sampled_from([(2, 5), (2, 12), (2, 33), (2, 65), (4, 3), (4, 33),
                             (8, 3), (16, 2)]),
       d=st.integers(1, 3), zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_packed_product_matches_float_product(case, d, zero, seed):
    q, n = case
    field = build_extension(q, n)
    rng = np.random.default_rng(seed)
    # the float oracle holds n*r rows of (n+1)^d digits; two factors at n >= 33
    d = d if n < 33 else min(d, 2)
    factors = [rng.integers(0, q, (n, n + 1), dtype=np.uint8) for _ in range(d)]
    coeff = 0 if zero else random.Random(seed).randrange(1, field.order)
    got = linearize.expand_product(field, coeff, factors)
    assert got.shape == ((n + 1) ** d, (n * field.base.r + 63) // 64)
    assert np.array_equal(_packed_coords(field, got),
                          digit_product_oracle(field, coeff, factors).T)


@settings(max_examples=30)
@given(case=st.sampled_from([(2, 3), (2, 5), (4, 3), (8, 2), (16, 2), (3, 3)]),
       parts=st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans()),
                      min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(case=(2, 5), parts=[(2, False, False), (0, False, False)], seed=0)
@example(case=(4, 3), parts=[(3, False, False), (1, False, True)], seed=1)
def test_merged_blocks_evaluate_like_the_products(case, parts, seed):
    # Each part is coeff * (product of d random factors), the last factor
    # the y factor when has_y; parts with no y factor at all leave the y
    # block empty, as a relation with no mixed term does.  The merged key
    # must take the summed products' value at every (x, y): reduced
    # polynomials are functions, so this pins every block entry.
    q, n = case
    field = build_extension(q, n)
    base = field.base
    rng = np.random.default_rng(seed)
    grid = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.uint8)
    ones = np.ones((len(grid), 1), dtype=np.uint8)
    # every (x, y), x major, with the 1 that the factors' constant digit reads
    xh = np.repeat(np.concatenate([grid, ones], 1), len(grid), axis=0)
    yh = np.tile(np.concatenate([grid, ones], 1), (len(grid), 1))
    want = np.zeros((len(xh), n), dtype=np.uint8)
    records = []
    for d, has_y, zero in parts:
        d = max(d, has_y)
        factors = [rng.integers(0, q, (n, n + 1), dtype=np.uint8) for _ in range(d)]
        coeff = 0 if zero else random.Random(seed + d).randrange(1, field.order)
        flat = linearize.expand_product(field, coeff, factors)
        records.append(linearize.records_general(field, flat, n, has_y))
        # value of each column at each point: the product of its digits'
        # variables over (x, 1), and over (y, 1) for the y factor
        vals = np.ones((len(xh), 1), dtype=np.uint8)
        for s in range(d):
            var = yh if has_y and s == d - 1 else xh
            vals = base.mul_table[vals[:, :, None], var[:, None, :]].reshape(len(xh), -1)
        cols = digit_product_oracle(field, coeff, factors)
        want = base.add_table[want, linalg.matmul(base, vals, cols.T)]
    pk = PublicKey(base, n, 3, *linearize.merge_general(field, records, n), None)
    if not any(has_y for _, has_y, _ in parts):
        assert pk.Cy.shape == (n, n, 0)
    rows = pk._rows(grid)  # (x, equation, (1, y))
    got = linalg.matmul(base, rows.reshape(-1, n + 1), np.concatenate([ones, grid], 1).T)
    got = got.reshape(len(grid), n, len(grid)).transpose(0, 2, 1).reshape(-1, n)
    assert np.array_equal(got, want)


# 63, 64 and 65 variables end a bit short of a 64-bit word, at its end and
# a bit past it
@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 5, 32, 63, 64, 65, 130]), count=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_monomial_basis_at_q2_orders_by_bitmask(n, count, seed):
    # the packed keys must order rows like the integers sum_j e_j 2^j
    rng = np.random.default_rng(seed)
    rows = (rng.random((count, n)) < 0.1).astype(np.uint8)
    rows = np.concatenate([rows, rows[: count // 3]])  # repeated rows
    masks = [sum(int(e) << j for j, e in enumerate(row)) for row in rows]
    distinct = sorted(set(masks))
    table, index = monomial_basis(2, rows)
    assert [sum(int(e) << j for j, e in enumerate(row)) for row in table] == distinct
    assert index.tolist() == [distinct.index(m) for m in masks]


def test_keygen_shapes_at_small_size():
    pk, sk = keygen(KeyGenParams(q=2, n=8, t_max=3, degX_max=9),
                    random.Random(5))
    assert len(equations(pk)) == 8
    assert pk.t == 3 and sk.priv.t() == 3
    assert pk.shape_violations() == []
    for eq, deg in zip(equations(pk), _x_degrees(pk)):
        assert any(sum(e[8:]) for e in eq.terms)
        assert 2 <= deg <= pk.t


def _shape_oracle(pk):
    """shape_violations, read equation by equation from the MultiPoly view."""
    out = []
    for k, (eq, deg) in enumerate(zip(equations(pk), _x_degrees(pk))):
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
    # Without a y shift, v = B y has no constant part, so the last relation's
    # only x-quadratic terms carry a y: an x-degree read from the no-y block
    # alone would call its equations linear.
    y_linear = AffinePair(field.base, affine.a_mat, affine.c_vec, affine.b_mat,
                          np.zeros(n, dtype=np.uint8))
    cases = [
        (PrivatePolynomial(pure=((a, (0, 1)),), const=b), affine),  # no y
        (PrivatePolynomial(mixed=((a, (), 0),), pure=((b, (2,)),)), affine),  # x-linear
        (PrivatePolynomial(mixed=((a, (0, 1), 2),), pure=((b, (0, 1, 2)),)), affine),
        (PrivatePolynomial(mixed=((a, (0, 1), 2),), pure=((b, (2,)),)), y_linear),
    ]
    seen = set()
    for priv, masks in cases:
        pk = expand_keypair(field, priv, masks, default_alphabet(2, 12))
        # t = 1 makes every quadratic equation too deep; dropping the odd
        # equations leaves empty ones
        sub = sub_key(pk, range(0, n, 2), t=1)
        for key in (pk, sub):
            got = key.shape_violations()
            assert got == _shape_oracle(key)
            seen.update(msg.split(" ", 2)[2] for msg in got)
    assert seen == {"has no y variable", "is linear in x", "exceeds x-degree 1"}


def test_keygen_deterministic_under_seed():
    a = keygen(KeyGenParams(q=2, n=12), random.Random(6))
    b = keygen(KeyGenParams(q=2, n=12), random.Random(6))
    assert dump_public(a[0]) == dump_public(b[0])
    assert dump_private(a[1]) == dump_private(b[1])
    c = keygen(KeyGenParams(q=2, n=12), random.Random(7))
    assert dump_public(c[0]) != dump_public(a[0])


def test_keygen_with_explicit_alphabet(pair16_hex):
    pk, sk = pair16_hex
    assert pk.alphabet.letters == hex16().letters
    assert sk.alphabet.letters == hex16().letters


def test_keygen_rejects_mismatched_alphabet():
    with pytest.raises(LengthMismatch):
        keygen(KeyGenParams(q=2, n=12), random.Random(8), alphabet=hex16())


def test_term_count_grows_with_degree():
    counts = []
    for n in (8, 12, 16):
        sizes = [keygen(KeyGenParams(q=2, n=n), random.Random(s))[0].term_count()
                 for s in (1, 2, 3)]
        counts.append(sum(sizes) / 3)
    assert counts[0] < counts[1] < counts[2]


def test_term_count_scaling_with_size():
    # With monomial weight capped at 3 the equation banks should grow
    # like n^4, so doubling n multiplies the term count by about 16.
    # Averaged over seeds; a loose factor-two bracket absorbs the rest.
    ratios = []
    for seed in (1, 2, 3, 4):
        small = keygen(KeyGenParams(q=2, n=8), random.Random(seed))[0].term_count()
        large = keygen(KeyGenParams(q=2, n=16), random.Random(seed))[0].term_count()
        ratios.append(large / small)
    mean = sum(ratios) / len(ratios)
    assert 8 <= mean <= 32


def test_public_equations_lazy_view(pair16):
    pk, _ = pair16
    eqs = equations(pk)
    assert len(eqs) == 16
    assert eqs[0].nvars == 32
    assert pk.term_count() == sum(len(eq.terms) for eq in eqs)


def _affine_oracle(base, n, rng):
    """AffinePair.sample's masks drawn one randrange call per entry."""
    def invertible():
        while True:
            m = random_matrix_oracle(base, (n, n), rng)
            if len(rref_oracle(base, m)[1]) == n:
                return m

    a_mat, b_mat = invertible(), invertible()
    c_vec = np.array([rng.randrange(base.q) for _ in range(n)], dtype=np.uint8)
    d_vec = np.array([rng.randrange(base.q) for _ in range(n)], dtype=np.uint8)
    return a_mat, c_vec, b_mat, d_vec


@pytest.mark.parametrize("q, n", [(2, 32), (3, 8), (4, 8)])
def test_affine_sample_draws_like_randrange(q, n):
    base = base_field(q)
    for seed in (1, 2, 3):
        ref, rng = random.Random(seed), random.Random(seed)
        affine = AffinePair.sample(base, n, rng)
        want = _affine_oracle(base, n, ref)
        got = (affine.a_mat, affine.c_vec, affine.b_mat, affine.d_vec)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert rng.getstate() == ref.getstate()
