import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpe.errors import (HpeError, InvalidOrder, RootFindingFailed,
                        SingularMatrix, VariableMismatch, ZeroPolynomial)
from hpe.fields import base_field, build_extension, prime_power_split
from hpe.mvpoly import gf2, upoly
from hpe.mvpoly.linalg import (identity, inverse, matmul, matvec, nullspace,
                               rank, random_invertible, random_matrix,
                               random_scalars, rref, solve)

from hpe.mvpoly import linalg

from oracles import (MultiPoly, bits_oracle, f2_expansion_oracle,
                     random_matrix_oracle, rref_oracle, solve_oracle)


def _random_poly(field, rng, deg):
    f = [field.random(rng) for _ in range(deg)] + [field.random_nonzero(rng)]
    return f


def _naive_mul(field, f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return upoly.trim(out)


def test_upoly_add_mul_against_naive():
    field = build_extension(3, 3)
    rng = random.Random(1)
    for _ in range(40):
        f = _random_poly(field, rng, rng.randrange(6))
        g = _random_poly(field, rng, rng.randrange(6))
        assert upoly.mul(field, f, g) == _naive_mul(field, f, g)
        s = upoly.add(field, f, g)
        for a in (field.random(rng) for _ in range(5)):
            lhs = upoly.eval_poly(field, s, a)
            rhs = field.add(upoly.eval_poly(field, f, a),
                            upoly.eval_poly(field, g, a))
            assert lhs == rhs


def test_upoly_divmod_invariant():
    field = build_extension(2, 8)
    rng = random.Random(2)
    for _ in range(40):
        f = _random_poly(field, rng, rng.randrange(2, 9))
        g = _random_poly(field, rng, rng.randrange(1, 5))
        qt, r = upoly.divmod_poly(field, f, g)
        assert upoly.degree(r) < upoly.degree(g) or not r
        back = upoly.add(field, upoly.mul(field, qt, g), r)
        assert back == upoly.trim(list(f))


class _CountingInverses:
    """A field that counts its inv calls and delegates everything else."""

    def __init__(self, field):
        self.field, self.inv_calls = field, 0

    def __getattr__(self, name):
        return getattr(self.field, name)

    def inv(self, a):
        self.inv_calls += 1
        return self.field.inv(a)


@pytest.mark.parametrize("q,n", [(2, 8), (3, 13)])
def test_division_by_monic_divisor_inverts_nothing(q, n):
    field = _CountingInverses(build_extension(q, n))
    rng = random.Random(5)
    for _ in range(10):
        f = _random_poly(field, rng, rng.randrange(2, 9))
        g = _random_poly(field, rng, rng.randrange(1, 5))
        g_monic = g[:-1] + [1]
        qt, r = upoly.divmod_poly(field, f, g_monic)
        assert upoly.add(field, upoly.mul(field, qt, g_monic), r) == f
        assert upoly.monic(field, g_monic) == g_monic
        assert field.inv_calls == 0
        lead = g[-1]
        assert upoly.monic(field, g) == upoly.scale(field, g, field.field.inv(lead))
        assert field.inv_calls == (lead != 1)
        field.inv_calls = 0


def test_upoly_eval_horner_matches_powers():
    field = build_extension(2, 10)
    rng = random.Random(3)
    f = _random_poly(field, rng, 7)
    for _ in range(20):
        a = field.random(rng)
        want = 0
        for e, coeff in enumerate(f):
            want = field.add(want, field.mul(coeff, field.pow(a, e)))
        assert upoly.eval_poly(field, f, a) == want


def test_upoly_gcd_divides_both():
    field = build_extension(2, 6)
    rng = random.Random(4)
    for _ in range(20):
        f = _random_poly(field, rng, 3)
        g = _random_poly(field, rng, 3)
        h = _random_poly(field, rng, 2)
        a = upoly.mul(field, f, h)
        b = upoly.mul(field, g, h)
        d = upoly.gcd(field, a, b)
        # h divides the gcd, and the gcd divides both products.
        _, r = upoly.divmod_poly(field, d, upoly.monic(field, h))
        assert not r
        for prod in (a, b):
            _, r = upoly.divmod_poly(field, prod, d)
            assert not r
    # a nonzero constant on either side gives 1, and 0 leaves the other monic
    assert upoly.gcd(field, a, [5]) == upoly.gcd(field, [5], a) == [1]
    assert upoly.gcd(field, a, []) == upoly.gcd(field, [], a) == upoly.monic(field, a)
    assert upoly.gcd(field, [], []) == []


def test_upoly_powmod_matches_direct():
    field = build_extension(3, 3)
    rng = random.Random(5)
    g = _random_poly(field, rng, 4)
    f = _random_poly(field, rng, 3)
    for e in (0, 1, 2, 7, 26):
        direct = [1]
        for _ in range(e):
            direct = upoly.mod(field, upoly.mul(field, direct, f), g)
        assert upoly.powmod(field, f, e, g) == direct


@pytest.mark.parametrize("q,n", [(2, 8), (4, 3), (3, 3)])
def test_upoly_square_and_powmod_in_each_characteristic(q, n):
    # Characteristic 2 squares by the Frobenius shortcut; powmod must agree
    # with repeated multiplication either way.
    field = build_extension(q, n)
    rng = random.Random(10)
    g = _random_poly(field, rng, 5)
    for _ in range(10):
        f = _random_poly(field, rng, rng.randrange(6))
        assert upoly.square(field, f) == _naive_mul(field, f, f)
        direct = [1]
        for e in range(10):
            assert upoly.powmod(field, f, e, g) == direct
            direct = upoly.mod(field, upoly.mul(field, direct, f), g)
    assert upoly.square(field, []) == []


class _NeverSplits(random.Random):
    """An rng whose draws are all 0: the trace of 0*X is 0, which never splits."""

    def randrange(self, *args, **kwargs):
        return 0


def test_roots_raises_hpe_error_when_splitting_stalls():
    field = build_extension(2, 8)
    f = upoly.mul(field, [3, 1], [5, 1])
    with pytest.raises(RootFindingFailed) as info:
        upoly.roots(field, f, _NeverSplits())
    assert isinstance(info.value, HpeError)
    assert upoly.roots(field, f, random.Random(1)) == {3, 5}


def test_roots_of_constructed_product():
    field = build_extension(2, 8)
    rng = random.Random(6)
    for _ in range(20):
        want = set()
        while len(want) < 4:
            want.add(field.random(rng))
        f = [1]
        for r in want:
            f = upoly.mul(field, f, [field.neg(r), 1])
        # Multiply in an extra irreducible-quadratic style factor with no roots.
        f = upoly.mul(field, f, [1, field.random(rng), 0, 1])
        got = upoly.roots(field, f, random.Random(7))
        brute = {a for a in field.elements()
                 if upoly.eval_poly(field, f, a) == 0}
        assert want <= got == brute


def _reference_roots(field, f, rng):
    """The scalar root finder: X^order mod g by p-th powering, then the
    equal-degree split on scalars, drawing from rng in the same order as
    upoly.roots must."""
    g = upoly.monic(field, upoly.trim(f))
    p, m, o = field.p, 0, field.order
    while o > 1:
        o //= p
        m += 1
    xq = upoly.mod(field, upoly.X, g)
    for _ in range(m):
        xq = upoly.powmod(field, xq, p, g)
    s = upoly.gcd(field, upoly.sub(field, xq, upoly.X), g)
    out = set()
    if upoly.degree(s) >= 1:
        _reference_split(field, s, rng, out)
    return out


def _reference_split(field, s, rng, out):
    if upoly.degree(s) == 1:
        out.add(field.neg(s[0]))
        return
    order = field.order
    while True:
        if field.p == 2:
            c = rng.randrange(1, order)
            t = upoly.mod(field, upoly.scale(field, upoly.X, c), s)
            acc = t
            for _ in range(order.bit_length() - 2):
                t = upoly.mod(field, upoly.square(field, t), s)
                acc = upoly.add(field, acc, t)
            d = upoly.gcd(field, acc, s)
        else:
            a = rng.randrange(order)
            h = upoly.powmod(field, upoly.add(field, upoly.X, [a]), (order - 1) // 2, s)
            d = upoly.gcd(field, upoly.sub(field, h, [1]), s)
        if 0 < upoly.degree(d) < upoly.degree(s):
            _reference_split(field, d, rng, out)
            _reference_split(field, upoly.divmod_poly(field, s, d)[0], rng, out)
            return


# (8, 6) is a log field and (16, 6) a coords one, so characteristic 2 is
# covered at r = 1, 2, 3 and 4
SCALAR_REFERENCE_FIELDS = [
    (2, 16), (3, 8), (4, 8), (5, 6), (2, 21), (2, 32), (2, 65), (3, 13), (4, 11),
    (8, 6), (16, 6)]


def test_scalar_reference_fields_cover_every_backend():
    backends = {build_extension(q, n).backend for q, n in SCALAR_REFERENCE_FIELDS}
    assert backends == {"log", "clmul", "coords"}


@pytest.mark.parametrize("q,n", SCALAR_REFERENCE_FIELDS)
def test_roots_match_scalar_reference(q, n):
    # Every field finds roots through a Frobenius map on K[X]/(g); the
    # scalar algorithm must agree on the roots and on the draws from rng.
    # q=2 n=65 packs elements above 2^64.
    # Degrees 1, 2, 3 and 9 start the map from X^(e^k), e its exponent,
    # the largest such power below deg g, and from X mod g at degree 1.
    field = build_extension(q, n)
    rng = random.Random(100 * q + n)
    # (distinct roots, times a cubic with none): degrees 5, 6, 7, 1, 2, 3, 9
    shapes = [(2, True), (3, True), (4, True), (1, False), (2, False), (3, False), (6, True)]
    for trial, (count, cubic) in enumerate(shapes):
        want = set()
        while len(want) < count:
            want.add(field.random(rng))
        f = [1]
        for r in want:
            f = upoly.mul(field, f, [field.neg(r), 1])
        while cubic:  # a monic cubic factor with no root in the field
            extra = [field.random_nonzero(rng), field.random(rng), field.random(rng), 1]
            if not _reference_roots(field, extra, random.Random(0)):
                f = upoly.mul(field, f, extra)
                break
        got_rng, ref_rng = random.Random(trial), random.Random(trial)
        got = upoly.roots(field, f, got_rng)
        assert got == want
        assert all(upoly.eval_poly(field, f, a) == 0 for a in got)
        assert got == _reference_roots(field, f, ref_rng)
        assert got_rng.random() == ref_rng.random()


def test_roots_against_exhaustive_eval():
    field = build_extension(3, 3)
    rng = random.Random(8)
    for _ in range(30):
        f = _random_poly(field, rng, rng.randrange(1, 8))
        got = upoly.roots(field, f, random.Random(9))
        brute = {a for a in field.elements()
                 if upoly.eval_poly(field, f, a) == 0}
        assert got == brute


def test_roots_edge_cases():
    field = build_extension(2, 4)
    with pytest.raises(ZeroPolynomial):
        upoly.roots(field, [0, 0])
    assert upoly.roots(field, [5]) == set()
    assert upoly.roots(field, [0, 1]) == {0}


# At q = 2, n = 2, 5 and 16 are log fields, 21, 32 and 65 clmul; GF(2^65)
# packs elements above 2^64.  (4, 8) and (8, 6) are log fields at r = 2 and 3,
# (16, 6) and (4, 33) coords fields at r = 4 and 2, the last one with 66-bit
# elements.
SQUARE_MAP_FIELDS = [(2, 2), (2, 5), (2, 16), (2, 21), (2, 32), (2, 65),
                     (4, 8), (8, 6), (16, 6), (4, 33)]


@st.composite
def _square_map_cases(draw):
    field = build_extension(*draw(st.sampled_from(SQUARE_MAP_FIELDS)))
    d = draw(st.integers(1, 12))
    element = st.integers(0, field.order - 1)
    g = draw(st.lists(element, min_size=d, max_size=d)) + [1]
    h = upoly.trim(draw(st.lists(element, min_size=d, max_size=d)))
    return field, g, h, draw(st.integers(0, 3))


# g = X^12 or X^5, every bit of h set: each slot carries out of its top bit
# and every coefficient of X h carries past the top power of X; at r = 3 the
# 3-bit digits of an element straddle bytes
@example(case=(build_extension(2, 65), [0] * 12 + [1], [(1 << 65) - 1] * 12, 3))
@example(case=(build_extension(8, 6), [0] * 5 + [1], [(1 << 18) - 1] * 5, 3))
@example(case=(build_extension(2, 2), [3, 1], [2], 1))
@settings(max_examples=100, deadline=None)
@given(case=_square_map_cases())
def test_square_map_matches_q_power_matrix(case):
    # In characteristic 2 roots squares residues mod g on packed integer
    # rows; scalar squaring mod g is the same map, and the sum of the m
    # squares h^(2^j), j < m, is the trace over F_2 of GF(2^m).
    field, g, h, k = case
    packed = upoly._SquareMap(field, g)
    assert packed.poly(packed.row(h)) == h
    m, powers = field.n * field.r, [upoly.mod(field, h, g)]
    while len(powers) < max(m, k + 1):
        powers.append(upoly.mod(field, upoly.square(field, powers[-1]), g))
    assert packed.poly(packed.apply(packed.row(h), k)) == powers[k]
    trace = []
    for power in powers[:m]:
        trace = upoly.add(field, trace, power)
    assert packed.poly(packed.trace(packed.row(h))) == trace


# every characteristic-2 log field makes no float64 product once its tables
# are built, at r = 1, 2 and 3, and clmul never makes one
@pytest.mark.parametrize("q,n", [(2, 16), (2, 32), (4, 8), (8, 6)])
def test_roots_at_q2_make_no_matrix_product(q, n, monkeypatch):
    def refuse(*args):
        raise AssertionError("float matrix product in characteristic 2")

    field = build_extension(q, n)
    rng = random.Random(n)
    want = {field.random(rng) for _ in range(5)}
    # X^5 + X^2 + 1 has no root in GF(2^m) for m = n*r not divisible by 5;
    # X^3 + X + 1 would have three at r = 3, in the subfield GF(8)
    f = [1, 0, 1, 0, 0, 1]
    for r in want:
        # the first multiply on a log field builds its tables through mul_many
        f = upoly.mul(field, f, [r, 1])
    monkeypatch.setattr(upoly.linalg, "times", refuse)
    monkeypatch.setattr(upoly, "_frobenius_tensor", refuse)
    assert upoly.roots(field, f, rng) == want


# a log field at r = 1 and r = 2, clmul, and coords
@pytest.mark.parametrize("q,n", [(2, 16), (4, 8), (2, 32), (16, 6)])
def test_quadratic_factors_split_without_a_trace(q, n, monkeypatch):
    # X^2 + bX + e is solved through Z^2 + Z = e/b^2, drawing from rng as
    # often as the trace split would
    def refuse(*args):
        raise AssertionError("trace split of a quadratic")

    field = build_extension(q, n)
    rng = random.Random(q * n)
    monkeypatch.setattr(upoly._SquareMap, "trace", refuse)
    for trial in range(5):
        a, b = field.random(rng), field.random(rng)
        if a == b:
            continue
        g = upoly.mul(field, [a, 1], [b, 1])
        got_rng, ref_rng = random.Random(trial), random.Random(trial)
        assert upoly.roots(field, g, got_rng) == {a, b}
        assert _reference_roots(field, g, ref_rng) == {a, b}
        assert got_rng.random() == ref_rng.random()


@st.composite
def _artin_schreier_cases(draw):
    q, n = draw(st.sampled_from([(2, 5), (2, 32), (2, 65), (4, 8), (8, 6), (16, 6)]))
    field = build_extension(q, n)
    element = st.integers(0, field.order - 1)
    return field, draw(element), draw(element)


@settings(max_examples=60, deadline=None)
@given(case=_artin_schreier_cases())
def test_artin_schreier_basis_solves_and_traces(case):
    # delta = w^2 + w has trace 0, so it reduces to 0 and its tag Z is w or
    # w + 1; the trace of a, the sum of its m = n*r powers a^(2^i), is 1
    # exactly when a is left over
    field, w, a = case
    basis = upoly._artin_schreier(field)
    assert len(basis) == field.n * field.r - 1
    delta = field.mul(w, w) ^ w
    rest, z = basis.reduce(delta)
    assert rest == 0
    assert field.mul(z, z) ^ z == delta
    powers = 0
    for i in range(field.n * field.r):
        powers ^= field.pow(a, 2**i)
    assert powers in (0, 1)
    assert (basis.reduce(a)[0] != 0) == powers


def test_multipoly_eval_and_arithmetic():
    base = base_field(5)
    x0 = MultiPoly.variable(base, 2, 0)
    x1 = MultiPoly.variable(base, 2, 1)
    p = x0 * x0 * x1 + x1.scale(3) + MultiPoly.constant(base, 2, 2)
    for a in range(5):
        for b in range(5):
            want = (a * a * b + 3 * b + 2) % 5
            assert p.eval((a, b)) == want
    assert p.degree() == 3
    assert p.degree_in([0]) == 2 and p.degree_in([1]) == 1
    assert (p - p) == MultiPoly.zero(base, 2)
    assert not (p - p)


def test_multipoly_mismatched_vars_rejected():
    base = base_field(2)
    with pytest.raises(VariableMismatch):
        MultiPoly.variable(base, 2, 0) + MultiPoly.variable(base, 3, 0)


def test_multipoly_normalize_exponents_preserves_function():
    base = base_field(4)
    x0 = MultiPoly.variable(base, 2, 0)
    x1 = MultiPoly.variable(base, 2, 1)
    p = x0 * x0 * x0 * x0 + x1 * x1 * x1 * x1 * x1 + x0.scale(2)
    q = p.normalize_exponents()
    assert q.degree() < p.degree()
    for a in range(4):
        for b in range(4):
            assert p.eval((a, b)) == q.eval((a, b))


def test_multipoly_substitute_affine_matches_eval():
    base = base_field(3)
    rng = random.Random(10)
    nvars = 4
    terms = {}
    for _ in range(6):
        e = tuple(rng.randrange(3) for _ in range(nvars))
        terms[e] = rng.randrange(1, 3)
    p = MultiPoly(base, nvars, terms)
    m = random_invertible(base, 2, rng)
    c = np.array([rng.randrange(3) for _ in range(2)], dtype=np.uint8)
    sub = p.substitute_affine(m, c, (1, 2))
    for _ in range(30):
        pt = [rng.randrange(3) for _ in range(nvars)]
        mapped = list(pt)
        mapped[1:3] = [int(v) for v in (m @ np.array(pt[1:3]) + c) % 3]
        assert sub.eval(pt) == p.eval(mapped)


def test_multipoly_substitute_affine_rejects_singular():
    base = base_field(2)
    p = MultiPoly.variable(base, 2, 0)
    with pytest.raises(SingularMatrix):
        p.substitute_affine(np.zeros((2, 2), dtype=np.uint8),
                            np.zeros(2, dtype=np.uint8), (0, 2))


def test_sorted_terms_deterministic():
    base = base_field(2)
    terms = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    p = MultiPoly(base, 2, dict(terms))
    q = MultiPoly(base, 2, dict(reversed(list(terms.items()))))
    assert p.sorted_terms() == q.sorted_terms()


def test_rref_and_rank():
    base = base_field(2)
    m = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    r, pivots = rref(base, m)
    assert rank(base, m) == 2
    assert len(pivots) == 2
    # Pivot columns carry a single one in reduced form.
    for row, col in pivots:
        assert r[row, col] == 1
        assert r[:, col].sum() == 1


def test_solve_consistent_and_inconsistent():
    rng = random.Random(11)
    for q in (2, 3, 4):
        base = base_field(q)
        for _ in range(20):
            a = random_matrix(base, (5, 4), rng)
            x = np.array([rng.randrange(q) for _ in range(4)], dtype=np.uint8)
            b = matvec(base, a, x)
            sol = solve(base, a, b)
            assert sol is not None
            got = sol.sample(base, rng)
            assert np.array_equal(matvec(base, a, got), b)
        # Forcing an inconsistent row makes solve return None.
        a = np.zeros((2, 3), dtype=np.uint8)
        b = np.array([1, 0], dtype=np.uint8)
        assert solve(base, a, b) is None
    # Two equal rows with unequal right-hand sides, over F_9 (odd p, r = 2)
    # and F_256 (p = 2, r = 8).
    for q in (9, 256):
        a = np.array([[1, 2, q - 1], [1, 2, q - 1]], dtype=np.uint8)
        assert solve(base_field(q), a, np.array([1, 2], dtype=np.uint8)) is None


def test_nullspace_dimension_and_membership():
    rng = random.Random(12)
    for q in (2, 3):
        base = base_field(q)
        for _ in range(15):
            a = random_matrix(base, (4, 6), rng)
            basis = nullspace(base, a)
            assert len(basis) == 6 - rank(base, a)
            for v in basis:
                assert not matvec(base, a, v).any()


def test_inverse_round_trip():
    rng = random.Random(13)
    for q in (2, 5, 4):
        base = base_field(q)
        m = random_invertible(base, 6, rng)
        mi = inverse(base, m)
        assert np.array_equal(matmul(base, m, mi), identity(6))
    with pytest.raises(SingularMatrix):
        inverse(base_field(2), np.zeros((2, 2), dtype=np.uint8))
    # Row 1 is 5 times row 0 over F_9.
    base = base_field(9)
    row = np.array([3, 7, 1], dtype=np.uint8)
    m = np.stack([row, base.mul_table[5, row], np.array([1, 0, 0], dtype=np.uint8)])
    with pytest.raises(SingularMatrix):
        inverse(base, m)


RREF_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 251, 256]


@st.composite
def _field_matrices(draw):
    q = draw(st.sampled_from(RREF_FIELDS))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * cols,
                            max_size=rows * cols))
    return q, np.array(entries, dtype=np.uint8).reshape(rows, cols)


def _kernel_oracle(base, red, pivots, cols):
    """One kernel vector per free column among the first cols of an RREF:
    1 there, minus the free column's entry at each pivot."""
    pivot_cols = {c for _, c in pivots}
    out = []
    for fc in range(cols):
        if fc not in pivot_cols:
            vec = np.zeros(cols, dtype=np.uint8)
            vec[fc] = 1
            for i, c in pivots:
                vec[c] = base.neg_table[red[i, fc]]
            out.append(vec)
    return out


def _assert_rref_matches_oracle(q, m):
    base = base_field(q)
    got, pivots = rref(base, m)
    want, want_pivots = rref_oracle(base, m)
    assert got.dtype == np.uint8 and got.shape == m.shape
    assert np.array_equal(got, want)
    assert pivots == want_pivots
    assert rank(base, m) == len(want_pivots)
    assert _same_vectors(nullspace(base, m), _kernel_oracle(base, want, want_pivots, m.shape[1]))
    if m.shape[1]:
        _assert_solve_matches_oracle(base, m, want, want_pivots)


def _same_vectors(got, want):
    return len(got) == len(want) and all(
        g.dtype == np.uint8 and np.array_equal(g, w) for g, w in zip(got, want))


def _assert_solve_matches_oracle(base, m, red, pivots):
    # m is the augmented system [a | b]; the oracle reads its solutions from
    # the RREF: the particular solution with free variables zero and one
    # kernel vector per free column, or none if the last column pivots.
    cols = m.shape[1] - 1
    sol = solve(base, m[:, :cols], m[:, cols])
    if any(c == cols for _, c in pivots):
        assert sol is None
        return
    particular = np.zeros(cols, dtype=np.uint8)
    for i, c in pivots:
        particular[c] = red[i, cols]
    kernel = _kernel_oracle(base, red, pivots, cols)
    assert _same_vectors([sol.particular], [particular])
    assert _same_vectors(sol.nullspace, kernel)
    # sample draws one randrange(q) per kernel vector, in order
    seed = int(m.sum()) * 31 + cols
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    want = particular
    for vec in kernel:
        want = base.add_table[want, base.mul_table[oracle_rng.randrange(base.q), vec]]
    assert np.array_equal(sol.sample(base, rng), want)
    assert rng.getstate() == oracle_rng.getstate()


# empty F_2 matrices: the whole-matrix integer of gf2.reduce has no rows or
# no columns
@example(case=(2, np.zeros((0, 0), dtype=np.uint8)))
@example(case=(2, np.zeros((3, 0), dtype=np.uint8)))
@example(case=(2, np.zeros((0, 4), dtype=np.uint8)))
@example(case=(7, np.zeros((0, 5), dtype=np.uint8)))
@example(case=(9, np.zeros((4, 0), dtype=np.uint8)))
@example(case=(256, np.zeros((3, 4), dtype=np.uint8)))
# rows 0 and 1 equal, columns 0 and 2 equal: rank 2 of 4 columns
@example(case=(5, np.array([[1, 2, 1, 3], [1, 2, 1, 3], [4, 0, 4, 1]], dtype=np.uint8)))
@example(case=(251, np.array([[7, 7, 9], [7, 7, 9]], dtype=np.uint8)))
# a zero first column under a nonzero row: the pivot row is swapped up
@example(case=(3, np.array([[0, 1, 2], [2, 0, 1], [1, 1, 0]], dtype=np.uint8)))
@example(case=(16, np.array([[0, 9], [0, 4], [13, 2]], dtype=np.uint8)))
# as systems [a | b]: x0 + 2 x1 = 3 and = 0 over F_4 is inconsistent; row 1
# is 2 times row 0 over F_16, so one equation in two unknowns, nullity 1
@example(case=(4, np.array([[1, 2, 3], [1, 2, 0]], dtype=np.uint8)))
@example(case=(16, np.array([[3, 3, 5], [6, 6, 10]], dtype=np.uint8)))
@settings(max_examples=200, deadline=None)
@given(case=_field_matrices())
def test_rref_matches_oracle(case):
    _assert_rref_matches_oracle(*case)


@pytest.mark.parametrize("q,shape", [
    (2, (200, 100)), (3, (120, 60)), (4, (80, 40)),
    (2, (200, gf2.WHOLE_MATRIX_COLS)), (2, (200, gf2.WHOLE_MATRIX_COLS + 1))])
def test_rref_matches_oracle_on_larger_matrices(q, shape):
    # p = 2 reduces the whole F_2 matrix as one integer up to
    # gf2.WHOLE_MATRIX_COLS columns (q=2 at 100 and at the cut-over, q=4 at
    # 80 F_2 columns) and one integer per row past it; odd p updates rows by
    # slot arithmetic, at a size where rows take many updates between
    # reductions.  The product has rank 3/4 of its columns, so the RREF has
    # free columns to get wrong.
    rows, cols = shape
    rng = np.random.default_rng(20)
    left = rng.integers(0, q, size=(rows, cols * 3 // 4), dtype=np.uint8)
    right = rng.integers(0, q, size=(cols * 3 // 4, cols), dtype=np.uint8)
    _assert_rref_matches_oracle(q, matmul(base_field(q), left, right))


# Widths whose F_2 matrix [a | b] has (cols + 1)*r columns on either side of
# gf2.WHOLE_MATRIX_COLS: q=2 at 30 and 170 unknowns, q=4 at 15 and 80 (162
# F_2 columns), q=8 at 10 and 53 (162).
_PACKED_COLS = {2: (30, 170), 4: (15, 80), 8: (10, 53)}


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(_PACKED_COLS)), wide=st.booleans(),
       rows=st.integers(1, 12), rank_cut=st.integers(0, 3), consistent=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_packed_solution_matches_the_f_q_reader(q, wide, rows, rank_cut, consistent, seed):
    # At p = 2 solve reads its solutions from the reduced integer of the F_2
    # matrix of [a | b].  That integer, its reduction, the particular
    # solution, the kernel and the draws of sample must all be those of the
    # F_q route, on narrow systems and on systems past the width reduced as
    # one integer, which fall back to one integer per row.
    base = base_field(q)
    r = base.r
    cols = _PACKED_COLS[q][wide]
    rng = np.random.default_rng(seed)
    # a product through max(1, rows - rank_cut) columns: rows may repeat
    inner = max(1, rows - rank_cut)
    a = matmul(base, rng.integers(0, q, (rows, inner), dtype=np.uint8),
               rng.integers(0, q, (inner, cols), dtype=np.uint8))
    b = (matmul(base, a, rng.integers(0, q, (cols, 1), dtype=np.uint8))[:, 0] if consistent
         else rng.integers(0, q, rows, dtype=np.uint8))
    aug = np.concatenate([a, b[:, None]], axis=1)
    system = linalg.PackedSystem(base, gf2.pack(f2_expansion_oracle(base, aug)), rows, cols + 1)
    assert system.bits == bits_oracle(f2_expansion_oracle(base, aug))
    reduced, pivots = gf2.reduce(system.bits, rows * r, (cols + 1) * r)
    red, want_pivots = rref(base, aug)
    assert reduced == bits_oracle(f2_expansion_oracle(base, red))
    assert [(i // r, c // r) for i, c in pivots[::r]] == want_pivots
    got, want = solve(base, a, b), solve_oracle(base, a, b)
    assert (got is None) == (want is None)
    assert not consistent or got is not None
    if want is None:
        return
    assert np.array_equal(got.particular, want.particular)
    assert len(got.nullspace) == len(want.nullspace)
    for u, v in zip(got.nullspace, want.nullspace):
        assert np.array_equal(u, v)
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        y = system.solve().sample(base, got_rng)
        assert np.array_equal(y, want.sample(base, want_rng))
        assert system.solves(y)
    assert got_rng.getstate() == want_rng.getstate()
    # a pivot column of a is nonzero, so moving y along it leaves the solutions
    if want_pivots:
        c = want_pivots[0][1]
        y[c] = base.add_table[y[c], 1]
        assert not system.solves(y)


def _naive_matmul(base, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for k in range(b.shape[1]):
            acc = 0
            for j in range(a.shape[1]):
                acc = base.add_table[acc, base.mul_table[a[i, j], b[j, k]]]
            out[i, k] = acc
    return out


# Zero rows arise in patarin_attack with no relations; a zero inner
# dimension gives the zero matrix.
@example(q=7, shape=(0, 5, 1), seed=0)
@example(q=9, shape=(3, 0, 2), seed=0)
@example(q=256, shape=(2, 3, 0), seed=0)
@settings(max_examples=80)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 256]),
       shape=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
       seed=st.integers(0, 2**32 - 1))
def test_matmul_matches_naive_loop(q, shape, seed):
    base = base_field(q)
    rng = np.random.default_rng(seed)
    m, k, c = shape
    a = rng.integers(0, q, size=(m, k), dtype=np.uint8)
    b = rng.integers(0, q, size=(k, c), dtype=np.uint8)
    got = matmul(base, a, b)
    assert got.dtype == np.uint8 and got.shape == (m, c)
    assert np.array_equal(got, _naive_matmul(base, a, b))


def test_solution_count_and_enumerate():
    rng = random.Random(15)
    base = base_field(3)
    a = np.array([[1, 2, 0, 1], [0, 0, 1, 2]], dtype=np.uint8)
    x = np.array([1, 0, 2, 1], dtype=np.uint8)
    b = matvec(base, a, x)
    sol = solve(base, a, b)
    assert sol.count(base) == 3 ** (4 - rank(base, a))
    seen = set()
    for v in sol.enumerate(base):
        seen.add(tuple(int(d) for d in v))
        assert np.array_equal(matvec(base, a, v), b)
    assert len(seen) == sol.count(base)
    # Sampling stays inside the enumerated set.
    for _ in range(10):
        assert tuple(int(d) for d in sol.sample(base, rng)) in seen


def test_random_invertible_is_invertible():
    rng = random.Random(17)
    for q in (2, 4, 9):
        base = base_field(q)
        for _ in range(10):
            m = random_invertible(base, 5, rng)
            assert rank(base, m) == 5


def _is_prime_power(q):
    try:
        prime_power_split(q)
    except InvalidOrder:
        return False
    return True


PRIME_POWERS = [q for q in range(2, 257) if _is_prime_power(q)]


@settings(max_examples=300)
@given(q=st.sampled_from(PRIME_POWERS), count=st.integers(0, 1100),
       seed=st.integers(0, 2**32))
@example(q=2, count=0, seed=0)
@example(q=2, count=1, seed=0)
@example(q=256, count=1, seed=1)
def test_random_scalars_draws_like_randrange(q, count, seed):
    ref, rng = random.Random(seed), random.Random(seed)
    want = [ref.randrange(q) for _ in range(count)]
    got = random_scalars(q, count, rng)
    assert got.dtype == np.uint8
    assert got.tolist() == want
    assert rng.getstate() == ref.getstate()


def test_random_scalars_ignore_an_overridden_randrange():
    ref = random.Random(3)
    want = [ref.randrange(5) for _ in range(40)]
    assert random_scalars(5, 40, _NeverSplits(3)).tolist() == want


def test_random_matrix_matches_the_per_entry_draws():
    for q, shape in ((2, (32, 32)), (3, (5, 7)), (4, (8, 8)), (256, (3, 2)), (9, (4, 0))):
        base = base_field(q)
        ref, rng = random.Random(q), random.Random(q)
        for _ in range(3):
            assert np.array_equal(random_matrix(base, shape, rng),
                                  random_matrix_oracle(base, shape, ref))
        assert rng.getstate() == ref.getstate()
