"""Property tests of every ExtensionField arithmetic backend.

The oracle multiplies the base-q coordinate polynomials with upoly over
the base field and reduces mod field.modulus, so it shares no code with
the log tables, the carry-less multiply or mul_many, the coordinate
multiply of "coords" fields.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpe.fields import TABLE_MAX_ORDER, build_extension
from hpe.mvpoly import upoly

# (q, n, backend): both sides of the table threshold for each backend
FIELDS = [
    (2, 20, "log"),
    (4, 10, "log"),
    (2, 21, "clmul"),
    (2, 32, "clmul"),
    (3, 13, "coords"),
    (9, 7, "coords"),
    (4, 11, "coords"),
]


def oracle_mul(field, a, b):
    base = field.base
    prod = upoly.mul(base, upoly.trim(list(field.coords(a))), upoly.trim(list(field.coords(b))))
    return field.from_coords(upoly.mod(base, prod, list(field.modulus)))


def oracle_pow(field, a, e):
    out = 1
    for bit in bin(e)[2:]:
        out = oracle_mul(field, out, out)
        if bit == "1":
            out = oracle_mul(field, out, a)
    return out


def _field_and_elements(count):
    """A field from FIELDS with `count` elements of it, zero included."""
    return st.sampled_from(FIELDS).flatmap(
        lambda spec: st.tuples(
            st.just(build_extension(spec[0], spec[1])),
            st.lists(
                st.one_of(st.just(0), st.integers(0, spec[0] ** spec[1] - 1)),
                min_size=count,
                max_size=count,
            ),
        )
    )


@pytest.mark.parametrize("q,n,backend", FIELDS)
def test_backend_follows_table_threshold(q, n, backend):
    field = build_extension(q, n)
    assert field.backend == backend
    assert (field.order <= TABLE_MAX_ORDER) == (backend == "log")


@given(_field_and_elements(2))
def test_mul_matches_oracle(case):
    field, (a, b) = case
    assert field.mul(a, b) == oracle_mul(field, a, b)


@given(_field_and_elements(1))
def test_inv_is_oracle_inverse(case):
    field, (a,) = case
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            field.inv(a)
    else:
        assert oracle_mul(field, a, field.inv(a)) == 1


@settings(max_examples=50)
@given(_field_and_elements(1), st.integers(-40, 40))
def test_pow_matches_oracle(case, e):
    field, (a,) = case
    if a == 0 and e < 0:
        with pytest.raises(ZeroDivisionError):
            field.pow(a, e)
    elif e >= 0:
        assert field.pow(a, e) == oracle_pow(field, a, e)
    else:
        assert oracle_mul(field, field.pow(a, e), oracle_pow(field, a, -e)) == 1


@settings(max_examples=25)
@given(_field_and_elements(1))
def test_frob_matches_oracle_for_every_k(case):
    field, (a,) = case
    want = a
    for k in range(field.n):
        assert field.frob(a, k) == want
        assert field.frob(a, k + field.n) == want
        want = oracle_pow(field, want, field.q)
    assert want == a


@pytest.mark.parametrize("q,n,backend", FIELDS)
def test_zero_operands(q, n, backend):
    field = build_extension(q, n)
    a = field.order // 3
    assert field.mul(0, a) == field.mul(a, 0) == field.mul(0, 0) == 0
    assert field.pow(0, 0) == 1 and field.pow(0, 5) == 0
    assert all(field.frob(0, k) == 0 for k in range(n))
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    with pytest.raises(ZeroDivisionError):
        field.pow(0, -1)
