"""Dense univariate polynomial arithmetic over a field given by its scalar ops.

A polynomial is a plain list of scalars, coefficient of X^i at index i, with
no trailing zeros; the zero polynomial is the empty list.  The field argument
is any object exposing add/sub/mul/neg/inv on scalars with 0 and 1 as the
additive and multiplicative identities, so the same routines serve F_q
coefficients during tower construction and K coefficients during decryption.
A field whose .p is 2 gets squares by the Frobenius shortcut.

Root finding follows the classic pattern: strip the squarefree product of
linear factors with gcd(f, X^order - X), then split it recursively, using
the trace map in characteristic 2 and quadratic-residue powering for odd
characteristic.
"""

from __future__ import annotations

import random

from ..errors import RootFindingFailed, ZeroPolynomial

X = [0, 1]


def trim(f: list) -> list:
    """Drop trailing zero coefficients."""
    n = len(f)
    while n > 0 and f[n - 1] == 0:
        n -= 1
    return f[:n]


def degree(f: list) -> int:
    """Degree of f, -1 for the zero polynomial."""
    return len(f) - 1


def is_zero(f: list) -> bool:
    return len(f) == 0


def add(F, f: list, g: list) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return trim(out)


def neg(F, f: list) -> list:
    return [F.neg(c) for c in f]


def sub(F, f: list, g: list) -> list:
    return add(F, f, neg(F, g))


def scale(F, f: list, s) -> list:
    if s == 0:
        return []
    return trim([F.mul(c, s) for c in f])


def mul(F, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b == 0:
                continue
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return trim(out)


def square(F, f: list) -> list:
    """f^2; in characteristic 2 the cross terms cancel, so f^2 = sum c_i^2 X^(2i)."""
    if getattr(F, "p", None) != 2:
        return mul(F, f, f)
    out = [0] * (2 * len(f) - 1) if f else []
    for i, c in enumerate(f):
        out[2 * i] = F.mul(c, c)
    return out


def divmod_poly(F, f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by g; raises ZeroDivisionError on g = 0."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = degree(g)
    lead_inv = F.inv(g[dg])
    quo = [0] * max(0, len(rem) - dg)
    for i in range(len(rem) - dg - 1, -1, -1):
        c = rem[i + dg]
        if c == 0:
            continue
        q = c if lead_inv == 1 else F.mul(c, lead_inv)
        quo[i] = q
        for j in range(dg + 1):
            rem[i + j] = F.sub(rem[i + j], F.mul(q, g[j]))
    return trim(quo), trim(rem)


def mod(F, f: list, g: list) -> list:
    return divmod_poly(F, f, g)[1]


def monic(F, f: list) -> list:
    """Scale f so its leading coefficient is 1."""
    if not f:
        return []
    return scale(F, f, F.inv(f[-1]))


def gcd(F, f: list, g: list) -> list:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while g:
        f, g = g, mod(F, f, g)
    return monic(F, f)


def powmod(F, f: list, e: int, m: list) -> list:
    """f^e reduced mod m, by left-to-right square and multiply.

    The result starts as f mod m at the top bit of e, and every later
    multiply is by f mod m, so no step squares past the last bit.
    """
    if e == 0:
        return [1]
    base = mod(F, f, m)
    result = base
    for bit in bin(e)[3:]:
        result = mod(F, square(F, result), m)
        if bit == "1":
            result = mod(F, mul(F, result, base), m)
    return result


def eval_poly(F, f: list, a):
    """Evaluate f at the scalar a by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, a), c)
    return acc


def roots(field, f: list, rng: random.Random | None = None) -> set:
    """All distinct roots of f in the field, ignoring multiplicity.

    The field must expose .order and .p in addition to the scalar ops.
    Raises ZeroPolynomial for f = 0, whose root set would be the whole field.
    """
    f = trim(f)
    if not f:
        raise ZeroPolynomial("every element is a root of the zero polynomial")
    if degree(f) == 0:
        return set()
    if rng is None:
        rng = random.Random()
    g = monic(field, f)
    # X^order mod g by iterated p-th powering: order = p^m, so m rounds of
    # a cheap fixed-exponent powmod instead of one huge exponent.
    p, m, o = field.p, 0, field.order
    while o > 1:
        o //= p
        m += 1
    xq = mod(field, X, g)
    for _ in range(m):
        xq = powmod(field, xq, p, g)
    s = gcd(field, sub(field, xq, X), g)
    out: set = set()
    if degree(s) >= 1:
        _split_linear(field, s, rng, out)
    return out


def _split_linear(field, s: list, rng: random.Random, out: set) -> None:
    """Recursively split a monic product of distinct linear factors."""
    if degree(s) == 1:
        out.add(field.neg(s[0]))
        return
    order = field.order
    for _ in range(200):
        if field.p == 2:
            c = rng.randrange(1, order)
            t = mod(field, scale(field, X, c), s)
            acc = t
            for _ in range(order.bit_length() - 2):
                t = mod(field, square(field, t), s)
                acc = add(field, acc, t)
            d = gcd(field, acc, s)
        else:
            a = rng.randrange(order)
            h = powmod(field, add(field, X, [a]), (order - 1) // 2, s)
            d = gcd(field, sub(field, h, [1]), s)
        if 0 < degree(d) < degree(s):
            _split_linear(field, d, rng, out)
            _split_linear(field, divmod_poly(field, s, d)[0], rng, out)
            return
    raise RootFindingFailed("equal-degree splitting failed to make progress")
