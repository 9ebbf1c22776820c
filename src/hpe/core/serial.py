"""Text formats for keys, ciphertexts, and signatures.

Everything is line-oriented ASCII.  Digit vectors are compact strings
for q <= 10 and comma-separated otherwise.  A private key file stores
the field tower, the hidden relation, and the masks; the public
equations are re-expanded on load rather than stored twice.
"""

import numpy as np

from ..errors import FormatError, InvalidDegree, InvalidOrder, NotIrreducible
from ..fields import base_field, parse_descriptor
from .alphabet import Alphabet, _digits_str, _parse_digits
from .keygen import expand_keypair
from .keys import (MAX_MASK_VARS, AffinePair, PrivateKey, PrivatePolynomial,
                   PublicKey, merge_terms, x_part)

MAGIC = "HPE1"


def dump_vector(vec, q: int) -> str:
    return _digits_str([int(d) for d in vec], q)


def parse_vector(text: str, q: int, n: int) -> np.ndarray:
    try:
        return np.array(_parse_digits(text.strip(), q, n), dtype=np.uint8)
    except (ValueError, IndexError) as exc:
        raise FormatError("bad digit vector: %r" % text.strip()) from exc


def dump_public(pk: PublicKey) -> str:
    out = ["%s %d %d %d" % (MAGIC, pk.q, pk.n, pk.t)]
    out.extend(pk.alphabet.to_lines())
    digits = [str(v) for v in range(pk.q)]
    # One string per equation, so the per-term strings of only one equation
    # are alive at a time; at n=32 they alone take more memory than the text.
    for k in range(pk.n):
        coeffs, exps = pk.equation_terms(k)
        lines = ["EQ %d %d" % (k, len(coeffs))]
        for c, row in zip(coeffs.tolist(), exps.tolist()):
            lines.append("%d : %s" % (c, " ".join([digits[e] for e in row])))
        out.append("\n".join(lines))
    out.append("")  # the final newline, without a second copy of the text
    return "\n".join(out)


def _parse_header(line: str):
    parts = line.split()
    if len(parts) != 4 or parts[0] != MAGIC:
        raise FormatError("expected '%s q n t' header, got %r" % (MAGIC, line))
    try:
        q, n, t = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError as exc:
        raise FormatError("non-numeric key header: %r" % line) from exc
    return q, n, t


def _split_alphabet(lines: list, pos: int):
    if pos >= len(lines) or not lines[pos].startswith("ALPHABET"):
        raise FormatError("missing alphabet block")
    head = lines[pos].split()
    try:
        count = int(head[3])
    except (ValueError, IndexError) as exc:
        raise FormatError("bad alphabet header: %r" % lines[pos]) from exc
    end = pos + 1 + count
    if end > len(lines):
        raise FormatError("alphabet block is truncated")
    try:
        return Alphabet.from_lines(lines[pos:end]), end
    except (ValueError, IndexError) as exc:
        raise FormatError("bad alphabet block") from exc


def _parse_terms(lines: list, k: int, n: int, q: int) -> tuple:
    """(slot, coeff, x exponent rows) of the term lines of equation k."""
    coeffs, rows = [], []
    for line in lines:
        coeff_s, sep, exps_s = line.partition(":")
        try:
            coeffs.append(int(coeff_s))
            rows.append([int(e) for e in exps_s.split()])
        except ValueError as exc:
            raise FormatError("bad term line: %r" % line) from exc
        if not sep or len(rows[-1]) != 2 * n or not 0 < coeffs[-1] < q:
            raise FormatError("malformed term: %r" % line)
    exps = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n)
    x, y = exps[:, :n], exps[:, n:]
    if ((x < 0) | (x >= q)).any():
        raise FormatError("x exponent not reduced by x^q = x in equation %d" % k)
    if ((y < 0) | (y > 1)).any() or (y.sum(axis=1) > 1).any():
        raise FormatError("equation %d is not linear in y" % k)
    slot = k * (n + 1) + np.where(y.any(axis=1), y.argmax(axis=1) + 1, 0)
    return slot, np.array(coeffs, dtype=np.uint8), x


def load_public(text: str) -> PublicKey:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty public key")
    q, n, t = _parse_header(lines[0])
    if len(lines) > 1 and lines[1].startswith("F "):
        raise FormatError("this is a private key file, not a public one")
    if q == 2 and n > MAX_MASK_VARS:
        raise FormatError("q=2 keys support at most %d variables" % MAX_MASK_VARS)
    alphabet, pos = _split_alphabet(lines, 1)
    try:
        base = base_field(q)
    except InvalidOrder as exc:
        raise FormatError("bad key header: %s" % exc) from exc
    cols = []
    while pos < len(lines):
        parts = lines[pos].split()
        if parts[0] != "EQ" or len(parts) != 3:
            raise FormatError("expected equation header, got %r" % lines[pos])
        try:
            k, nterms = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FormatError("bad equation header: %r" % lines[pos]) from exc
        if k != len(cols):
            raise FormatError("equations out of order at %r" % lines[pos])
        if nterms < 0 or pos + 1 + nterms > len(lines):
            raise FormatError("equation %d is truncated" % k)
        slot, coeff, x = _parse_terms(lines[pos + 1:pos + 1 + nterms], k, n, q)
        cols.append((slot, coeff, x_part(q, n, x)))
        pos += 1 + nterms
    if len(cols) != n:
        raise FormatError("expected %d equations, found %d" % (n, len(cols)))
    slot, coeff, xpart = merge_terms(
        base, *(np.concatenate(col) for col in zip(*cols)))
    return PublicKey(base, n, t, slot, coeff, xpart, alphabet)


def _matrix_lines(name: str, mat: np.ndarray, q: int) -> list:
    out = [name]
    for row in mat:
        out.append(_digits_str([int(d) for d in row], q))
    return out


def _parse_matrix(lines: list, pos: int, name: str, q: int, n: int):
    if pos >= len(lines) or lines[pos].split() != [name]:
        raise FormatError("expected matrix %r" % name)
    rows = []
    for i in range(n):
        rows.append(_parse_digits(lines[pos + 1 + i], q, n))
    return np.array(rows, dtype=np.uint8), pos + 1 + n


def _parse_shift(lines: list, pos: int, name: str, q: int, n: int):
    parts = lines[pos].split()
    if len(parts) != 2 or parts[0] != name:
        raise FormatError("expected shift %r" % name)
    return np.array(_parse_digits(parts[1], q, n), dtype=np.uint8), pos + 1


def dump_private(sk: PrivateKey) -> str:
    q = sk.base.q
    out = ["%s %d %d %d" % (MAGIC, q, sk.n, sk.priv.t())]
    out.append(sk.field.descriptor())
    out.extend(sk.alphabet.to_lines())
    out.extend(sk.priv.to_lines())
    out.extend(_matrix_lines("A", sk.affine.a_mat, q))
    out.append("c %s" % _digits_str([int(d) for d in sk.affine.c_vec], q))
    out.extend(_matrix_lines("B", sk.affine.b_mat, q))
    out.append("d %s" % _digits_str([int(d) for d in sk.affine.d_vec], q))
    return "\n".join(out) + "\n"


def load_private(text: str) -> PrivateKey:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty private key")
    q, n, t = _parse_header(lines[0])
    if len(lines) > 1 and not lines[1].startswith("F "):
        raise FormatError("this is a public key file, not a private one")
    try:
        field = parse_descriptor(lines[1])
    except (ValueError, IndexError) as exc:
        raise FormatError("bad field descriptor: %r" % lines[1]) from exc
    except (InvalidOrder, InvalidDegree, NotIrreducible) as exc:
        raise FormatError("bad field descriptor: %s" % exc) from exc
    if field.q != q or field.n != n:
        raise FormatError("field descriptor does not match key header")
    alphabet, pos = _split_alphabet(lines, 2)
    term_lines = []
    while pos < len(lines) and lines[pos].split()[0] in ("MIX", "PUREX", "CONST"):
        term_lines.append(lines[pos])
        pos += 1
    priv = PrivatePolynomial.from_lines(term_lines)
    if not priv.mixed:
        raise FormatError("private relation has no mixed term")
    try:
        a_mat, pos = _parse_matrix(lines, pos, "A", q, n)
        c_vec, pos = _parse_shift(lines, pos, "c", q, n)
        b_mat, pos = _parse_matrix(lines, pos, "B", q, n)
        d_vec, pos = _parse_shift(lines, pos, "d", q, n)
    except (ValueError, IndexError) as exc:
        raise FormatError("bad affine mask block") from exc
    if priv.t() != t:
        raise FormatError("stated weight %d does not match terms" % t)
    affine = AffinePair(field.base, a_mat, c_vec, b_mat, d_vec)
    public = expand_keypair(field, priv, affine, alphabet)
    return PrivateKey(field, priv, affine, public)


def dump_signature(salt: int, x_vec, q: int) -> str:
    return "SIG1 %d %s\n" % (salt, dump_vector(x_vec, q))


def parse_signature(text: str, q: int, n: int):
    parts = text.split()
    if len(parts) != 3 or parts[0] != "SIG1":
        raise FormatError("expected 'SIG1 salt digits'")
    try:
        salt = int(parts[1])
    except ValueError as exc:
        raise FormatError("bad salt: %r" % parts[1]) from exc
    if salt < 0:
        raise FormatError("negative salt")
    return salt, parse_vector(parts[2], q, n)
