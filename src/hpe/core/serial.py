"""Text formats for keys, ciphertexts, and signatures.

Everything is line-oriented ASCII.  Digit vectors are compact strings
for q <= 10 and comma-separated otherwise.

A public key file (HPE2) holds the key's coefficient blocks (see keys):
the header 'HPE2 q n t', the alphabet block, then four blocks, each a
head line and one base64 line of values packed at ceil(log2 q) bits, most
significant bit first, zero-padded to a byte:

    MONO0 M0    the M0 rows of mono0, n exponents each
    MONOY My    the My rows of monoy
    C0          C0, n * M0 coefficients, row-major
    CY          Cy, n * n * My coefficients

A block of no values has an empty line.  The reader checks every line
against the counts before it unpacks a block, and My >= 1, so that n and
every block are bounded by the text.  Then each value must be below q,
each table strictly increasing in monomial_basis order with no monomial
above x-degree t, and each monomial must have a nonzero coefficient, so
that a key reads back to the text it was written as.

HPE2 is the only public format read.  A public file with the header of the
retired term-line format (HPE1) raises FormatError; private key files
keep the HPE1 header.

A private key file stores the field tower, the alphabet, the hidden
relation and the masks, not the public equations: decryption and signing
need only those four parts.
"""

import binascii
import itertools

import numpy as np

from ..errors import FormatError, InvalidDegree, InvalidOrder, NotIrreducible
from ..fields import base_field, parse_decimal, parse_descriptor
from ..mvpoly.linalg import rank
from .alphabet import Alphabet, _digits_str, _parse_digits
from .keygen import expand_keypair  # noqa: F401  (perfbench/tracing.py wraps it here)
from .keys import (MAX_DEGX, AffinePair, PrivateKey, PrivatePolynomial,
                   PublicKey, monomial_basis)

MAGIC = "HPE1"  # private keys, and the retired public format
PUBLIC_MAGIC = "HPE2"


def dump_vector(vec, q: int) -> str:
    return _digits_str([vec], q)[0]


def parse_vector(text: str, q: int, n: int) -> np.ndarray:
    try:
        return _parse_digits([text.strip()], q, n)[0].astype(np.uint8)
    except (ValueError, IndexError) as exc:
        raise FormatError("bad digit vector: %r" % text.strip()) from exc


def _pack_line(values: np.ndarray, q: int) -> str:
    """Base64 of values below q, each in ceil(log2 q) bits, most significant
    bit first, zero-padded to a byte."""
    shifts = np.arange((q - 1).bit_length() - 1, -1, -1, dtype=np.uint8)
    bits = np.asarray(values, dtype=np.uint8).reshape(-1, 1) >> shifts & 1
    return binascii.b2a_base64(np.packbits(bits).tobytes(),
                               newline=False).decode("ascii")


def dump_public(pk: PublicKey) -> str:
    out = ["%s %d %d %d" % (PUBLIC_MAGIC, pk.q, pk.n, pk.t), *pk.alphabet.to_lines()]
    for head, block in (("MONO0 %d" % len(pk.mono0), pk.mono0),
                        ("MONOY %d" % len(pk.monoy), pk.monoy),
                        ("C0", pk.C0), ("CY", pk.Cy)):
        out += [head, _pack_line(block, pk.q)]
    return "\n".join(out) + "\n"


def _parse_header(line: str, magic: str = MAGIC):
    parts = line.split()
    if len(parts) != 4 or parts[0] != magic:
        raise FormatError("expected '%s q n t' header, got %r" % (magic, line))
    try:
        q, n, t = (parse_decimal(tok) for tok in parts[1:])
    except ValueError as exc:
        raise FormatError("non-numeric key header (canonical decimals only): "
                          "%r" % line) from exc
    if t < 2:
        raise FormatError("key weight t=%d is below 2" % t)
    return q, n, t


def _read_alphabet(first: str, lines, q: int) -> Alphabet:
    """The alphabet block whose header line is first, over the key's F_q;
    its letter lines are the next ones in the iterator lines."""
    if not first.startswith("ALPHABET"):
        raise FormatError("missing alphabet block")
    try:
        count = parse_decimal(first.split()[3])
    except (ValueError, IndexError) as exc:
        raise FormatError("bad alphabet header: %r" % first) from exc
    block = [first, *itertools.islice(lines, count)]
    if len(block) != 1 + count:
        raise FormatError("alphabet block is truncated")
    try:
        alphabet = Alphabet.from_lines(block)
    except (ValueError, IndexError) as exc:
        raise FormatError("bad alphabet block") from exc
    if alphabet.q != q:
        raise FormatError("the alphabet is over F_%d, the key over F_%d"
                          % (alphabet.q, q))
    return alphabet


def _block_head(line: str, tag: str, counted: bool) -> int | None:
    """The row count of a block head line 'tag M', or None for a line 'tag'."""
    parts = line.split()
    if parts[:1] != [tag] or len(parts) != 1 + counted:
        raise FormatError("expected the %r block, got %r" % (tag, line))
    if not counted:
        return None
    try:
        return parse_decimal(parts[1])
    except ValueError as exc:
        raise FormatError("bad %s row count: %r" % (tag, line)) from exc


def _payload(lines, tag: str, count: int, q: int) -> bytes:
    """The bytes of the base64 line after the head of block tag, checked to
    be the canonical encoding of exactly the bytes that count values take;
    a block of no bytes has no line."""
    nbytes = -(-count * (q - 1).bit_length() // 8)
    if not nbytes:
        return b""
    line = next(lines, "").strip()
    # checked before decoding, so that a line is decoded only when its
    # length is what the counts say
    if len(line) != 4 * -(-nbytes // 3):
        raise FormatError("the %s block needs %d bytes of base64" % (tag, nbytes))
    try:
        raw = binascii.a2b_base64(line)
    except binascii.Error as exc:
        raise FormatError("the %s block is not base64" % tag) from exc
    if len(raw) != nbytes or binascii.b2a_base64(raw, newline=False) != line.encode("ascii"):
        raise FormatError("the %s block is not the canonical base64 of %d bytes"
                          % (tag, nbytes))
    return raw


def _unpack(raw: bytes, count: int, q: int, tag: str) -> np.ndarray:
    """The count values below q that _pack_line wrote into raw."""
    b = (q - 1).bit_length()
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[count * b:].any():
        raise FormatError("the %s block has a nonzero pad bit" % tag)
    vals = np.zeros(count, dtype=np.uint8)
    for col in bits[: count * b].reshape(count, b).T:
        vals = vals << 1 | col
    if (vals >= q).any():
        raise FormatError("the %s block has a value outside F_%d" % (tag, q))
    return vals


def _check_table(mono: np.ndarray, q: int, t: int, tag: str) -> None:
    if (mono.sum(axis=1) > t).any():
        raise FormatError("the %s table has a monomial of x-degree above t=%d"
                          % (tag, t))
    table, index = monomial_basis(q, mono)
    if len(table) != len(mono) or (index != np.arange(len(mono))).any():
        raise FormatError("the %s table is not strictly increasing" % tag)


def _read_blocks(lines, base, n: int, t: int, alphabet) -> PublicKey:
    """The HPE2 blocks that follow the alphabet.  Every line is checked
    against the counts of the header and the block heads before a block is
    unpacked, so no block is larger than the text it came from."""
    q = base.q
    if n < 1:
        raise FormatError("a public key has at least one equation, not n=%d" % n)
    m0 = _block_head(next(lines, ""), "MONO0", True)
    raw_m0 = _payload(lines, "MONO0", m0 * n, q)
    my = _block_head(next(lines, ""), "MONOY", True)
    if my < 1:
        # CY's n * n * My cells are then what bounds n by the text
        raise FormatError("the key has no monomial with a y")
    raw_my = _payload(lines, "MONOY", my * n, q)
    _block_head(next(lines, ""), "C0", False)
    raw_c0 = _payload(lines, "C0", n * m0, q)
    _block_head(next(lines, ""), "CY", False)
    raw_cy = _payload(lines, "CY", n * n * my, q)
    extra = next(lines, None)
    if extra is not None:
        raise FormatError("unexpected line after the CY block: %r" % extra)
    mono0 = _unpack(raw_m0, m0 * n, q, "MONO0").reshape(m0, n)
    monoy = _unpack(raw_my, my * n, q, "MONOY").reshape(my, n)
    C0 = _unpack(raw_c0, n * m0, q, "C0").reshape(n, m0)
    Cy = _unpack(raw_cy, n * n * my, q, "CY").reshape(n, n, my)
    _check_table(mono0, q, t, "MONO0")
    _check_table(monoy, q, t, "MONOY")
    # PublicKey drops such monomials, and the file would not read back as
    # written
    if not (C0.any(axis=0).all() and Cy.any(axis=(0, 1)).all()):
        raise FormatError("a monomial of the key has no nonzero coefficient")
    return PublicKey(base, n, t, mono0, C0, monoy, Cy, alphabet)


def load_public(text: str) -> PublicKey:
    if not text.isascii():
        raise FormatError("a public key is ASCII text")
    lines = (line for line in text.splitlines() if line.strip())
    header = next(lines, None)
    if header is None:
        raise FormatError("empty public key")
    if header.split()[:1] == [MAGIC]:
        if next(lines, "").startswith("F "):
            raise FormatError("this is a private key file, not a public one")
        raise FormatError("the HPE1 public key format is retired; "
                          "public keys are read as HPE2 only")
    q, n, t = _parse_header(header, PUBLIC_MAGIC)
    try:
        base = base_field(q)
    except InvalidOrder as exc:
        raise FormatError("bad key header: %s" % exc) from exc
    alphabet = _read_alphabet(next(lines, ""), lines, q)
    return _read_blocks(lines, base, n, t, alphabet)


def _matrix_lines(name: str, mat: np.ndarray, q: int) -> list:
    return [name, *_digits_str(mat, q)]


def _parse_matrix(lines: list, pos: int, name: str, q: int, n: int):
    if pos >= len(lines) or lines[pos].split() != [name]:
        raise FormatError("expected matrix %r" % name)
    rows = lines[pos + 1:pos + 1 + n]
    if len(rows) != n:
        raise FormatError("matrix %r has %d rows, not %d" % (name, len(rows), n))
    return _parse_digits(rows, q, n).astype(np.uint8), pos + 1 + n


def _parse_shift(lines: list, pos: int, name: str, q: int, n: int):
    parts = lines[pos].split()
    if len(parts) != 2 or parts[0] != name:
        raise FormatError("expected shift %r" % name)
    return _parse_digits([parts[1]], q, n)[0].astype(np.uint8), pos + 1


def dump_private(sk: PrivateKey) -> str:
    q = sk.base.q
    out = ["%s %d %d %d" % (MAGIC, q, sk.n, sk.priv.t())]
    out.append(sk.field.descriptor())
    out.extend(sk.alphabet.to_lines())
    out.extend(sk.priv.to_lines())
    out.extend(_matrix_lines("A", sk.affine.a_mat, q))
    out.append("c %s" % dump_vector(sk.affine.c_vec, q))
    out.extend(_matrix_lines("B", sk.affine.b_mat, q))
    out.append("d %s" % dump_vector(sk.affine.d_vec, q))
    return "\n".join(out) + "\n"


def load_private(text: str) -> PrivateKey:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty private key")
    q, n, t = _parse_header(lines[0])
    if len(lines) < 2:
        raise FormatError("private key ends after its header")
    if not lines[1].startswith("F "):
        raise FormatError("this is a public key file, not a private one")
    try:
        field = parse_descriptor(lines[1])
    except (ValueError, IndexError) as exc:
        raise FormatError("bad field descriptor: %r" % lines[1]) from exc
    except (InvalidOrder, InvalidDegree, NotIrreducible) as exc:
        raise FormatError("bad field descriptor: %s" % exc) from exc
    if field.q != q or field.n != n:
        raise FormatError("field descriptor does not match key header")
    rest = iter(lines[3:])
    alphabet = _read_alphabet(lines[2] if len(lines) > 2 else "", rest, q)
    lines, pos = list(rest), 0
    term_lines = []
    while pos < len(lines) and lines[pos].split()[0] in ("MIX", "PUREX", "CONST"):
        term_lines.append(lines[pos])
        pos += 1
    priv = PrivatePolynomial.from_lines(term_lines)
    if not priv.mixed:
        raise FormatError("private relation has no mixed term")
    for coeff, xth, yth in priv.terms():
        levels = xth if yth is None else (*xth, yth)
        if not (0 <= coeff < field.order and all(0 <= lv < n for lv in levels)):
            raise FormatError("private relation has a level or coefficient "
                              "out of range")
    if priv.deg_x(q) > MAX_DEGX:
        raise FormatError("private relation has X-degree %d, above %d"
                          % (priv.deg_x(q), MAX_DEGX))
    try:
        a_mat, pos = _parse_matrix(lines, pos, "A", q, n)
        c_vec, pos = _parse_shift(lines, pos, "c", q, n)
        b_mat, pos = _parse_matrix(lines, pos, "B", q, n)
        d_vec, pos = _parse_shift(lines, pos, "d", q, n)
    except (ValueError, IndexError) as exc:
        raise FormatError("bad affine mask block") from exc
    if priv.t() != t:
        raise FormatError("stated weight %d does not match terms" % t)
    if min(rank(field.base, a_mat), rank(field.base, b_mat)) < n:
        raise FormatError("affine mask is not invertible")
    affine = AffinePair(field.base, a_mat, c_vec, b_mat, d_vec)
    return PrivateKey(field, priv, affine, alphabet)


def dump_signature(salt: int, x_vec, q: int) -> str:
    return "SIG1 %d %s\n" % (salt, dump_vector(x_vec, q))


def parse_signature(text: str, q: int, n: int):
    parts = text.split()
    if len(parts) != 3 or parts[0] != "SIG1":
        raise FormatError("expected 'SIG1 salt digits'")
    try:
        salt = parse_decimal(parts[1])
    except ValueError as exc:
        raise FormatError("bad salt: %r" % parts[1]) from exc
    if not 0 <= salt < 1 << 64:
        raise FormatError("salt %d is outside 0..2^64-1" % salt)
    return salt, parse_vector(parts[2], q, n)
