"""Text formats for keys, ciphertexts, and signatures.

Everything is line-oriented ASCII.  Digit vectors are compact strings
for q <= 10 and comma-separated otherwise.

A public key file (HPE1) is the header 'HPE1 q n t', the alphabet block,
then per equation k a line 'EQ k T' and T term lines 'c : e_1 .. e_2n'
(coefficient, then the exponents of x_1..x_n, y_1..y_n).  The term lines
are written and read as byte arrays, one equation at a time, with no
Python work per term; a term token is decimal ASCII digits.  Writing walks
the nonzero coefficients of the key (PublicKey.equation_terms); reading
adds the terms into the key's coefficient blocks (PublicKey.from_terms).

A private key file stores the field tower, the alphabet, the hidden
relation and the masks, not the public equations: a loaded PrivateKey
expands those only when its public attribute is first read.
"""

import itertools

import numpy as np

from ..errors import (FormatError, InvalidDegree, InvalidOrder, NotIrreducible,
                      SingularMatrix)
from ..fields import base_field, parse_descriptor
from .alphabet import Alphabet, _digits_str, _parse_digits
from .keygen import expand_keypair  # noqa: F401  (PrivateKey.public calls it here)
from .keys import AffinePair, PrivateKey, PrivatePolynomial, PublicKey

MAGIC = "HPE1"


def dump_vector(vec, q: int) -> str:
    return _digits_str([int(d) for d in vec], q)


def parse_vector(text: str, q: int, n: int) -> np.ndarray:
    try:
        return np.array(_parse_digits(text.strip(), q, n), dtype=np.uint8)
    except (ValueError, IndexError) as exc:
        raise FormatError("bad digit vector: %r" % text.strip()) from exc


def _token_table(q: int) -> tuple:
    """(table, w): row v < q of the uint8 table is the decimal token of v
    and row q is ':', each left-aligned in w bytes (w the widest token),
    then a space, then zero bytes up to a row of 2 or 4 bytes."""
    tokens = [str(v).encode("ascii") for v in range(q)] + [b":"]
    w = max(map(len, tokens))
    table = np.zeros((q + 1, 2 if w == 1 else 4), dtype=np.uint8)
    for v, tok in enumerate(tokens):
        table[v, : len(tok)] = np.frombuffer(tok, dtype=np.uint8)
    table[:, w] = ord(" ")
    return table, w


def dump_public(pk: PublicKey) -> str:
    head = ["%s %d %d %d" % (MAGIC, pk.q, pk.n, pk.t), *pk.alphabet.to_lines(), ""]
    out = ["\n".join(head)]
    table, w = _token_table(pk.q)
    # A row of the table is one 2- or 4-byte word, so rendering is one
    # gather of words.  One equation at a time, so only its cells are
    # alive: each term line is 2n + 2 cells (coefficient, ':', 2n
    # exponents), and dropping the zero bytes of the cells leaves the
    # text.  Joining one str per equation leaves no copy of the text (47 MB
    # at n=32) besides the pieces and the result.
    words = table.view("u%d" % table.shape[1]).ravel()
    for k in range(pk.n):
        coeffs, exps = pk.equation_terms(k)
        cells = np.empty((len(coeffs), 2 * pk.n + 2), dtype=np.uint8)
        cells[:, 0], cells[:, 1], cells[:, 2:] = coeffs, pk.q, exps
        chars = words.take(cells).view(np.uint8).reshape(*cells.shape, -1)
        chars[:, -1, w] = ord("\n")
        out.append("EQ %d %d\n" % (k, len(coeffs)))
        out.append(chars.tobytes().replace(b"\0", b"").decode("ascii"))
    return "".join(out)


def _parse_header(line: str):
    parts = line.split()
    if len(parts) != 4 or parts[0] != MAGIC:
        raise FormatError("expected '%s q n t' header, got %r" % (MAGIC, line))
    try:
        q, n, t = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError as exc:
        raise FormatError("non-numeric key header: %r" % line) from exc
    if t < 2:
        raise FormatError("key weight t=%d is below 2" % t)
    return q, n, t


def _read_alphabet(first: str, lines) -> Alphabet:
    """The alphabet block whose header line is first; its letter lines are
    the next ones in the iterator lines."""
    if not first.startswith("ALPHABET"):
        raise FormatError("missing alphabet block")
    try:
        count = int(first.split()[3])
    except (ValueError, IndexError) as exc:
        raise FormatError("bad alphabet header: %r" % first) from exc
    block = [first, *itertools.islice(lines, max(count, 0))]
    if len(block) != 1 + count:
        raise FormatError("alphabet block is truncated")
    try:
        return Alphabet.from_lines(block)
    except (ValueError, IndexError) as exc:
        raise FormatError("bad alphabet block") from exc


# The ASCII line breaks of str.splitlines become newlines and the other
# ASCII whitespace of str.split becomes spaces, so that a key file reads
# the same as bytes as it did as text.
_NORMALIZE = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e\t\x1f", b"\n" * 6 + b" " * 2)


class _Lines:
    """Iterator over the non-blank lines of normalized ASCII data that ends
    with a newline; pos is the offset just past the last line returned."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        while self.pos < len(self.data):
            end = self.data.find(b"\n", self.pos)
            line, self.pos = self.data[self.pos:end], end + 1
            if line.strip():
                return line.decode("ascii")
        raise StopIteration


def _equation_heads(data: bytes, pos: int) -> list:
    """Offsets of the lines of data[pos:] whose first token begins 'EQ'."""
    heads = []
    hit = data.find(b"EQ", pos)
    while hit >= 0:
        start = max(data.rfind(b"\n", pos, hit) + 1, pos)
        if not data[start:hit].strip():
            heads.append(start)
        hit = data.find(b"EQ", hit + 2)
    return heads


def _parse_terms(body: np.ndarray, k: int, n: int, q: int, t: int,
                 nterms: int) -> tuple:
    """(slot, coeff, x exponent rows) of equation k from the bytes of its
    term lines: nterms non-blank lines 'c : e_1 .. e_2n' of decimal tokens,
    blank lines and runs of spaces allowed, the last line ending in a
    newline."""
    digit = (body - ord("0")) < 10  # uint8 arithmetic wraps below '0'
    colon, newline = body == ord(":"), body == ord("\n")
    if not (digit | colon | newline | (body == ord(" "))).all():
        raise FormatError("bad character in the terms of equation %d" % k)
    # A token is a maximal run of digits.  Line i ends at the i-th
    # newline, so the tokens and colons before that newline count its own.
    first, last = digit.copy(), digit.copy()
    first[1:] &= ~digit[:-1]
    last[:-1] &= ~digit[1:]
    starts, ends = np.flatnonzero(first), np.flatnonzero(last) + 1
    colons, line_ends = np.flatnonzero(colon), np.flatnonzero(newline)
    tokens = np.diff(np.searchsorted(starts, line_ends), prepend=0)
    marks = np.diff(np.searchsorted(colons, line_ends), prepend=0)
    filled = (tokens > 0) | (marks > 0)
    if filled.sum() != nterms:
        raise FormatError("equation %d has %d term lines, not %d"
                          % (k, filled.sum(), nterms))
    # each term line: 2n + 1 tokens and one ':', right after the first
    width = 2 * n + 1
    if ((tokens[filled] != width).any() or (marks[filled] != 1).any()
            or (np.searchsorted(starts, colons)
                != np.arange(nterms) * width + 1).any()):
        raise FormatError("malformed term line in equation %d" % k)
    # Horner over the digits; values of q and above all read as q
    size = ends - starts
    vals = body[starts].astype(np.int32) - ord("0")
    for j in range(1, int(size.max(initial=0))):
        more = np.flatnonzero(size > j)
        vals[more] = np.minimum(
            vals[more] * 10 + (body[starts[more] + j] - ord("0")), q)
    vals = vals.reshape(nterms, width)
    coeff, x, y = vals[:, 0], vals[:, 1 : n + 1], vals[:, n + 1 :]
    if ((coeff == 0) | (coeff >= q)).any():
        raise FormatError("coefficient outside F_%d^* in equation %d" % (q, k))
    if (x >= q).any():
        raise FormatError("x exponent not reduced by x^q = x in equation %d" % k)
    if (y > 1).any() or (y.sum(axis=1) > 1).any():
        raise FormatError("equation %d is not linear in y" % k)
    if (x.sum(axis=1) > t).any():
        raise FormatError("equation %d has a term of x-degree above t=%d" % (k, t))
    slot = k * (n + 1) + np.where(y.any(axis=1), y.argmax(axis=1) + 1, 0)
    return slot, coeff.astype(np.uint8), x.astype(np.uint8)


def load_public(text: str) -> PublicKey:
    try:
        data = text.encode("ascii").translate(_NORMALIZE)
    except UnicodeEncodeError as exc:
        raise FormatError("a public key is ASCII text") from exc
    if not data.endswith(b"\n"):
        data += b"\n"
    lines = _Lines(data)
    header = next(lines, None)
    if header is None:
        raise FormatError("empty public key")
    q, n, t = _parse_header(header)
    second = next(lines, "")
    if second.startswith("F "):
        raise FormatError("this is a private key file, not a public one")
    alphabet = _read_alphabet(second, lines)
    try:
        base = base_field(q)
    except InvalidOrder as exc:
        raise FormatError("bad key header: %s" % exc) from exc
    bounds = _equation_heads(data, lines.pos) + [len(data)]
    if data[lines.pos : bounds[0]].strip():
        raise FormatError("expected an equation header after the alphabet")
    cols = []
    for start, stop in zip(bounds, bounds[1:]):
        eol = data.find(b"\n", start)
        head = data[start:eol].decode("ascii")
        parts = head.split()
        if parts[0] != "EQ" or len(parts) != 3:
            raise FormatError("expected equation header, got %r" % head)
        try:
            k, nterms = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FormatError("bad equation header: %r" % head) from exc
        if k != len(cols):
            raise FormatError("equations out of order at %r" % head)
        body = np.frombuffer(data, dtype=np.uint8, count=stop - eol - 1,
                             offset=eol + 1)
        cols.append(_parse_terms(body, k, n, q, t, nterms))
    if len(cols) != n:
        raise FormatError("expected %d equations, found %d" % (n, len(cols)))
    return PublicKey.from_terms(
        base, n, t, *(np.concatenate(col) for col in zip(*cols)), alphabet)


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
    alphabet = _read_alphabet(lines[2] if len(lines) > 2 else "", rest)
    lines, pos = list(rest), 0
    term_lines = []
    while pos < len(lines) and lines[pos].split()[0] in ("MIX", "PUREX", "CONST"):
        term_lines.append(lines[pos])
        pos += 1
    priv = PrivatePolynomial.from_lines(term_lines)
    if not priv.mixed:
        raise FormatError("private relation has no mixed term")
    levels = [lv for _, xth, yth in priv.mixed for lv in (*xth, yth)]
    levels += [lv for _, xth in priv.pure for lv in xth]
    coeffs = [term[0] for term in (*priv.mixed, *priv.pure)] + [priv.const]
    if (not all(0 <= lv < n for lv in levels)
            or not all(0 <= c < field.order for c in coeffs)):
        raise FormatError("private relation has a level or coefficient "
                          "out of range")
    try:
        a_mat, pos = _parse_matrix(lines, pos, "A", q, n)
        c_vec, pos = _parse_shift(lines, pos, "c", q, n)
        b_mat, pos = _parse_matrix(lines, pos, "B", q, n)
        d_vec, pos = _parse_shift(lines, pos, "d", q, n)
    except (ValueError, IndexError) as exc:
        raise FormatError("bad affine mask block") from exc
    if priv.t() != t:
        raise FormatError("stated weight %d does not match terms" % t)
    try:
        affine = AffinePair(field.base, a_mat, c_vec, b_mat, d_vec)
    except SingularMatrix as exc:
        raise FormatError("affine mask is not invertible") from exc
    return PrivateKey(field, priv, affine, alphabet)


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
