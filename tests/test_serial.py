import functools
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpe import (KeyGenParams, dump_private, dump_public, dump_signature,
                 dump_vector, keygen, load_private, load_public,
                 parse_signature, parse_vector, sigs)
from hpe.core import protocol, serial
from hpe.core.alphabet import Alphabet
from hpe.core.keys import MAX_MASK_VARS, PublicKey, merge_terms, x_part
from hpe.errors import FormatError, InvalidOrder
from hpe.fields import base_field

# SHA-256 of dump_public(keygen(KeyGenParams(q, n, seed=s))[0]), recorded
# before the public key moved to one flat term table; any change in term
# order or formatting shows here.  The q=2 n=32 keys, recorded before the
# key expansion moved to block-local factors, carry repeated Frobenius
# levels (seed 1 has the pure term u^(2+2+4) = u^8).  The q=8 and q=9 keys,
# recorded while prime-power fields still expanded through a table-driven
# loop of their own, cover r > 1 with p = 2 and odd p; q=9 needs
# degX_max = 10 for its least mixed X exponent 1 + q.  The q=11 and q=16
# keys, recorded before the term lines were written and read as byte
# arrays, cover two-digit tokens.
PINNED_PUBLIC_DIGESTS = {
    (2, 32, 1): "b9597b4c9a665924f63c1cc52e87e0ce40cb0c30190a845b182c024b8b136900",
    (2, 32, 3): "d71f73b08195b60d29b385d1cf9cf02167d1d2e142402a0ba196269aaf2fea86",
    (2, 12, 103): "bb52e3cdb6f2965550f9b92fd89b3b2a7f829d82aef43b7789f06d50e6632b2d",
    (3, 5, 635): "6b66820052465c8f2cc0c74f1098717f990e70e9ab68bf9a04bab7a58ec8c43e",
    (4, 4, 644): "1b850c26f54b2e19fedfdd9d4278775385e0c56d784807103ca52a37af6dc97b",
    (8, 4, 808): "fe5e5cb7fee6e381cdd42030a24df6cae09c9973b88a507a52fcdedf6bbb2009",
    (9, 4, 909): "f234dc4251314e392f39d2395ac92abe1f0e68c7eef4d5ebbbd978d478ecf4ef",
    (11, 3, 1111): "58ebeb22df17c65e91d75141cad16d31f4fc1fda04696f04b32f515d10d7794e",
    (16, 3, 1616): "1e97340f2473143879f329d630af93c6ca64d7957b4b2550acf134b8c615a732",
}


def test_vector_round_trip_compact_digits():
    vec = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    text = dump_vector(vec, 2)
    assert text == "10110"
    assert np.array_equal(parse_vector(text, 2, 5), vec)


def test_vector_round_trip_comma_digits():
    vec = np.array([0, 12, 3, 15], dtype=np.uint8)
    text = dump_vector(vec, 16)
    assert "," in text
    assert np.array_equal(parse_vector(text, 16, 4), vec)


def test_vector_parse_errors():
    with pytest.raises(FormatError):
        parse_vector("10a1", 2, 4)
    with pytest.raises(FormatError):
        parse_vector("101", 2, 4)
    with pytest.raises(FormatError):
        parse_vector("121", 2, 3)


def test_public_key_round_trip(pair12):
    pk, _ = pair12
    text = dump_public(pk)
    assert text.splitlines()[0] == "HPE1 2 12 3"
    again = load_public(text)
    assert dump_public(again) == text
    assert again.term_count() == pk.term_count()
    y = np.zeros(12, dtype=np.uint8)
    x = np.ones(12, dtype=np.uint8)
    assert np.array_equal(again.eval_at(x, y), pk.eval_at(x, y))


def test_private_key_round_trip(pair12):
    pk, sk = pair12
    text = dump_private(sk)
    assert text.splitlines()[0] == "HPE1 2 12 3"
    again = load_private(text)
    assert dump_private(again) == text
    # The public half is expanded on first use and must match exactly.
    assert dump_public(again.public) == dump_public(pk)


def test_loaded_private_key_expands_public_only_on_use(pair12):
    pk, sk = pair12
    again = load_private(dump_private(sk))
    assert again.alphabet.to_lines() == sk.alphabet.to_lines()
    msg = pk.alphabet.letters[: pk.alphabet.blocks_for(pk.n)]
    rng = random.Random(5)
    y, _ = protocol.encrypt(pk, msg, rng)
    assert msg in protocol.decrypt(again, y)
    sig = sigs.sign(again, msg, rng)
    assert again._public is None
    assert sigs.verify(pk, msg, sig)
    assert dump_public(again.public) == dump_public(pk)
    assert again._public is not None


def test_key_kind_detection(pair12):
    pk, sk = pair12
    with pytest.raises(FormatError):
        load_public(dump_private(sk))
    with pytest.raises(FormatError):
        load_private(dump_public(pk))


def test_header_rejects_garbage():
    for text in ("", "HPE2 2 12 3\n", "HPE1 2 12\n", "HPE1 a b c\n"):
        with pytest.raises(FormatError):
            load_public(text)
        with pytest.raises(FormatError):
            load_private(text)


def _mutate_lines(text, idx, new_line):
    lines = text.splitlines()
    if new_line is None:
        del lines[idx]
    else:
        lines[idx] = new_line
    return "\n".join(lines) + "\n"


def test_public_key_strictness(pair12):
    pk, _ = pair12
    text = dump_public(pk)
    lines = text.splitlines()
    first_term = next(i for i, ln in enumerate(lines) if ":" in ln)
    coeff, exps = lines[first_term].split(":")
    # Zero or out-of-field coefficients are rejected.
    for bad_coeff in ("0", "2", "-1"):
        bad = _mutate_lines(text, first_term, "%s :%s" % (bad_coeff, exps))
        with pytest.raises(FormatError):
            load_public(bad)
    # A y-squared exponent cannot appear in a published equation.
    digits = exps.split()
    digits[-1] = "2"
    bad = _mutate_lines(text, first_term, "%s : %s" % (coeff, " ".join(digits)))
    with pytest.raises(FormatError):
        load_public(bad)
    # Truncating an equation breaks the term count.
    with pytest.raises(FormatError):
        load_public(_mutate_lines(text, first_term, None))


def test_public_key_weight_checked(pair12):
    # t below 2 cannot come from keygen, and no term may exceed x-degree t.
    text = dump_public(pair12[0])
    for header in ("HPE1 2 12 1", "HPE1 2 12 0", "HPE1 2 12 -1"):
        with pytest.raises(FormatError, match="below 2"):
            load_public(text.replace("HPE1 2 12 3", header, 1))
    lines = text.splitlines()
    first_term = next(i for i, ln in enumerate(lines) if ":" in ln)
    exps = lines[first_term].split(":")[1].split()
    exps[:4] = ["1"] * 4
    bad = _mutate_lines(text, first_term, "1 : " + " ".join(exps))
    with pytest.raises(FormatError, match="x-degree above t=3"):
        load_public(bad)


def test_public_key_strictness_exponent_rows():
    # q = 3 stores exponent rows, not bitmasks; the same rules apply.
    pk, _ = keygen(KeyGenParams(q=3, n=5, seed=635))
    text = dump_public(pk)
    lines = text.splitlines()
    first_term = next(i for i, ln in enumerate(lines) if ":" in ln)
    coeff, exps = lines[first_term].split(":")
    digits = exps.split()
    for pos, value in ((0, "3"), (-1, "2")):
        bad_digits = list(digits)
        bad_digits[pos] = value
        bad = _mutate_lines(text, first_term,
                            "%s : %s" % (coeff, " ".join(bad_digits)))
        with pytest.raises(FormatError):
            load_public(bad)
    with pytest.raises(FormatError):
        load_public(_mutate_lines(text, first_term, "3 :%s" % exps))
    # A repeated term line merges: 1 + 1 = 2, and 2 + 1 = 0 drops the term.
    eq_idx = first_term - 1
    k, count = lines[eq_idx].split()[1:]
    for add, merged in (("1", 2), ("2", None)):
        twice = lines[:eq_idx] + ["EQ %s %d" % (k, int(count) + 1)]
        twice += ["1 :%s" % exps, add + " :%s" % exps] + lines[first_term + 1:]
        again = load_public("\n".join(twice) + "\n")
        terms = again.equations()[int(k)].terms
        key = tuple(int(e) for e in digits)
        assert terms.get(key) == merged
        assert again.term_count() == pk.term_count() - (merged is None)


@pytest.mark.parametrize("q,n,seed", sorted(PINNED_PUBLIC_DIGESTS))
def test_public_key_format_pinned(q, n, seed):
    params = KeyGenParams(q=q, n=n, seed=seed, degX_max=max(9, q + 1))
    text = dump_public(keygen(params)[0])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED_PUBLIC_DIGESTS[(q, n, seed)]
    assert dump_public(load_public(text)) == text


def test_public_key_rejects_oversized_q2(pair12):
    # q = 2 keys stop at MAX_MASK_VARS variables; a header beyond it is
    # refused before any term is read.
    text = dump_public(pair12[0])
    with pytest.raises(FormatError, match="at most 48"):
        load_public(text.replace("HPE1 2 12 3", "HPE1 2 49 3", 1))


def test_public_key_equation_order_enforced(pair12):
    pk, _ = pair12
    text = dump_public(pk)
    lines = text.splitlines()
    eq_idx = next(i for i, ln in enumerate(lines) if ln.startswith("EQ 1 "))
    bad = _mutate_lines(text, eq_idx, lines[eq_idx].replace("EQ 1 ", "EQ 5 "))
    with pytest.raises(FormatError):
        load_public(bad)


def test_private_key_strictness(pair12):
    _, sk = pair12
    text = dump_private(sk)
    # Stated weight must match the terms that follow.
    bad = text.replace("HPE1 2 12 3", "HPE1 2 12 4", 1)
    with pytest.raises(FormatError):
        load_private(bad)
    # The field descriptor must agree with the header.
    bad = _mutate_lines(text, 0, "HPE1 2 13 3")
    with pytest.raises(FormatError):
        load_private(bad)
    # Dropping the affine block truncates the file.
    lines = text.splitlines()
    a_idx = next(i for i, ln in enumerate(lines) if ln == "A")
    with pytest.raises(FormatError):
        load_private("\n".join(lines[:a_idx]) + "\n")
    # A weight below 2 is refused as in a public key.
    with pytest.raises(FormatError, match="below 2"):
        load_private(text.replace("HPE1 2 12 3", "HPE1 2 12 0", 1))
    # Frobenius levels stay below n and coefficients inside F_(q^n), since
    # the public key that used to be expanded on load is not built now.
    const = next(ln for ln in lines if ln.startswith("CONST "))
    mix = next(ln for ln in lines if ln.startswith("MIX "))
    for old, new in ((const, "CONST 4096"), (mix, mix.rsplit(":", 1)[0] + ": 12"),
                     (mix, mix.rsplit(":", 1)[0] + ": -1")):
        with pytest.raises(FormatError, match="out of range"):
            load_private(text.replace(old, new, 1))
    # A singular mask is malformed input, not a linear algebra error.
    bad = lines[:a_idx + 1] + [lines[a_idx + 1]] * 12 + lines[a_idx + 13:]
    with pytest.raises(FormatError, match="not invertible"):
        load_private("\n".join(bad) + "\n")


# Files whose header or field descriptor names a field that cannot exist:
# the order is no prime power, the degree is below 2, or the modulus is
# reducible.  The field layer's parameter errors surface as FormatError.
BAD_FIELD_LINES = (
    ("private", 1, "F 2 2 1 1 1"),
    ("private", 1, "F 2 2 4 0 0 0 0 1"),
    ("public", 0, "HPE1 6 4 3"),
)


@pytest.mark.parametrize("kind,idx,line", BAD_FIELD_LINES)
def test_impossible_field_is_format_error(pair12, kind, idx, line):
    pk, sk = pair12
    if kind == "private":
        with pytest.raises(FormatError, match="bad field descriptor"):
            load_private(_mutate_lines(dump_private(sk), idx, line))
    else:
        with pytest.raises(FormatError, match="not a prime power"):
            load_public(_mutate_lines(dump_public(pk), idx, line))


def test_signature_round_trip():
    vec = np.array([1, 0, 1, 1], dtype=np.uint8)
    text = dump_signature(9, vec, 2)
    assert text == "SIG1 9 1011\n"
    salt, got = parse_signature(text, 2, 4)
    assert salt == 9
    assert np.array_equal(got, vec)


def test_signature_parse_errors():
    for text in ("", "SIG2 1 1011", "SIG1 x 1011", "SIG1 -1 1011",
                 "SIG1 1", "SIG1 1 10a1"):
        with pytest.raises(FormatError):
            parse_signature(text, 2, 4)


def test_round_trip_survives_reload_cycle(pair16_hex):
    _, sk = pair16_hex
    text = dump_private(sk)
    sk2 = load_private(text)
    sk3 = load_private(dump_private(sk2))
    assert dump_private(sk3) == text
    assert dump_public(sk3.public) == dump_public(sk.public)


def test_different_seeds_serialize_differently():
    a = keygen(KeyGenParams(q=2, n=12, seed=1))
    b = keygen(KeyGenParams(q=2, n=12, seed=2))
    assert dump_public(a[0]) != dump_public(b[0])
    assert dump_private(a[1]) != dump_private(b[1])


# ---------------------------------------------------------------------------
# The reader against the per-line parser it replaced.


def _oracle_terms(lines, k, n, q, t):
    """The per-line term parser load_public used before it read whole
    equation blocks as bytes, plus the x-degree rule of the weight t."""
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
        raise FormatError("x exponent not reduced")
    if ((y < 0) | (y > 1)).any() or (y.sum(axis=1) > 1).any():
        raise FormatError("not linear in y")
    if (x.sum(axis=1) > t).any():
        raise FormatError("x-degree above t")
    slot = k * (n + 1) + np.where(y.any(axis=1), y.argmax(axis=1) + 1, 0)
    return slot, np.array(coeffs, dtype=np.uint8), x


def _oracle_load_public(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty public key")
    q, n, t = serial._parse_header(lines[0])
    if len(lines) > 1 and lines[1].startswith("F "):
        raise FormatError("private key file")
    if q == 2 and n > MAX_MASK_VARS:
        raise FormatError("too many variables")
    if len(lines) < 2 or not lines[1].startswith("ALPHABET"):
        raise FormatError("missing alphabet block")
    try:
        end = 2 + int(lines[1].split()[3])
    except (ValueError, IndexError) as exc:
        raise FormatError("bad alphabet header") from exc
    if end > len(lines):
        raise FormatError("alphabet block is truncated")
    try:
        alphabet = Alphabet.from_lines(lines[1:end])
    except (ValueError, IndexError) as exc:
        raise FormatError("bad alphabet block") from exc
    try:
        base = base_field(q)
    except InvalidOrder as exc:
        raise FormatError("bad key header") from exc
    pos, cols = end, []
    while pos < len(lines):
        parts = lines[pos].split()
        if parts[0] != "EQ" or len(parts) != 3:
            raise FormatError("expected equation header")
        try:
            k, nterms = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FormatError("bad equation header") from exc
        if k != len(cols):
            raise FormatError("equations out of order")
        if nterms < 0 or pos + 1 + nterms > len(lines):
            raise FormatError("equation is truncated")
        slot, coeff, x = _oracle_terms(lines[pos + 1:pos + 1 + nterms], k, n, q, t)
        cols.append((slot, coeff, x_part(q, n, x)))
        pos += 1 + nterms
    if len(cols) != n:
        raise FormatError("expected %d equations" % n)
    slot, coeff, xpart = merge_terms(
        base, *(np.concatenate(col) for col in zip(*cols)))
    return PublicKey(base, n, t, slot, coeff, xpart, alphabet)


@functools.cache
def _small_key_texts(q):
    n = 4 if q == 2 else 3
    pk, sk = keygen(KeyGenParams(q=q, n=n, seed=q, degX_max=max(9, q + 1)))
    return dump_public(pk), dump_private(sk)


def _mutate(text, edits):
    data = bytearray(text.encode("ascii"))
    for kind, where, byte in edits:
        if kind == "drop line":
            lines = data.split(b"\n")
            del lines[where % len(lines)]
            data = bytearray(b"\n".join(lines))
        elif kind == "truncate":
            del data[where % (len(data) + 1):]
        elif kind == "insert":
            data.insert(where % (len(data) + 1), byte)
        elif data:
            if kind == "set":
                data[where % len(data)] = byte
            else:
                del data[where % len(data)]
    return data.decode("ascii")


def _dumped_or_error(load, text):
    try:
        return dump_public(load(text))
    except FormatError:
        return None


EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete", "drop line", "truncate"]),
              st.integers(0, 1 << 20),
              st.one_of(st.sampled_from(b"0011 \n"),
                        st.sampled_from(b"23456789:\t\r\x0b+_-E"),
                        st.integers(0, 127))),
    min_size=1, max_size=3)


@settings(max_examples=400)
@given(q=st.sampled_from([2, 3, 4, 11]), edits=EDITS)
def test_mutated_key_files_load_or_raise_format_error(q, edits):
    public_text, private_text = _small_key_texts(q)
    text = _mutate(public_text, edits)
    got = _dumped_or_error(load_public, text)
    want = _dumped_or_error(_oracle_load_public, text)
    if got != want:
        # int() read '+1' and '1_0' as numbers; term tokens are digits only
        assert got is None and want is not None
        assert "+" in text or "_" in text
    try:
        load_private(_mutate(private_text, edits))
    except FormatError:
        pass


def test_term_line_layout_matches_the_line_parser():
    text = _small_key_texts(3)[0]
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ":" in ln)
    coeff, exps = lines[i].split(" : ")
    first, rest = exps.split(" ", 1)
    bad_lines = ("%s %s : %s" % (coeff, first, rest),  # ':' after two tokens
                 "%s %s" % (coeff, exps),  # no ':'
                 "%s : : %s" % (coeff, exps),  # two of them
                 ":\n" + lines[i],  # a line of only ':'
                 "%s : %s 0" % (coeff, exps))  # one exponent too many
    for new in bad_lines:
        bad = _mutate_lines(text, i, new)
        assert _dumped_or_error(_oracle_load_public, bad) is None
        assert _dumped_or_error(load_public, bad) is None
    tight = _mutate_lines(text, i, "%s:%s" % (coeff, exps))
    assert dump_public(load_public(tight)) == text


@pytest.mark.parametrize("q", [2, 11])
def test_whitespace_variants_load_to_the_same_key(q):
    text = _small_key_texts(q)[0]
    variants = (text.replace(" ", "\t"), text.replace(" ", "  "),
                text.replace("\n", "\n\n \t\n"), text.replace("\n", "\r\n"),
                text.replace("\n", " \n"), text.rstrip("\n"))
    for variant in variants:
        assert dump_public(load_public(variant)) == text


def test_non_digit_tokens_are_rejected():
    # int() used to accept these forms; tokens are ASCII digits only.
    text = _small_key_texts(11)[0]
    lines = text.splitlines()
    first_term = next(i for i, ln in enumerate(lines) if ":" in ln)
    coeff, exps = lines[first_term].split(":")
    for token in ("+" + coeff.strip(), "1_0", "\u0661"):
        bad = _mutate_lines(text, first_term, "%s :%s" % (token, exps))
        with pytest.raises(FormatError):
            load_public(bad)
