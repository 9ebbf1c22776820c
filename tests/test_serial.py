import binascii
import functools
import hashlib
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpe import (KeyGenParams, dump_private, dump_public, dump_signature,
                 dump_vector, expand_keypair, keygen, load_private,
                 load_public, parse_signature, parse_vector, sigs)
from hpe.core import protocol
from hpe.core.alphabet import default_alphabet
from hpe.core.keys import PrivateKey, PrivatePolynomial, PublicKey, monomial_basis
from hpe.errors import FormatError
from hpe.fields import base_field

from oracles import dump_hpe1

# SHA-256 of the HPE1 text dump_hpe1(keygen(KeyGenParams(q, n),
# random.Random(s))[0]), recorded while dump_public still wrote HPE1, before
# the public key moved to one flat term table; any change in term order or
# formatting, or in the key itself, shows here.  The q=2 n=32 keys, recorded before the
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

# SHA-256 of the HPE2 text dump_public writes for the same keys, recorded
# when HPE2 became the public format.
PINNED_HPE2_DIGESTS = {
    (2, 32, 1): "c66fee1d0196d77f27fe0f9be56597779f37c3dbb6a9ead81fca069178cf8698",
    (2, 32, 3): "12e16366311284c4e040933ea037f32dfb27cbc6d77867c6a7e22c15fccc8f1c",
    (2, 12, 103): "8ccc010f61d177be4101fa98bbec3fecf9d249fb3193e0bb8cd00ec471b12c79",
    (3, 5, 635): "eab8101a187ffeab56bd543ce607d41b351dc216e15ff4c5ffbe2e86205954bf",
    (4, 4, 644): "30fc8d29a2d31b9cb7aea8158676adb45eaeb5e27e0ada562cf7b500a22ebafa",
    (8, 4, 808): "017d20de35977bfdddd694bdde1c117c0e161401adca886658ad459effd0c6c1",
    (9, 4, 909): "0235ed1c6091c207756cc8f76eeca9328eadb6cff2c16b16179cf6d64cde70c3",
    (11, 3, 1111): "2f343a47d19f9e802e3dfc0e9a3d0a35eae7244309c4e835e51e9163ff6f9754",
    (16, 3, 1616): "e04eaa58305f15c2396d1838f700167574ac4dc4cebdef1828e30e8b6e86567a",
}

# SHA-256 of the text dump_private writes for the same keys, recorded before
# the alphabet block and the digit rows were written as one array each.
PINNED_PRIVATE_DIGESTS = {
    (2, 12, 103): "0121d606fa875df63ff00c2a45ce91be033ef49f87bc8a88fbb876e7bb8914b8",
    (2, 32, 1): "b79cd8c5c5e08c6ac249f53ee84b06c3c66e3b17dd308f4c8a34a61813dda764",
    (2, 32, 3): "4e9fd379a07f3a97744a2bc8ea60c467ad3b55180808a9d2ba30ebf8fb265c85",
    (3, 5, 635): "d839b3f2e2f627b1c75a420656aa6272cc95262e2d646b2373a91b1905d77dd8",
    (4, 4, 644): "3ba0e07746dfaa6257b838da3da336f110ba09e5f2e6d4dd2173ba21779228e3",
    (8, 4, 808): "caba84c82aae0f3c60800fa6f8de1d0210372b735c5593c1fce2fe2d8e711e3d",
    (9, 4, 909): "2f455b96dcdf4bbbc1921d32eec9ec9f8b094118e485c289b44b189a25d9dcd6",
    (11, 3, 1111): "01fe2c4cdc5cda5524449b3b500dfae377d33a82625c8ba512d36b3e1ebdbdee",
    (16, 3, 1616): "e1b05f66d392b219d90e9929ef8f48780bc3365c6cf627d819a88875a7c0f212",
}


def _same_blocks(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("mono0", "C0", "monoy", "Cy"))


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


def test_non_ascii_digits_are_format_errors(pair12):
    # int() reads any Unicode decimal digit, so the Arabic-Indic '١٠١١'
    # was the vector 1011: a ciphertext, a signature and a private key each
    # read back as a text that was never written.
    _, sk = pair12
    one = "\u0661"  # ARABIC-INDIC DIGIT ONE
    with pytest.raises(FormatError):
        parse_vector(one + "011", 2, 4)
    with pytest.raises(FormatError):
        parse_vector("0," + one + ",15", 16, 3)
    for token in ("+1", "01", "1_0", " 1"):
        with pytest.raises(FormatError):
            parse_vector("0,%s,15" % token, 16, 3)
    with pytest.raises(FormatError):
        parse_signature("SIG1 5 %s\n" % (one + "0" * 11), 2, 12)
    lines = dump_private(sk).splitlines()
    row = lines.index("A") + 1
    lines[row] = one + lines[row][1:]
    with pytest.raises(FormatError):
        load_private("\n".join(lines) + "\n")


def test_public_key_round_trip(pair12):
    pk, _ = pair12
    text = dump_public(pk)
    assert text.splitlines()[0] == "HPE2 2 12 3"
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
    # The public half expands from the loaded parts and must match exactly.
    public = expand_keypair(again.field, again.priv, again.affine, again.alphabet)
    assert dump_public(public) == dump_public(pk)


def test_loaded_private_key_expands_public_only_on_use(pair12, monkeypatch):
    # Loading, decrypting and signing never expand the public equations.
    pk, sk = pair12

    def refuse(*args):
        raise AssertionError("expand_keypair called")

    for name in ("hpe.core.keygen", "hpe.core.serial"):
        monkeypatch.setattr(sys.modules[name], "expand_keypair", refuse)
    again = load_private(dump_private(sk))
    assert again.alphabet.to_lines() == sk.alphabet.to_lines()
    msg = pk.alphabet.letters[: pk.alphabet.blocks_for(pk.n)]
    rng = random.Random(5)
    y, _ = protocol.encrypt(pk, msg, rng)
    assert msg in protocol.decrypt(again, y)
    sig = sigs.sign(again, msg, rng)
    assert sigs.verify(pk, msg, sig)
    public = expand_keypair(again.field, again.priv, again.affine, again.alphabet)
    assert dump_public(public) == dump_public(pk)


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


def test_public_key_weight_checked(pair12):
    # t below 2 cannot come from keygen.
    text = dump_public(pair12[0])
    for t in ("1", "0"):
        with pytest.raises(FormatError, match="below 2"):
            load_public(text.replace("HPE2 2 12 3", "HPE2 2 12 %s" % t, 1))


@pytest.mark.parametrize("fields", ["+2 12 3", "2 +12 3", "2 12 +3", "2 1_2 3",
                                    "2 12 -1", "2 12 \uff13", "02 12 3",
                                    "2 012 3", "2 12 03", "2 12 00"])
def test_header_takes_ascii_digits_only(pair12, fields):
    # int() reads a sign, underscores, non-ASCII digits and leading zeros,
    # and each would dump back as another header than the one that was read.
    pk, sk = pair12
    for load, text, magic in ((load_public, dump_public(pk), "HPE2"),
                              (load_private, dump_private(sk), "HPE1")):
        bad = text.replace("%s 2 12 3" % magic, "%s %s" % (magic, fields), 1)
        # a public key must be ASCII as a whole
        with pytest.raises(FormatError, match="non-numeric key header|ASCII text"):
            load(bad)


def test_key_numbers_are_canonical_decimals(pair12):
    # The field descriptor 'F +2 01 12 ...' used to load as 'F 2 1 12 ...',
    # and a block row count 'MONO0 0M' as 'MONO0 M'; each would dump back
    # as other text than was read.
    pk, sk = pair12
    text = dump_private(sk)
    descriptor = text.splitlines()[1]
    _, p, r, n, *coeffs = descriptor.split()
    assert (p, r, n) == ("2", "1", "12")
    for tokens in (("+2", "01", n, *coeffs), (p, "01", n, *coeffs),
                   (p, r, "012", *coeffs), (p, r, n, "0" + coeffs[0], *coeffs[1:]),
                   (p, r, n, "+" + coeffs[0], *coeffs[1:])):
        bad = text.replace(descriptor, " ".join(("F",) + tokens), 1)
        with pytest.raises(FormatError, match="bad field descriptor"):
            load_private(bad)
    text = dump_public(pk)
    head = "MONO0 %d" % len(pk.mono0)
    with pytest.raises(FormatError, match="bad MONO0 row count"):
        load_public(text.replace(head, "MONO0 0%d" % len(pk.mono0), 1))


# int() read every one of these.  All but the level -1, which the range check
# refused, then loaded and dumped back as the line on the left, not as the
# text that was read.
@pytest.mark.parametrize("line,bad", [
    ("CONST 2445", "CONST +02445"),
    ("CONST 2445", "CONST 02445"),
    ("MIX 2558 0 3 : 10", "MIX 2558 0 03 : 10"),
    ("MIX 2558 0 3 : 10", "MIX 2558 0 3 : +10"),
    ("MIX 2558 0 3 : 10", "MIX 2558 0 3 : -1"),
    ("PUREX 3323 2", "PUREX 3_323 2"),
    ("ALPHABET 2 4 4", "ALPHABET 2 4 04"),
    ("ALPHABET 2 4 4", "ALPHABET 02 4 4"),
    ("L 65 0101 1111", "L 065 0101 1111"),
])
def test_private_key_numbers_are_canonical_decimals(pair12, line, bad):
    text = dump_private(pair12[1])
    assert line in text.splitlines()
    with pytest.raises(FormatError):
        load_private(text.replace(line, bad, 1))


@pytest.mark.parametrize("q,n,seed", sorted(PINNED_PUBLIC_DIGESTS))
def test_public_key_format_pinned(q, n, seed):
    params = KeyGenParams(q=q, n=n, degX_max=max(9, q + 1))
    pk = keygen(params, random.Random(seed))[0]
    legacy, text = dump_hpe1(pk), dump_public(pk)
    for got, pinned in ((legacy, PINNED_PUBLIC_DIGESTS), (text, PINNED_HPE2_DIGESTS)):
        assert hashlib.sha256(got.encode("utf-8")).hexdigest() == pinned[(q, n, seed)]
    assert _same_blocks(load_public(text), pk)
    assert dump_public(load_public(text)) == text


@pytest.mark.parametrize("q,n,seed", sorted(PINNED_PRIVATE_DIGESTS))
def test_private_key_format_pinned(q, n, seed):
    params = KeyGenParams(q=q, n=n, degX_max=max(9, q + 1))
    text = dump_private(keygen(params, random.Random(seed))[1])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        PINNED_PRIVATE_DIGESTS[(q, n, seed)]
    assert dump_private(load_private(text)) == text


def test_hpe1_public_file_is_retired(pair12):
    # The term-line public format is read no more; private keys keep HPE1.
    with pytest.raises(FormatError, match="HPE1 public key format is retired"):
        load_public(dump_hpe1(pair12[0]))


def test_public_key_q2_above_48_variables_round_trips():
    # q = 2 keys once stopped at 48 variables (the x parts were 64-bit
    # masks).  A key with n = 49 dumps and loads back unchanged; in
    # equation 0 x_0 x_1 comes before x_0 x_48, since q = 2 monomials
    # compare from x_48 down.
    n = 49

    def term(xs, y=None):
        exps = [0] * (2 * n)
        for i in xs:
            exps[i] = 1
        if y is not None:
            exps[n + y] = 1
        return "1 : " + " ".join(map(str, exps))

    # equation k is x_k x_(k+1) + x_k y_k; equation 0 adds x_0 x_48, which
    # is also the first term of equation 48
    rows = np.zeros((n + 1, n), dtype=np.uint8)
    for k in range(n):
        rows[k, [k, (k + 1) % n]] = 1
    rows[n, [0, 48]] = 1
    mono0, i0 = monomial_basis(2, rows)
    monoy, iy = monomial_basis(2, np.eye(n, dtype=np.uint8))
    assert i0[0] < i0[n]
    C0 = np.zeros((n, len(mono0)), dtype=np.uint8)
    C0[np.arange(n), i0[:n]] = 1
    C0[0, i0[n]] = 1
    Cy = np.zeros((n, n, n), dtype=np.uint8)
    Cy[np.arange(n), np.arange(n), iy] = 1
    pk = PublicKey(base_field(2), n, 3, mono0, C0, monoy, Cy,
                   default_alphabet(2, n))
    assert pk.term_count() == 2 * n + 1
    lines = ["HPE1 2 %d 3" % n, *pk.alphabet.to_lines()]
    for k in range(n):
        terms = [term([k, (k + 1) % n]), term([k], y=k)]
        if k == 0:
            terms.insert(1, term([0, 48]))
        lines += ["EQ %d %d" % (k, len(terms)), *terms]
    assert dump_hpe1(pk) == "\n".join(lines) + "\n"
    packed = dump_public(pk)
    again = load_public(packed)
    assert _same_blocks(again, pk)
    assert dump_public(again) == packed


def test_alphabet_tags_are_checked(pair12):
    pk, sk = pair12
    public_text, private_text = dump_public(pk), dump_private(sk)
    letter, second = [ln for ln in public_text.splitlines() if ln.startswith("L ")][:2]
    head = next(ln for ln in public_text.splitlines() if ln.startswith("ALPHABET"))
    # a letter code beyond any character, which chr() cannot take, and the
    # first letter's code given again, which once replaced that letter and
    # left one letter fewer than the header counts
    huge = " ".join(["L", str(10 ** 30), *letter.split()[2:]])
    again = " ".join(["L", letter.split()[1], *second.split()[2:]])
    for old, new in ((letter, "EQ" + letter[1:]), (head, head + " junk"),
                     (head, head.replace("ALPHABET", "ALPHABETxyz") + " junk"),
                     (head, head.replace("ALPHABET", "ALPHABETxyz")),
                     (letter, huge), (second, again)):
        with pytest.raises(FormatError, match="alphabet"):
            load_public(public_text.replace(old, new, 1))
        with pytest.raises(FormatError, match="alphabet"):
            load_private(private_text.replace(old, new, 1))


def test_alphabet_q_must_match_the_key(pair12):
    # An alphabet over F_3 in a q=2 key parses on its own, and its digit 2
    # would index past the key's F_2 tables; the header q must agree.
    pk, sk = pair12
    for load, text in ((load_public, dump_public(pk)),
                       (load_private, dump_private(sk))):
        head = next(ln for ln in text.splitlines() if ln.startswith("ALPHABET"))
        bad = text.replace(head, head.replace("ALPHABET 2 ", "ALPHABET 3 ", 1), 1)
        with pytest.raises(FormatError, match="alphabet"):
            load(bad)


def test_purex_without_levels_reads_back_as_purex(pair12):
    # A pure term with no levels is a constant in value, but its file line
    # stays PUREX: the key dumps back to the text it was read from.
    _, sk = pair12
    priv = sk.priv
    priv = PrivatePolynomial(priv.mixed, priv.pure + ((5, ()),), priv.const)
    text = dump_private(PrivateKey(sk.field, priv, sk.affine, sk.alphabet))
    assert "PUREX 5" in [ln.strip() for ln in text.splitlines()]
    again = load_private(text)
    assert again.priv == priv
    assert dump_private(again) == text


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
    # (A level of -1 is no canonical decimal, refused before the range check:
    # see test_private_key_numbers_are_canonical_decimals.)
    for old, new in ((const, "CONST 4096"), (mix, mix.rsplit(":", 1)[0] + ": 12")):
        with pytest.raises(FormatError, match="out of range"):
            load_private(text.replace(old, new, 1))
    # A singular mask, A or B, is malformed input, not a linear algebra error.
    for name in ("A", "B"):
        at = lines.index(name)
        bad = lines[:at + 1] + [lines[at + 1]] * 12 + lines[at + 13:]
        with pytest.raises(FormatError, match="not invertible"):
            load_private("\n".join(bad) + "\n")


def test_private_relation_x_degree_is_bounded(pair12):
    # Decryption roots f(X, v), whose degree is the relation's X-degree; a
    # level near n would make that q^(n-1).  Above keygen's cap of 64 the
    # file is malformed, and at the cap it still loads.
    _, sk = pair12
    text = dump_private(sk)
    pure = next(ln for ln in text.splitlines() if ln.startswith("PUREX "))
    coeff = pure.split()[1]
    for levels, degree in (("0 6", 65), ("1 11", 2050)):
        with pytest.raises(FormatError, match="X-degree %d" % degree):
            load_private(text.replace(pure, "PUREX %s %s" % (coeff, levels), 1))
    again = load_private(text.replace(pure, "PUREX %s 6" % coeff, 1))
    assert again.priv.deg_x(2) == 64


# Files whose header or field descriptor names a field that cannot exist:
# the order is no prime power, the degree is below 2, the modulus is
# reducible, or the descriptor's p is not prime.  The field layer's
# parameter errors surface as FormatError.
BAD_FIELD_LINES = (
    ("private", 1, "F 2 2 1 1 1"),
    ("private", 1, "F 2 2 4 0 0 0 0 1"),
    ("private", 1, "F 4 1 4 1 2 1 0 1"),
    ("public", 0, "HPE2 6 4 3"),
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


def test_huge_field_order_is_refused_at_once(pair12):
    # 2^61 - 1 is prime: trial division up to its square root would take
    # minutes before the order was found to be too large.
    pk, sk = pair12
    q = (1 << 61) - 1
    text = dump_public(pk)
    header = text.splitlines()[0]
    with pytest.raises(FormatError, match="exceeds the supported"):
        load_public(text.replace(header, header.replace(" 2 ", " %d " % q, 1), 1))
    # A private key names p and r in its field descriptor; p^r with a huge r
    # would be an integer of gigabytes.
    text = dump_private(sk)
    descriptor = text.splitlines()[1]
    for p, r in ((q, 1), (3, 10 ** 10)):
        bad = text.replace(descriptor, "F %d %d %s" % (
            p, r, descriptor.split(None, 3)[3]), 1)
        with pytest.raises(FormatError, match="supported"):
            load_private(bad)


def test_signature_round_trip():
    vec = np.array([1, 0, 1, 1], dtype=np.uint8)
    text = dump_signature(9, vec, 2)
    assert text == "SIG1 9 1011\n"
    salt, got = parse_signature(text, 2, 4)
    assert salt == 9
    assert np.array_equal(got, vec)


def test_signature_parse_errors():
    for text in ("", "SIG2 1 1011", "SIG1 x 1011", "SIG1 -1 1011",
                 "SIG1 1", "SIG1 1 10a1", "SIG1 %d 1011" % (1 << 64)):
        with pytest.raises(FormatError):
            parse_signature(text, 2, 4)


def test_signature_salt_is_canonical_decimal():
    # 'SIG1 +00 1011' was a second text of the signature 'SIG1 0 1011'
    assert parse_signature("SIG1 0 1011", 2, 4)[0] == 0
    for salt in ("+00", "00", "+0", "09", "0_9", "\u0669"):
        with pytest.raises(FormatError, match="bad salt"):
            parse_signature("SIG1 %s 1011" % salt, 2, 4)


def test_round_trip_survives_reload_cycle(pair16_hex):
    _, sk = pair16_hex
    text = dump_private(sk)
    sk2 = load_private(text)
    sk3 = load_private(dump_private(sk2))
    assert dump_private(sk3) == text
    assert (dump_public(expand_keypair(sk3.field, sk3.priv, sk3.affine, sk3.alphabet))
            == dump_public(expand_keypair(sk.field, sk.priv, sk.affine, sk.alphabet)))


def test_different_seeds_serialize_differently():
    a = keygen(KeyGenParams(q=2, n=12), random.Random(1))
    b = keygen(KeyGenParams(q=2, n=12), random.Random(2))
    assert dump_public(a[0]) != dump_public(b[0])
    assert dump_private(a[1]) != dump_private(b[1])


@functools.cache
def _small_key_texts(q):
    """(private text, public text) of a small key."""
    n = 4 if q == 2 else 3
    pk, sk = keygen(KeyGenParams(q=q, n=n, degX_max=max(9, q + 1)), random.Random(q))
    return dump_private(sk), dump_public(pk)


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
    try:
        load_private(_mutate(_small_key_texts(q)[0], edits))
    except FormatError:
        pass


def _alphabet_block(lines, first):
    """The alphabet lines a loader reads from lines: the head at first and
    the letter count it states, each with its whitespace collapsed."""
    block = [" ".join(ln.split()) for ln in lines[first:]]
    return block[:1 + int(block[0].split()[3])]


@settings(max_examples=400)
@given(q=st.sampled_from([2, 4, 11]), private=st.booleans(),
       edits=st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                                st.integers(0, 1 << 20),
                                st.one_of(st.sampled_from(b"0123456789 ,L\n"),
                                          st.integers(0, 127))),
                      min_size=1, max_size=3))
def test_mutated_alphabet_blocks_raise_or_read_back(q, private, edits):
    # Edits only inside the alphabet lines: each mutant is refused, or its
    # alphabet writes back exactly the lines it was read from.
    load, text = ((load_private, _small_key_texts(q)[0]) if private
                  else (load_public, _small_key_texts(q)[1]))
    first = 2 if private else 1
    lines = text.split("\n")
    block = _alphabet_block(lines, first)
    start = len("\n".join(lines[:first])) + 1
    end = start + len("\n".join(lines[first:first + len(block)]))
    mutant = text[:start] + _mutate(text[start:end], edits) + text[end:]
    try:
        key = load(mutant)
    except FormatError:
        return
    lines = [ln for ln in mutant.splitlines() if ln.strip()]
    assert key.alphabet.to_lines() == _alphabet_block(lines, first)


@pytest.mark.parametrize("q", [2, 11])
def test_whitespace_variants_load_to_the_same_key(q):
    text = _small_key_texts(q)[1]
    variants = (text.replace(" ", "\t"), text.replace(" ", "  "),
                text.replace("\n", "\n\n \t\n"), text.replace("\n", "\r\n"),
                text.replace("\n", " \n"), text.rstrip("\n"))
    for variant in variants:
        assert dump_public(load_public(variant)) == text


# ---------------------------------------------------------------------------
# HPE2, the packed public format.


def _hpe2_line(values, q):
    """Base64 of values at ceil(log2 q) bits, most significant bit first,
    built one bit string at a time."""
    b = (q - 1).bit_length()
    bits = "".join(format(int(v), "0%db" % b) for v in np.ravel(values))
    bits += "0" * (-len(bits) % 8)
    raw = bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _hpe2_text(pk, t=None, mono0=None, C0=None, monoy=None, Cy=None,
               lines=None):
    """The HPE2 text of pk's blocks, any of them replaced; lines replaces
    the payload line of the named blocks outright."""
    blocks = {"MONO0": pk.mono0 if mono0 is None else mono0,
              "MONOY": pk.monoy if monoy is None else monoy,
              "C0": pk.C0 if C0 is None else C0,
              "CY": pk.Cy if Cy is None else Cy}
    out = ["HPE2 %d %d %d" % (pk.q, pk.n, pk.t if t is None else t),
           *pk.alphabet.to_lines()]
    for tag, block in blocks.items():
        head = "%s %d" % (tag, len(block)) if tag.startswith("MONO") else tag
        out += [head, (lines or {}).get(tag, _hpe2_line(block, pk.q))]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("q", [2, 3, 4, 11])
def test_hpe2_layout_matches_bit_strings(q):
    text = _small_key_texts(q)[1]
    assert _hpe2_text(load_public(text)) == text


@settings(max_examples=400)
@given(q=st.sampled_from([2, 3, 4, 11]), edits=EDITS)
def test_mutated_hpe2_files_load_or_raise_format_error(q, edits):
    text = _mutate(_small_key_texts(q)[1], edits)
    try:
        pk = load_public(text)
    except FormatError:
        return
    again = dump_public(pk)
    assert _same_blocks(load_public(again), pk)


def _load_error(text):
    with pytest.raises(FormatError) as info:
        load_public(text)
    return str(info.value)


def test_hpe2_counts_must_match_the_payloads():
    pk = load_public(_small_key_texts(2)[1])
    text = dump_public(pk)
    m0, my = len(pk.mono0), len(pk.monoy)
    for old, new in (("HPE2 2 4 3", "HPE2 2 5 3"),
                     ("MONO0 %d" % m0, "MONO0 %d" % (m0 + 1)),
                     ("MONOY %d" % my, "MONOY %d" % (my + 1)),
                     ("MONOY %d" % my, "MONOY %d" % (my + 1000))):
        assert "base64" in _load_error(text.replace(old, new, 1))
    for count in ("+%d" % m0, "1_0", "-1", "x"):
        assert "row count" in _load_error(
            text.replace("MONO0 %d" % m0, "MONO0 " + count, 1))
    # one row fewer leaves 4 + 4 spare bits, which can fall in the pad
    _load_error(text.replace("MONO0 %d" % m0, "MONO0 %d" % (m0 - 1), 1))
    # a payload line dropped, one left over, a head line renamed
    lines = text.splitlines()
    for i in (len(lines) - 1, len(lines) - 3):
        assert "base64" in _load_error(_mutate_lines(text, i, None))
    assert "after the CY" in _load_error(text + lines[-1] + "\n")
    assert "block" in _load_error(text.replace("\nCY\n", "\nC1\n", 1))


def test_hpe2_payload_must_be_canonical_base64():
    pk = load_public(_small_key_texts(3)[1])
    codes = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    for tag, block in (("MONO0", pk.mono0), ("MONOY", pk.monoy),
                       ("C0", pk.C0), ("CY", pk.Cy)):
        line = _hpe2_line(block, 3)
        # a character outside the alphabet, or padding dropped
        for bad in ("*" + line[1:], line.rstrip("=") + "A" * line.count("=")):
            assert "base64" in _load_error(_hpe2_text(pk, lines={tag: bad}))
        if line.endswith("="):
            # the unused low bits of the last character set
            body = line.rstrip("=")
            last = codes[codes.index(body[-1]) + 1]
            bad = body[:-1] + last + "=" * line.count("=")
            assert "canonical" in _load_error(_hpe2_text(pk, lines={tag: bad}))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hpe2_pad_bits_must_be_zero(q):
    pk = load_public(_small_key_texts(q)[1])
    b = (q - 1).bit_length()
    padded = [(tag, block) for tag, block in (("MONO0", pk.mono0), ("MONOY", pk.monoy),
                                              ("C0", pk.C0), ("CY", pk.Cy))
              if block.size * b % 8]
    assert padded
    for tag, block in padded:
        raw = bytearray(binascii.a2b_base64(_hpe2_line(block, q)))
        raw[-1] |= 1
        bad = binascii.b2a_base64(bytes(raw), newline=False).decode("ascii")
        assert "pad bit" in _load_error(_hpe2_text(pk, lines={tag: bad}))


@pytest.mark.parametrize("q", [3, 11])
def test_hpe2_values_must_lie_in_the_field(q):
    pk = load_public(_small_key_texts(q)[1])
    top = (1 << (q - 1).bit_length()) - 1
    C0, monoy = pk.C0.copy(), pk.monoy.copy()
    C0[0, 0] = top
    monoy[0, 0] = q
    assert "outside F_%d" % q in _load_error(_hpe2_text(pk, C0=C0))
    assert "outside F_%d" % q in _load_error(_hpe2_text(pk, monoy=monoy))


def test_hpe2_tables_must_be_strictly_increasing():
    pk = load_public(_small_key_texts(3)[1])
    for mono, key in ((pk.mono0, "mono0"), (pk.monoy, "monoy")):
        swapped, repeated = mono.copy(), mono.copy()
        swapped[[0, 1]] = mono[[1, 0]]
        repeated[1] = mono[0]
        for bad in (swapped, repeated):
            assert "increasing" in _load_error(_hpe2_text(pk, **{key: bad}))


def test_hpe2_every_monomial_has_a_coefficient():
    pk = load_public(_small_key_texts(4)[1])
    C0, Cy = pk.C0.copy(), pk.Cy.copy()
    C0[:, -1] = 0
    Cy[:, :, 0] = 0
    for bad in (_hpe2_text(pk, C0=C0), _hpe2_text(pk, Cy=Cy)):
        assert "no nonzero coefficient" in _load_error(bad)


def test_hpe2_monomials_stay_within_weight_t():
    pk = load_public(_small_key_texts(4)[1])
    assert pk.t == 3 and pk.mono0.sum(axis=1).max() == 3
    assert "x-degree above t=2" in _load_error(_hpe2_text(pk, t=2))
    assert "below 2" in _load_error(_hpe2_text(pk, t=1))


def test_hpe2_key_has_an_equation_and_a_y_term():
    # Without a y monomial no block would bound n: a header could name any
    # number of empty equations.
    pk = load_public(_small_key_texts(2)[1])
    text = _hpe2_text(pk).replace("HPE2 2 4 3", "HPE2 2 0 3", 1)
    assert "at least one equation" in _load_error(text)
    no_y = _hpe2_text(pk, monoy=pk.monoy[:0], Cy=pk.Cy[:, :, :0])
    assert "no monomial with a y" in _load_error(no_y)
    empty = _hpe2_text(pk, mono0=pk.mono0[:0], C0=pk.C0[:, :0],
                       monoy=pk.monoy[:0], Cy=pk.Cy[:, :, :0])
    huge = empty.replace("HPE2 2 4 3", "HPE2 2 1000000000 3", 1)
    assert "no monomial with a y" in _load_error(huge)
