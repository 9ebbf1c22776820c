import hashlib
import random

import numpy as np
import pytest

from hpe import (KeyGenParams, dump_private, dump_public, dump_signature,
                 dump_vector, keygen, load_private, load_public,
                 parse_signature, parse_vector)
from hpe.errors import FormatError

# SHA-256 of dump_public(keygen(KeyGenParams(q, n, seed=s))[0]), recorded
# before the public key moved to one flat term table; any change in term
# order or formatting shows here.  The q=2 n=32 keys, recorded before the
# key expansion moved to block-local factors, carry repeated Frobenius
# levels (seed 1 has the pure term u^(2+2+4) = u^8).
PINNED_PUBLIC_DIGESTS = {
    (2, 32, 1): "b9597b4c9a665924f63c1cc52e87e0ce40cb0c30190a845b182c024b8b136900",
    (2, 32, 3): "d71f73b08195b60d29b385d1cf9cf02167d1d2e142402a0ba196269aaf2fea86",
    (2, 12, 103): "bb52e3cdb6f2965550f9b92fd89b3b2a7f829d82aef43b7789f06d50e6632b2d",
    (3, 5, 635): "6b66820052465c8f2cc0c74f1098717f990e70e9ab68bf9a04bab7a58ec8c43e",
    (4, 4, 644): "1b850c26f54b2e19fedfdd9d4278775385e0c56d784807103ca52a37af6dc97b",
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
    # The public half is re-expanded on load and must match exactly.
    assert dump_public(again.public) == dump_public(pk)


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
    text = dump_public(keygen(KeyGenParams(q=q, n=n, seed=seed))[0])
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
