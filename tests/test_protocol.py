import functools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpe import (KeyGenParams, batch_zero_mask, decrypt, decrypt_messages,
                 decrypt_raw, encrypt, encrypt_raw, exhaustive_invert, keygen,
                 private_relation_check)
from hpe.core.alphabet import default_alphabet
from hpe.core.keys import AffinePair
from hpe.errors import (AmbiguousDecryption, EncryptionFailed,
                        NoValidCandidate, TooLarge)
from hpe.fields import build_extension
from hpe.mvpoly.linalg import matvec

from conftest import random_messages, sub_key

keygen_mod = sys.modules["hpe.core.keygen"]


def test_round_trip_text_alphabet(pair16):
    pk, sk = pair16
    rng = random.Random(60)
    for msg in random_messages(pk.alphabet, 2, 30, 61):
        y, trials = encrypt(pk, msg, rng)
        assert trials >= 1
        assert len(y) == 16 and y.dtype == np.uint8
        assert decrypt_messages(sk, y).count(msg) == 1


def test_round_trip_hex_alphabet(pair16_hex):
    # Two-letter hex messages admit only four encodings, so a few
    # encryption failures are expected; every success must decode.
    pk, sk = pair16_hex
    rng = random.Random(62)
    done = 0
    for msg in random_messages(pk.alphabet, 2, 30, 63):
        try:
            y, _ = encrypt(pk, msg, rng)
        except EncryptionFailed:
            continue
        done += 1
        cands = decrypt_messages(sk, y)
        assert msg in cands
        if len(cands) == 1:
            assert decrypt(sk, y) == [msg]
    assert done >= 25


def test_encrypt_reports_failure_within_budget(pair12):
    pk, _ = pair12
    rng = random.Random(0)
    msg = "AAT"
    with pytest.raises(EncryptionFailed):
        encrypt(pk, msg, rng, max_trials=1)
    rng = random.Random(0)
    _, trials = encrypt(pk, "AAA", rng, max_trials=1)
    assert trials == 1


def test_encrypt_trials_bounded_by_encoding_space():
    # A one-letter message admits only two encodings, so the retry loop
    # can never report more than two attempts.
    pk, sk = keygen(KeyGenParams(q=2, n=4, seed=1))
    rng = random.Random(64)
    outcomes = set()
    for _ in range(40):
        try:
            y, trials = encrypt(pk, "A", rng, max_trials=10)
            assert trials <= 2
            outcomes.add("ok")
        except EncryptionFailed:
            outcomes.add("fail")
    assert "ok" in outcomes


def test_encrypt_rejects_wrong_length(pair16):
    pk, _ = pair16
    from hpe.errors import LengthMismatch
    with pytest.raises(LengthMismatch):
        encrypt(pk, "abc", random.Random(0))


def test_encrypt_raw_output_satisfies_equations(pair16):
    pk, _ = pair16
    rng = random.Random(65)
    found = 0
    for _ in range(30):
        x = np.array([rng.randrange(2) for _ in range(16)], dtype=np.uint8)
        y = encrypt_raw(pk, x, rng)
        if y is None:
            continue
        found += 1
        assert not pk.eval_at(x, y).any()
    assert found > 10


def test_decrypt_raw_returns_sorted_preimages(pair12):
    pk, sk = pair12
    rng = random.Random(66)
    for msg in random_messages(pk.alphabet, 3, 10, 67):
        y, _ = encrypt(pk, msg, rng)
        pre = decrypt_raw(sk, y)
        # Ordered by the packed value of the hidden root u = A x + c.
        keys = [sk.field.from_coords(sk.affine.map_x(x)) for x in pre]
        assert keys == sorted(keys)
        for x in pre:
            assert not pk.eval_at(x, y).any()
        assert decrypt_raw(sk, y) is not pre
        assert [list(map(int, a)) for a in decrypt_raw(sk, y)] == \
            [list(map(int, a)) for a in pre]


def test_decrypt_matches_exhaustive_search(pair12):
    pk, sk = pair12
    rng = random.Random(68)
    for msg in random_messages(pk.alphabet, 3, 5, 69):
        y, _ = encrypt(pk, msg, rng)
        brute = exhaustive_invert(pk, y)
        packed = {tuple(map(int, x)) for x in brute}
        assert all(not pk.eval_at(np.array(x, dtype=np.uint8), y).any()
                   for x in packed)
        assert {tuple(map(int, x)) for x in decrypt_raw(sk, y)} == packed
        valid = sorted({m for m in (pk.alphabet.decode(x) for x in brute)
                        if m is not None})
        assert decrypt_messages(sk, y) == valid
        assert msg in valid


def test_exhaustive_invert_empty_off_image(pair12):
    pk, _ = pair12
    rng = random.Random(70)
    saw_empty = False
    for _ in range(40):
        y = np.array([rng.randrange(2) for _ in range(12)], dtype=np.uint8)
        if not exhaustive_invert(pk, y):
            saw_empty = True
            break
    assert saw_empty


def test_exhaustive_invert_size_guard(pair16):
    pk, _ = pair16
    y = np.zeros(16, dtype=np.uint8)
    with pytest.raises(TooLarge):
        exhaustive_invert(pk, y, limit=1024)


def test_decrypt_no_valid_candidate(pair12):
    # A ciphertext from one key decrypted under another leaves nothing valid.
    pk_a, _ = pair12
    _, sk_b = keygen(KeyGenParams(q=2, n=12, seed=104))
    rng = random.Random(0)
    y, _ = encrypt(pk_a, "AAA", rng)
    with pytest.raises(NoValidCandidate):
        decrypt(sk_b, y)


def test_decrypt_reports_ambiguity(pair12):
    pk, sk = pair12
    rng = random.Random(0)
    y, _ = encrypt(pk, "AAG", rng)
    with pytest.raises(AmbiguousDecryption) as info:
        decrypt(sk, y)
    cands = info.value.candidates
    assert "AAG" in cands and len(cands) >= 2
    assert cands == sorted(cands)
    assert decrypt_messages(sk, y) == cands


def test_tampered_ciphertext_never_silently_accepts(pair16_hex):
    pk, sk = pair16_hex
    rng = random.Random(71)
    silent = 0
    for msg in random_messages(pk.alphabet, 2, 50, 72):
        try:
            y, _ = encrypt(pk, msg, rng)
        except EncryptionFailed:
            continue
        bad = np.array(y)
        bad[rng.randrange(16)] ^= 1
        try:
            got = decrypt(sk, bad)
        except (NoValidCandidate, AmbiguousDecryption):
            continue
        if got == [msg]:
            silent += 1
    assert silent == 0


def test_relation_check_random_points(pair16):
    _, sk = pair16
    field = sk.field
    rng = random.Random(73)
    for _ in range(50):
        u, v = field.random(rng), field.random(rng)
        hidden, public = private_relation_check(sk, u, v)
        assert np.array_equal(np.asarray(hidden), np.asarray(public))


def test_relation_check_exhaustive_small():
    field = build_extension(2, 4)
    rng = random.Random(74)
    priv = keygen_mod.sample_private(KeyGenParams(q=2, n=4), field, rng)
    affine = AffinePair.sample(field.base, 4, rng)
    pk = keygen_mod.expand_keypair(field, priv, affine, default_alphabet(2, 4))
    from hpe.core.keys import PrivateKey
    sk = PrivateKey(field, priv, affine, pk.alphabet, pk)
    for u in range(16):
        for v in range(16):
            hidden, public = private_relation_check(sk, u, v)
            assert np.array_equal(np.asarray(hidden), np.asarray(public))


def test_batch_zero_mask_matches_rowwise_eval():
    rng = random.Random(75)
    for q, n, degx in ((2, 12, 9), (3, 4, 9), (4, 3, 9), (5, 3, 9), (8, 3, 9),
                       (9, 3, 10)):
        field = build_extension(q, n)
        priv = keygen_mod.sample_private(
            KeyGenParams(q=q, n=n, degX_max=degx), field, rng)
        affine = AffinePair.sample(field.base, n, rng)
        pk = keygen_mod.expand_keypair(field, priv, affine,
                                       default_alphabet(q, n) if q != 2
                                       else default_alphabet(2, 12))
        y = np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8)
        digits = np.array([[rng.randrange(q) for _ in range(n)]
                           for _ in range(200)], dtype=np.uint8)
        mask = batch_zero_mask(pk, digits, y)
        for i in range(200):
            assert mask[i] == (not pk.eval_at(digits[i], y).any())


@functools.cache
def _oracle_keys(q):
    """A small key at q and the same key with equation 1 emptied, each with
    its equations as MultiPolys."""
    n = 4 if q == 2 else 3
    pk, _ = keygen(KeyGenParams(q=q, n=n, seed=q, degX_max=max(9, q + 1)))
    sub = sub_key(pk, [k for k in range(n) if k != 1])
    return [(key, key.equations()) for key in (pk, sub)]


@settings(max_examples=120)
@given(q=st.sampled_from([2, 3, 4, 5, 8, 9]), empty=st.booleans(), data=st.data())
def test_kernel_matches_multipoly_oracle(q, empty, data):
    # linear_system, eval_at and batch_zero_mask against evaluating each
    # equation term by term, on batches of 0, 1 and more rows.
    pk, eqs = _oracle_keys(q)[empty]
    n = pk.n
    digits = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    xs = np.array(data.draw(st.lists(digits, min_size=2, max_size=4)),
                  dtype=np.uint8)
    y = np.array(data.draw(digits), dtype=np.uint8)
    want = np.array([[eq.eval([*x, *y]) for eq in eqs] for x in xs],
                    dtype=np.uint8)
    assert not empty or not want[:, 1].any()
    for m in (0, 1, len(xs)):
        assert np.array_equal(pk.eval_at(xs[:m], y), want[:m])
        assert np.array_equal(batch_zero_mask(pk, xs[:m], y), ~want[:m].any(axis=1))
    for x, vals in zip(xs, want):
        assert np.array_equal(pk.eval_at(x, y), vals)
        matrix, rhs = pk.linear_system(x)
        assert np.array_equal(pk.base.sub_table[matvec(pk.base, matrix, y), rhs], vals)
