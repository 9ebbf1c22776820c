import hashlib
import random

import numpy as np
import pytest

from hpe import (KeyGenParams, Signature, decrypt_raw, encrypt, hash_to_y,
                 keygen, sign, signcrypt, unsigncrypt, verify)
from hpe.errors import (NoValidCandidate, SigncryptionFailed,
                        VariableMismatch)

from conftest import random_messages
from oracles import hex16


def _hash_oracle_pow2(message, salt, q, n):
    # Independent recomputation: slice the counter-expanded digest into
    # exact bit chunks, low bits first.
    bits = q.bit_length() - 1
    payload = message if isinstance(message, bytes) else str(message).encode()
    prefix = payload + salt.to_bytes(8, "big")
    digits, counter, pending, npend = [], 0, 0, 0
    while len(digits) < n:
        block = hashlib.sha256(prefix + counter.to_bytes(4, "big")).digest()
        counter += 1
        for byte in block:
            pending |= byte << npend
            npend += 8
            while npend >= bits and len(digits) < n:
                digits.append(pending & (q - 1))
                pending >>= bits
                npend -= bits
    return digits


def _hash_oracle_reject(message, salt, q, n):
    payload = message if isinstance(message, bytes) else str(message).encode()
    prefix = payload + salt.to_bytes(8, "big")
    digits, counter = [], 0
    cut = 256 - 256 % q
    while len(digits) < n:
        block = hashlib.sha256(prefix + counter.to_bytes(4, "big")).digest()
        counter += 1
        for byte in block:
            if byte < cut and len(digits) < n:
                digits.append(byte % q)
    return digits


def test_hash_is_deterministic_and_in_range():
    for q, n in ((2, 16), (3, 10), (4, 12), (16, 8)):
        a = hash_to_y("hello", 3, q, n)
        b = hash_to_y("hello", 3, q, n)
        assert np.array_equal(a, b)
        assert len(a) == n and a.dtype == np.uint8
        assert int(a.max()) < q
    assert not np.array_equal(hash_to_y("hello", 3, 2, 16),
                              hash_to_y("hello", 4, 2, 16))
    assert not np.array_equal(hash_to_y("hello", 3, 2, 16),
                              hash_to_y("hellp", 3, 2, 16))


def test_hash_accepts_bytes_and_empty_input():
    assert np.array_equal(hash_to_y(b"abc", 0, 2, 8), hash_to_y("abc", 0, 2, 8))
    empty = hash_to_y("", 0, 2, 8)
    assert len(empty) == 8


def test_hash_matches_independent_oracle_pow2():
    for q, n in ((2, 40), (4, 12), (8, 9)):
        for salt in (0, 1, 77):
            want = _hash_oracle_pow2("sample text", salt, q, n)
            got = hash_to_y("sample text", salt, q, n)
            assert list(map(int, got)) == want


def test_hash_matches_independent_oracle_rejection():
    for q, n in ((3, 20), (5, 11)):
        for salt in (0, 9):
            want = _hash_oracle_reject("sample text", salt, q, n)
            got = hash_to_y("sample text", salt, q, n)
            assert list(map(int, got)) == want


def test_hash_long_output_spans_blocks():
    # 300 base-2 digits require two or more digest blocks.
    got = hash_to_y("stream", 0, 2, 300)
    assert len(got) == 300
    assert list(map(int, got)) == _hash_oracle_pow2("stream", 0, 2, 300)


def test_hash_digit_frequencies_unbiased():
    counts = [0, 0, 0]
    for salt in range(1000):
        for d in hash_to_y("bias probe", salt, 3, 20):
            counts[int(d)] += 1
    total = sum(counts)
    for c in counts:
        assert abs(c / total - 1 / 3) < 0.02


def test_sign_verify_round_trip(pair16):
    pk, sk = pair16
    rng = random.Random(82)
    salts = []
    for i in range(50):
        msg = "signed message %d" % i
        s = sign(sk, msg, rng)
        assert verify(pk, msg, s)
        assert 0 <= s.salt < 64
        assert len(s.x) == 16 and int(s.x.max()) < 2
        # The signature point satisfies every equation at the salted hash.
        target = hash_to_y(msg, s.salt, 2, 16)
        assert not pk.eval_at(s.x, target).any()
        salts.append(s.salt)
    # Single-trial root density swings widely from key to key, so only
    # a loose floor on immediate successes is safe to pin down.
    assert salts.count(0) >= 5
    assert any(s > 0 for s in salts)


def _traffic_digest(sk, targets, rng):
    """SHA-256 over the decryptions of each target y, each followed by one
    signature, then the next rng draw; and the candidate count of each y.
    targets may draw from rng, lazily, between the steps."""
    digest = hashlib.sha256()
    counts = []
    for i, y in enumerate(targets):
        xs = decrypt_raw(sk, y, rng)
        counts.append(len(xs))
        for x in xs:
            digest.update(x.tobytes())
        digest.update(b"|")
        sig = sign(sk, "pinned %d" % i, rng)
        digest.update(b"%d:" % sig.salt + sig.x.tobytes())
    digest.update(repr(rng.random()).encode())
    return digest.hexdigest(), counts


# SHA-256 of the traffic below, recorded when GF(2^32) roots were still found
# by scalar multiplies.  Decryption candidates come back sorted, but the
# choice among a signature's preimages, and every later draw, depend on how
# often and in what order root finding draws from the shared rng.
PINNED_TRAFFIC_DIGEST = "6c03e0f2a6dc892e4eac72faa2bbe75da46370b1ce9557773e4eb955a58770b6"


def test_decrypt_and_sign_pinned_at_q2_n32():
    pk, sk = keygen(KeyGenParams(q=2, n=32), random.Random(1))
    assert sk.field.backend == "clmul"
    rng = random.Random(3232)
    msgs = random_messages(pk.alphabet, 4, 8, 3233)
    digest, counts = _traffic_digest(sk, (encrypt(pk, m, rng)[0] for m in msgs), rng)
    assert max(counts) > 1  # some split draws happen
    assert digest == PINNED_TRAFFIC_DIGEST


# The same traffic on fields small enough for log tables, recorded when their
# roots were still found by scalar multiplies.  y is drawn uniformly instead
# of encrypted, so keys that reject most encryptions shape nothing here.
PINNED_LOG_FIELD_DIGESTS = {
    (2, 16): "bce9455c64a3e393db4a34683b981b93560bb64d64dc029a03f4d8886ba72fa4",
    (3, 8): "23a3b62e445dc9f6c4832062451a7c7db0b7f7667c9ebf83584e288396ae9bd2",
    (4, 8): "2012818a9956a4a282cb437c41fa65760167a4eae248fbc88fba6f6b277fb718",
}


@pytest.mark.parametrize("q,n", sorted(PINNED_LOG_FIELD_DIGESTS))
def test_decrypt_and_sign_pinned_on_log_fields(q, n):
    pk, sk = keygen(KeyGenParams(q=q, n=n), random.Random(1))
    assert sk.field.backend == "log"
    rng = random.Random(100 * q + n)
    targets = (np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8) for _ in range(12))
    digest, counts = _traffic_digest(sk, targets, rng)
    assert max(counts) > 1  # some split draws happen
    assert digest == PINNED_LOG_FIELD_DIGESTS[q, n]


def test_sign_accepts_bytes_messages(pair16):
    pk, sk = pair16
    s = sign(sk, b"\x00\xffraw", random.Random(83))
    assert verify(pk, b"\x00\xffraw", s)


def test_verify_rejects_tampered_message(pair16):
    pk, sk = pair16
    rng = random.Random(84)
    accepted = 0
    for i in range(100):
        msg = "payment of %d units" % i
        s = sign(sk, msg, rng)
        tampered = msg.replace(str(i), str(i + 1), 1)
        if verify(pk, tampered, s):
            accepted += 1
    assert accepted == 0


def test_verify_rejects_cross_message_signatures(pair16):
    pk, sk = pair16
    rng = random.Random(85)
    msgs = ["doc %d" % i for i in range(25)]
    sigs = [sign(sk, m, rng) for m in msgs]
    for i, s in enumerate(sigs):
        for j in (0, 7, 24):
            if i != j:
                assert not verify(pk, msgs[j], s)


def test_verify_rejects_malformed_signatures(pair16):
    pk, sk = pair16
    good = sign(sk, "ok", random.Random(86))
    assert verify(pk, "ok", good)
    assert not verify(pk, "ok", Signature(-1, good.x))
    assert not verify(pk, "ok", Signature(1 << 64, good.x))
    assert not verify(pk, "ok", Signature(good.salt, good.x[:8]))
    big = np.array(good.x)
    big[0] = 9
    assert not verify(pk, "ok", Signature(good.salt, big))
    assert not verify(pk, "ok", "not a signature")
    assert not verify(pk, "ok", None)
    flipped = np.array(good.x)
    flipped[3] ^= 1
    assert not verify(pk, "ok", Signature(good.salt, flipped))


def test_wrong_key_does_not_verify(pair16):
    pk_other, _ = keygen(KeyGenParams(q=2, n=16), random.Random(106))
    _, sk = pair16
    s = sign(sk, "hello", random.Random(87))
    assert not verify(pk_other, "hello", s)


def test_signcrypt_round_trip():
    pa, sa = keygen(KeyGenParams(q=2, n=16), random.Random(102), alphabet=hex16())
    pb, sb = keygen(KeyGenParams(q=2, n=16), random.Random(105), alphabet=hex16())
    rng = random.Random(81)
    unique = total = 0
    for msg in random_messages(pa.alphabet, 2, 60, 88):
        try:
            y = signcrypt(sa, pb, msg, rng)
        except SigncryptionFailed:
            continue
        assert len(y) == 16 and int(y.max()) < 2
        cands = unsigncrypt(sb, pa, y)
        assert msg in cands
        assert cands == sorted(set(cands))
        total += 1
        unique += cands == [msg]
    assert total >= 40
    assert unique >= total - 4


def test_signcrypt_requires_matching_parameters(pair16_hex, pair12):
    _, sa = pair16_hex
    pb, _ = pair12
    with pytest.raises(VariableMismatch):
        signcrypt(sa, pb, "00", random.Random(89))


def test_unsigncrypt_rejects_random_vectors():
    pa, sa = keygen(KeyGenParams(q=2, n=16), random.Random(102), alphabet=hex16())
    pb, sb = keygen(KeyGenParams(q=2, n=16), random.Random(105), alphabet=hex16())
    rng = random.Random(90)
    rejected = 0
    for _ in range(30):
        y = np.array([rng.randrange(2) for _ in range(16)], dtype=np.uint8)
        try:
            unsigncrypt(sb, pa, y)
        except NoValidCandidate:
            rejected += 1
    assert rejected >= 28


def test_unsigncrypt_rejects_wrong_sender():
    pa, sa = keygen(KeyGenParams(q=2, n=16), random.Random(102), alphabet=hex16())
    pb, sb = keygen(KeyGenParams(q=2, n=16), random.Random(105), alphabet=hex16())
    pc, _ = keygen(KeyGenParams(q=2, n=16), random.Random(107), alphabet=hex16())
    rng = random.Random(91)
    wrong = 0
    for msg in random_messages(pa.alphabet, 2, 20, 92):
        try:
            y = signcrypt(sa, pb, msg, rng)
        except SigncryptionFailed:
            continue
        try:
            cands = unsigncrypt(sb, pc, y)
        except NoValidCandidate:
            continue
        if msg in cands:
            wrong += 1
    # Attributing the ciphertext to a different sender must not recover it.
    assert wrong == 0
