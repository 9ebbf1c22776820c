"""End-to-end acceptance runs for the whole toolkit.

Every test prints one "[ACCEPT] criterion N" line with the measured
numbers, so running `pytest tests/test_acceptance.py -v -s` yields a
thirteen-line scorecard next to the verdicts.  Thresholds and runtime
ceilings are asserted, never just reported.
"""

import itertools
import random
import time

import numpy as np
import pytest

from hpe import (KeyGenParams, Signature, batch_zero_mask, decrypt_messages,
                 decrypt_raw, encrypt, encrypt_raw, hash_to_y, keygen, sign,
                 signcrypt, unsigncrypt, verify)
from hpe import imattack
from hpe.errors import (EncryptionFailed, NoValidCandidate,
                        SigncryptionFailed)
from hpe.fields import build_extension
from hpe.mvpoly import upoly

from oracles import (exhaustive_invert, hex16, map_x, private_relation_check,
                     unmap_v)


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print("[ACCEPT] criterion %d: %s (%s)" % (num, verdict, detail))
    assert ok, "criterion %d: %s" % (num, detail)


def _random_message(alphabet, blocks, rng):
    return "".join(rng.choice(alphabet.letters) for _ in range(blocks))


def test_criterion_01_single_trial_success_rate():
    # One encoding, one solve attempt; the solvable fraction should
    # bracket 1 - 1/e across many independent keys and messages.
    start = time.monotonic()
    rng = random.Random(20260823)
    ok = tot = 0
    for ks in range(80):
        pk, _ = keygen(KeyGenParams(q=2, n=16), random.Random(9000 + ks))
        blocks = pk.alphabet.blocks_for(16)
        for _ in range(30):
            msg = _random_message(pk.alphabet, blocks, rng)
            tot += 1
            try:
                encrypt(pk, msg, rng, max_trials=1)
                ok += 1
            except EncryptionFailed:
                pass
    elapsed = time.monotonic() - start
    rate = ok / tot
    good = 0.58 <= rate <= 0.68 and elapsed <= 300
    _report(1, good, "rate %.4f over %d trials in %.0fs" % (rate, tot, elapsed))


def test_criterion_02_retry_failure_rate():
    # Ten re-encodings per message push the failure rate to noise level.
    start = time.monotonic()
    rng = random.Random(212)
    alpha = hex16()
    fails = tot = 0
    for ks in range(10):
        pk, _ = keygen(KeyGenParams(q=2, n=32), random.Random(3200 + ks),
                       alphabet=hex16())
        for _ in range(1000):
            msg = _random_message(alpha, 4, rng)
            tot += 1
            try:
                encrypt(pk, msg, rng, max_trials=10)
            except EncryptionFailed:
                fails += 1
    elapsed = time.monotonic() - start
    good = fails <= tot // 1000 and elapsed <= 600
    _report(2, good, "%d failures in %d messages in %.0fs" % (fails, tot, elapsed))


def test_criterion_03_round_trip_correctness():
    # Every successful encryption must decrypt back to its message, and
    # the candidate list should almost always be a singleton.
    rng = random.Random(777)
    alpha = hex16()
    recovered = unique = done = 0
    for ks in range(10):
        pk, sk = keygen(KeyGenParams(q=2, n=16), random.Random(5000 + ks),
                        alphabet=hex16())
        got = 0
        while got < 10:
            msg = _random_message(alpha, 2, rng)
            try:
                y, _ = encrypt(pk, msg, rng, max_trials=8)
            except EncryptionFailed:
                continue
            got += 1
            done += 1
            cands = decrypt_messages(sk, y)
            if msg in cands:
                recovered += 1
            if cands == [msg]:
                unique += 1
    good = recovered == done == 100 and unique >= 95
    _report(3, good, "recovered %d/%d, unique %d" % (recovered, done, unique))


def test_criterion_04_root_count_bound():
    # The univariate solve behind decryption can never return more
    # preimages than the degree cap of the hidden relation.
    rng = random.Random(404)
    cap = KeyGenParams().degX_max
    worst = 0
    samples = 0
    for params, seed in ((KeyGenParams(q=2, n=16), 414),
                         (KeyGenParams(q=2, n=12), 424)):
        pk, sk = keygen(params, random.Random(seed))
        blocks = pk.alphabet.blocks_for(params.n)
        done = 0
        while done < 40:
            msg = _random_message(pk.alphabet, blocks, rng)
            try:
                y, _ = encrypt(pk, msg, rng)
            except EncryptionFailed:
                continue
            worst = max(worst, len(decrypt_raw(sk, y)))
            done += 1
            samples += 1
    good = 1 <= worst <= cap and samples == 80
    _report(4, good, "max candidates %d over %d decryptions, cap %d"
            % (worst, samples, cap))


def test_criterion_05_exhaustive_oracle_equivalence():
    # Trapdoor decryption against full enumeration of the plaintext
    # space: raw preimages and decoded candidates must match exactly.
    rng = random.Random(505)
    pk, sk = keygen(KeyGenParams(q=2, n=12), random.Random(515))
    alpha = pk.alphabet
    mismatches = 0
    checked = 0
    ciphertexts = []
    while len(ciphertexts) < 40:
        msg = _random_message(alpha, 3, rng)
        try:
            y, _ = encrypt(pk, msg, rng)
        except EncryptionFailed:
            continue
        ciphertexts.append(y)
    for _ in range(10):
        ciphertexts.append(
            np.array([rng.randrange(2) for _ in range(12)], dtype=np.uint8))
    for y in ciphertexts:
        brute = exhaustive_invert(pk, y)
        brute_set = {tuple(map(int, x)) for x in brute}
        raw_set = {tuple(map(int, x)) for x in decrypt_raw(sk, y)}
        valid = sorted({m for m in (alpha.decode(x) for x in brute)
                        if m is not None})
        checked += 1
        if raw_set != brute_set or decrypt_messages(sk, y) != valid:
            mismatches += 1
    _report(5, mismatches == 0,
            "%d mismatches over %d ciphertexts" % (mismatches, checked))


def test_criterion_06_hidden_versus_public_vanishing_sets():
    # For every masked target the roots of the hidden univariate slice
    # must coincide with the zero set of the published equations, field
    # by field, over the entire domain.
    mismatches = 0
    domains = 0
    for q, n, seed in ((2, 8, 68), (4, 4, 644), (3, 5, 635)):
        pk, sk = keygen(KeyGenParams(q=q, n=n), random.Random(seed))
        field = sk.field
        all_x = np.array(list(itertools.product(range(q), repeat=n)),
                         dtype=np.uint8)
        u_packed = np.array(
            [field.from_coords(map_x(sk.affine, x)) for x in all_x],
            dtype=np.uint64)
        for v in field.elements():
            g = sk.priv.univariate_in_x(field, v)
            expected = (set(field.elements()) if not g
                        else upoly.roots(field, g))
            y_vec = unmap_v(sk.affine,
                            np.array(field.coords(v), dtype=np.uint8))
            mask = batch_zero_mask(pk, all_x, y_vec)
            observed = {int(u) for u in u_packed[mask]}
            domains += 1
            if expected != observed:
                mismatches += 1
        rng = random.Random(seed)
        for _ in range(100):
            u, v = field.random(rng), field.random(rng)
            hidden, public = private_relation_check(sk, pk, u, v)
            if not np.array_equal(hidden, public):
                mismatches += 1
    _report(6, mismatches == 0,
            "%d mismatches over %d target slices plus point checks"
            % (mismatches, domains))


def test_criterion_07_field_engine_oracles():
    # Frobenius tables against iterated squaring, and root finding
    # against brute-force evaluation, on every element of each field.
    mismatches = 0
    rng = random.Random(707)
    for q, n in ((2, 12), (3, 5), (4, 4)):
        field = build_extension(q, n)
        for a in field.elements():
            b = a
            for k in range(1, n):
                b = field.pow(b, q)
                if field.frob(a, k) != b:
                    mismatches += 1
    field = build_extension(2, 12)
    elems = np.arange(field.order, dtype=np.uint64)
    polys = 0
    for _ in range(140):
        coeffs = [rng.randrange(field.order) for _ in range(rng.randrange(2, 10))]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            continue
        vals = np.full(field.order, coeffs[-1], dtype=np.uint64)
        for c in reversed(coeffs[:-1]):
            vals = field.mul_many(vals, elems) ^ np.uint64(c)
        brute = {int(e) for e in elems[vals == 0]}
        if upoly.roots(field, coeffs) != brute:
            mismatches += 1
        polys += 1
    for q, n in ((3, 5), (4, 4)):
        small = build_extension(q, n)
        for _ in range(30):
            coeffs = [rng.randrange(small.order) for _ in range(rng.randrange(2, 10))]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs:
                continue
            brute = set()
            for a in small.elements():
                acc = coeffs[-1]
                for c in reversed(coeffs[:-1]):
                    acc = small.add(small.mul(acc, a), c)
                if acc == 0:
                    brute.add(a)
            if upoly.roots(small, coeffs) != brute:
                mismatches += 1
            polys += 1
    _report(7, mismatches == 0 and polys == 200,
            "%d mismatches, %d root sets checked" % (mismatches, polys))


def test_criterion_08_signature_suite():
    rng = random.Random(808)
    accepted = tampered_rejected = cross_rejected = 0
    total = 100
    for ks in (801, 802):
        pk, sk = keygen(KeyGenParams(q=2, n=16), random.Random(ks))
        for i in range(total // 2):
            msg = "document %d from key %d" % (i, ks)
            s = sign(sk, msg, rng)
            if verify(pk, msg, s):
                accepted += 1
            bad = np.array(s.x)
            bad[rng.randrange(16)] ^= 1
            if not verify(pk, msg, Signature(s.salt, bad)):
                tampered_rejected += 1
            if not verify(pk, msg + " (edited)", s):
                cross_rejected += 1
    good = (accepted == total and tampered_rejected >= 99
            and cross_rejected == total)
    _report(8, good, "verify %d/%d, tamper rejects %d, cross rejects %d"
            % (accepted, total, tampered_rejected, cross_rejected))


def test_criterion_09_signcryption_suite():
    rng = random.Random(909)
    alpha = hex16()
    pairs = []
    for ks in range(5):
        a_pk, a_sk = keygen(KeyGenParams(q=2, n=24), random.Random(2400 + ks),
                            alphabet=hex16())
        b_pk, b_sk = keygen(KeyGenParams(q=2, n=24), random.Random(2450 + ks),
                            alphabet=hex16())
        pairs.append((a_pk, a_sk, b_pk, b_sk))
    done = recovered = unique = attempts = 0
    while done < 100:
        a_pk, a_sk, b_pk, b_sk = pairs[attempts % 5]
        msg = _random_message(alpha, 3, rng)
        attempts += 1
        try:
            y = signcrypt(a_sk, b_pk, msg, rng)
        except SigncryptionFailed:
            continue
        done += 1
        try:
            cands = unsigncrypt(b_sk, a_pk, y)
        except NoValidCandidate:
            cands = []
        if msg in cands:
            recovered += 1
        if cands == [msg]:
            unique += 1
    good = recovered == 100 and unique >= 99
    _report(9, good, "recovered %d/100, unique %d, %d attempts"
            % (recovered, unique, attempts))


def test_criterion_10_power_map_attack():
    # Bilinear relations learned from public traffic must break the
    # power-map scheme outright: every ciphertext inverted, quickly.
    start = time.monotonic()
    rng = random.Random(1010)
    pk, _ = imattack.im_keygen(2, 9, 1, rng)
    relations = imattack.harvest_relations(pk, rng=rng)
    exact = 0
    for _ in range(100):
        x = np.array([rng.randrange(2) for _ in range(9)], dtype=np.uint8)
        y = encrypt_raw(pk, x, rng)
        cands = imattack.patarin_attack(pk, relations, y)
        if len(cands) == 1 and (cands[0] == x).all():
            exact += 1
    elapsed = time.monotonic() - start
    good = exact == 100 and elapsed <= 60
    _report(10, good, "recovered %d/100 with %d relations in %.1fs"
            % (exact, len(relations), elapsed))


def test_criterion_11_harvest_finds_nothing_on_hidden_equations():
    # The same harvest pointed at the full cryptosystem should come
    # back empty for almost every key.
    rng = random.Random(1111)
    zero_dim = 0
    keys = 50
    for ks in range(keys):
        pk, _ = keygen(KeyGenParams(q=2, n=16), random.Random(7000 + ks))
        if not imattack.harvest_relations(pk, rng=rng):
            zero_dim += 1
    good = zero_dim >= int(0.95 * keys)
    _report(11, good, "relation dimension zero for %d/%d keys"
            % (zero_dim, keys))


def test_criterion_12_public_key_shape_audit():
    bad = 0
    keys = 0
    for q, n, base_seed, count in ((2, 12, 1200, 60), (3, 6, 360, 20),
                                   (4, 4, 440, 20)):
        for ks in range(count):
            pk, _ = keygen(KeyGenParams(q=q, n=n), random.Random(base_seed + ks))
            bad += len(pk.shape_violations())
            keys += 1
    _report(12, bad == 0, "%d violations across %d keys" % (bad, keys))


def test_criterion_13_ambiguity_at_headline_size():
    # At q=2 n=32 with text64, a few honest 4-letter blocks decrypt to two
    # or more alphabet-valid messages.  Keys 1-3 gave 6, 5 and 6 of 100
    # when this criterion was set; the total may not grow past that.
    rng = random.Random(1313)
    ambiguous = recovered = done = 0
    for ks in (1, 2, 3):
        pk, sk = keygen(KeyGenParams(q=2, n=32), random.Random(ks))
        got = 0
        while got < 100:
            msg = _random_message(pk.alphabet, 4, rng)
            try:
                y, _ = encrypt(pk, msg, rng)
            except EncryptionFailed:
                continue
            got += 1
            done += 1
            cands = decrypt_messages(sk, y)
            recovered += msg in cands
            ambiguous += len(cands) > 1
    good = recovered == done == 300 and ambiguous <= 17
    _report(13, good, "recovered %d/%d, ambiguous %d, bound 17"
            % (recovered, done, ambiguous))
