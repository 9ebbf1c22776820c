import functools
import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpe
from hpe import (KeyGenParams, batch_zero_mask, decrypt, decrypt_messages,
                 decrypt_raw, dump_private, dump_public, encrypt, encrypt_raw,
                 keygen, load_private, load_public)
from hpe.core.alphabet import default_alphabet
from hpe.core.keys import AffinePair, PublicKey
from hpe.errors import (AmbiguousDecryption, EncryptionFailed, HpeError,
                        NoValidCandidate, TooLarge)
from hpe.fields import base_field, build_extension
from hpe.mvpoly import gf2, linalg
from hpe.mvpoly.linalg import matvec
from hpe.sigs import sign, signcrypt, verify

from conftest import random_messages, sub_key
from oracles import (bits_oracle, encrypt_oracle, equations, exhaustive_invert,
                     f2_expansion_oracle, kernel_rows_oracle, map_x,
                     private_relation_check)

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
    pk, sk = keygen(KeyGenParams(q=2, n=4), random.Random(1))
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


@functools.lru_cache(maxsize=None)
def _walk_key(q, n, seed):
    return keygen(KeyGenParams(q=q, n=n), random.Random(seed))


# (sender, receiver) key parameters; encrypt uses the sender's public key
_WALK_KEYS = {"q2": ((2, 16, 7), (2, 16, 5)), "q4": ((4, 8, 1), (4, 8, 1))}

# The encoding walk's outcome and the SHA-256 of the ciphertext bytes and
# the rng state it leaves, pinned on the code that wrote the walk twice.
# The cases cover a first-trial success, a later one, a spent trial budget
# (q2 "AA" and "zz" at 2 trials) and a spent encoding space (q4 "z", whose
# one letter has two encodings): the failures pin the draw that picks a
# fresh encoding after the last failed trial.
_WALK_PINS = [
    ("encrypt", "q2", "ab", 1, 1, "ok 1", "20f685ab7273ef24"),
    ("encrypt", "q2", "Hi", 2, 1, "ok 2", "9101c4535b26d18e"),
    ("encrypt", "q2", "AA", 2, 1, "EncryptionFailed", "cbb0617cc24d98d1"),
    ("encrypt", "q2", "AA", 10, 1, "ok 3", "709b083ccbafb8ad"),
    ("encrypt", "q4", "H", 1, 3, "ok 1", "690553ed8090d46b"),
    ("encrypt", "q4", "a", 1, 1, "EncryptionFailed", "0a69a066ef0b192e"),
    ("encrypt", "q4", "a", 2, 1, "ok 2", "b0a8ac02723e4abf"),
    ("encrypt", "q4", "z", 2, 1, "EncryptionFailed", "0a69a066ef0b192e"),
    ("signcrypt", "q2", "ab", 1, 1, "ok", "abdd7a2ea58dc3aa"),
    ("signcrypt", "q2", "zz", 2, 1, "SigncryptionFailed", "cbb0617cc24d98d1"),
    ("signcrypt", "q2", "zz", 10, 1, "ok", "fd88aed8986e54bb"),
    ("signcrypt", "q4", "H", 1, 1, "SigncryptionFailed", "0a69a066ef0b192e"),
    ("signcrypt", "q4", "H", 2, 1, "ok", "eed7e562473a1172"),
    ("signcrypt", "q4", "z", 2, 1, "SigncryptionFailed", "0a69a066ef0b192e"),
]


@pytest.mark.parametrize("op,keys,message,max_trials,seed,outcome,digest",
                         _WALK_PINS)
def test_encoding_walk_pinned(op, keys, message, max_trials, seed, outcome,
                              digest):
    (pk_s, sk_s), (pk_r, _) = (_walk_key(*k) for k in _WALK_KEYS[keys])
    rng = random.Random(seed)
    y = b""
    try:
        if op == "encrypt":
            y, trials = encrypt(pk_s, message, rng, max_trials=max_trials)
            got = "ok %d" % trials
        else:
            y = signcrypt(sk_s, pk_r, message, rng, max_trials=max_trials)
            got = "ok"
        y = np.asarray(y, dtype=np.uint8).tobytes()
    except HpeError as exc:
        got = type(exc).__name__
    state = repr(rng.getstate()).encode()
    assert got == outcome
    assert hashlib.sha256(y + state).hexdigest()[:16] == digest


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


@pytest.mark.parametrize("q,n,seed", [(2, 16, 1), (4, 8, 4)])
def test_degree_four_keys(q, n, seed):
    # --t 4 keys; t_max=4 can also draw a relation of weight 3, so these
    # seeds are ones that draw weight 4.
    pk, sk = keygen(KeyGenParams(q=q, n=n, t_max=4), random.Random(seed))
    assert pk.t == sk.priv.t() == 4
    for dump, load, key in ((dump_public, load_public, pk),
                            (dump_private, load_private, sk)):
        text = dump(key)
        assert text.splitlines()[0].endswith(" %d %d 4" % (q, n))
        assert dump(load(text)) == text
    rng = random.Random(seed + 100)
    found = 0
    for _ in range(20):
        x = np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8)
        y = encrypt_raw(pk, x, rng)
        if y is None:
            continue
        found += 1
        assert any(np.array_equal(x, c) for c in decrypt_raw(sk, y))
    assert found >= 10
    sig = sign(sk, "degree four", rng)
    assert verify(pk, "degree four", sig)


def test_decrypt_raw_returns_sorted_preimages(pair12):
    pk, sk = pair12
    rng = random.Random(66)
    for msg in random_messages(pk.alphabet, 3, 10, 67):
        y, _ = encrypt(pk, msg, rng)
        pre = decrypt_raw(sk, y)
        # Ordered by the packed value of the hidden root u = A x + c.
        keys = [sk.field.from_coords(map_x(sk.affine, x)) for x in pre]
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
    _, sk_b = keygen(KeyGenParams(q=2, n=12), random.Random(104))
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
    pk, sk = pair16
    field = sk.field
    rng = random.Random(73)
    for _ in range(50):
        u, v = field.random(rng), field.random(rng)
        hidden, public = private_relation_check(sk, pk, u, v)
        assert np.array_equal(np.asarray(hidden), np.asarray(public))


def test_relation_check_exhaustive_small():
    field = build_extension(2, 4)
    rng = random.Random(74)
    priv = keygen_mod.sample_private(KeyGenParams(q=2, n=4), field, rng)
    affine = AffinePair.sample(field.base, 4, rng)
    pk = keygen_mod.expand_keypair(field, priv, affine, default_alphabet(2, 4))
    from hpe.core.keys import PrivateKey
    sk = PrivateKey(field, priv, affine, pk.alphabet)
    for u in range(16):
        for v in range(16):
            hidden, public = private_relation_check(sk, pk, u, v)
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
    pk, _ = keygen(KeyGenParams(q=q, n=n, degX_max=max(9, q + 1)), random.Random(q))
    sub = sub_key(pk, [k for k in range(n) if k != 1])
    return [(key, equations(key)) for key in (pk, sub)]


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


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 4, 8]), empty=st.booleans(), data=st.data())
def test_packed_system_matches_the_f_q_route(q, empty, data):
    # At p = 2 encryption reads y from one packed integer.  That integer is
    # the F_2 matrix of [matrix | rhs] of the system that evaluating the key
    # term by term gives, bit for bit; its reduction is linalg.rref's; and
    # encrypt_raw returns the y, or None, of the F_q route (solve_oracle,
    # Solution.sample, a matvec check), leaving the rng in the same state.
    # With equation 1 emptied the system has a zero row, so a kernel to draw.
    pk, _ = _oracle_keys(q)[empty]
    base, n, r = pk.base, pk.n, pk.base.r
    x = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)),
                 dtype=np.uint8)
    rows = kernel_rows_oracle(pk, x[None])[0]
    aug = np.concatenate([rows[:, 1:], base.neg_table[rows[:, :1]]], axis=1)
    system = pk.system(x)
    assert isinstance(system, linalg.PackedSystem)
    assert system.bits == bits_oracle(f2_expansion_oracle(base, aug))
    reduced, pivots = gf2.reduce(system.bits, n * r, (n + 1) * r)
    red, want_pivots = linalg.rref(base, aug)
    assert reduced == bits_oracle(f2_expansion_oracle(base, red))
    assert [(i // r, c // r) for i, c in pivots[::r]] == want_pivots
    seed = data.draw(st.integers(0, 2**32 - 1))
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got, want = encrypt_raw(pk, x, got_rng), encrypt_oracle(pk, x, want_rng)
    assert (got is None) == (want is None)
    assert got is None or np.array_equal(got, want)
    assert got_rng.getstate() == want_rng.getstate()


# Each q with values of n whose packed row widths, n*r bits for the block
# without y and n*n*r for the y block, end just short of a 64-bit word, at
# one, or just past one: 63, 64 and 65 bits at q=2, n*n = 64 and 961 = 15
# words and a bit.  q=3 takes the float64 product.
_WORD_EDGE_N = {2: (8, 31, 63, 64, 65), 4: (8, 31, 32, 33), 8: (20, 21, 22),
                16: (4, 15, 16, 17), 3: (5, 64)}


@st.composite
def _sparse_keys(draw):
    """A public key of random sparse blocks, at most two variables a
    monomial, and a batch of 1 to 64 x."""
    q = draw(st.sampled_from(sorted(_WORD_EDGE_N)))
    n = draw(st.sampled_from(_WORD_EDGE_N[q]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = base_field(q)

    def monomials(count):
        mono = np.zeros((count, n), dtype=np.uint8)
        for row in mono:
            cols = rng.choice(n, size=rng.integers(0, 3), replace=False)
            row[cols] = rng.integers(1, q, size=len(cols))
        return np.unique(mono, axis=0)

    mono0, monoy = monomials(draw(st.integers(0, 6))), monomials(draw(st.integers(0, 4)))
    C0 = rng.integers(0, q, (n, len(mono0)), dtype=np.uint8)
    C0[rng.random(C0.shape) < 0.7] = 0
    Cy = rng.integers(0, q, (n, n, len(monoy)), dtype=np.uint8)
    Cy[rng.random(Cy.shape) < 0.97] = 0
    pk = PublicKey(base, n, 3, mono0, C0, monoy, Cy, None)
    xs = rng.integers(0, q, (draw(st.integers(1, 64)), n), dtype=np.uint8)
    return pk, xs, rng.integers(0, q, n, dtype=np.uint8)


@settings(max_examples=40)
@given(case=_sparse_keys())
def test_rows_match_term_by_term_evaluation(case):
    # _rows (packed F_2 rows at p = 2) and eval_at against each equation's
    # terms evaluated one by one, at word-edge widths, on batches of x.
    pk, xs, y = case
    want = kernel_rows_oracle(pk, xs)
    assert np.array_equal(pk._rows(xs), want)
    add, mul = pk.base.add_table, pk.base.mul_table
    vals = want[:, :, 0]
    for j in range(pk.n):
        vals = add[vals, mul[want[:, :, 1 + j], y[j]]]
    assert np.array_equal(pk.eval_at(xs, y), vals)
    assert np.array_equal(pk.eval_at(xs[0], y), vals[0])


# Run under python -O with the solution reader that encryption runs giving
# a y with one coordinate moved along a nonzero column of the system, so not
# a solution: at p = 2 linalg.PackedSolution.point, which reads y from the
# reduced integer, with its first pivot unknown flipped; at odd p the
# particular solution of linalg.System.solve.
_NON_SOLUTION = """
import random, sys
import numpy as np
from hpe import KeyGenParams, encrypt_raw, keygen
from hpe.mvpoly import linalg

if not sys.flags.optimize:
    sys.exit("not running under python -O")
%s
pk, _ = keygen(KeyGenParams(q=%d, n=8), random.Random(1))
rng = random.Random(0)
for _ in range(100):
    x = np.array([rng.randrange(pk.q) for _ in range(pk.n)], dtype=np.uint8)
    try:
        encrypt_raw(pk, x, rng)
    except AssertionError as exc:
        print("AssertionError:", exc)
        break
else:
    sys.exit("the self-check never fired")
"""

_OFF_BY_ONE_POINT = """
point = linalg.PackedSolution.point

def off_by_one(self, free):
    return point(self, free) ^ 1 << self.pivots[0][1]

linalg.PackedSolution.point = off_by_one
"""

_OFF_BY_ONE_SOLVE = """
solve = linalg.System.solve

def off_by_one(self):
    sol = solve(self)
    moved = np.flatnonzero(self.m[:, :-1].any(axis=0))
    if sol is not None and moved.size:
        j = moved[0]
        sol.particular[j] = self.base.add_table[sol.particular[j], 1]
        sol.nullspace = []
    return sol

linalg.System.solve = off_by_one
"""


@pytest.mark.parametrize("q", [2, 3, 4])
def test_self_check_survives_python_O(q):
    # The check that the sampled y solves the system is no assert statement,
    # so python -O keeps it, and a non-solution raises AssertionError, not an
    # HpeError that callers count as a documented failure.
    src = os.path.dirname(os.path.dirname(hpe.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    fault = _OFF_BY_ONE_SOLVE if q % 2 else _OFF_BY_ONE_POINT
    proc = subprocess.run([sys.executable, "-O", "-c", _NON_SOLUTION % (fault, q)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "AssertionError: solver returned a non-solution"
