"""Probabilistic encryption and trapdoor decryption."""

import random

import numpy as np

from ..errors import (AmbiguousDecryption, EncryptionFailed, NoValidCandidate,
                      TooLarge)
from ..mvpoly.upoly import roots as upoly_roots
from .keys import MAX_DEGX

_DEFAULT_TRIALS = 10
_BATCH_CELLS = 1 << 18  # rows x key monomials per batch_zero_mask chunk


def encrypt_raw(pk, x_vec: np.ndarray, rng: random.Random):
    """One encryption attempt for a fixed digit vector.

    Collapses the public equations at x into a linear system for the
    randomness y and samples a uniform solution; None when the system
    is inconsistent, which is the expected failure mode.
    """
    system = pk.system(x_vec)
    sol = system.solve()
    if sol is None:
        return None
    y = sol.sample(pk.base, rng)
    # a solver bug, not a protocol failure: an AssertionError, which no
    # caller counts as an HpeError, and no assert, which python -O strips
    if not system.solves(y):
        raise AssertionError("solver returned a non-solution")
    return y


def _fresh_choices(alphabet, message, choices, tried, space, rng):
    """A synonym assignment not yet tried, or None when used up."""
    if len(tried) >= space:
        return None
    movable = [
        i for i, ch in enumerate(message) if alphabet.synonym_count(ch) > 1
    ]
    for _ in range(64):
        if not movable:
            break
        i = rng.choice(movable)
        width = alphabet.synonym_count(message[i])
        alt = rng.randrange(width - 1)
        if alt >= choices[i]:
            alt += 1
        cand = choices[:i] + (alt,) + choices[i + 1:]
        if cand not in tried:
            return cand
    while True:
        cand = tuple(
            rng.randrange(alphabet.synonym_count(ch)) for ch in message
        )
        if cand not in tried:
            return cand


def _over_encodings(alphabet, message, n, rng, max_trials, attempt, error):
    """Run attempt on a message's synonym encodings until one gives a value.

    Returns (value, trials used); raises error when trials or encodings run out.
    """
    space = alphabet.encoding_space(message)
    x_vec, choices = alphabet.encode(message, rng, n)
    tried = {choices}
    for trial in range(1, max_trials + 1):
        out = attempt(x_vec)
        if out is not None:
            return out, trial
        choices = _fresh_choices(alphabet, message, choices, tried, space, rng)
        if choices is None:
            raise error("all %d encodings of %r rejected" % (space, message))
        tried.add(choices)
        x_vec = alphabet.encode_with_choices(message, choices)
    raise error(
        "no solvable encoding of %r in %d trials" % (message, max_trials))


def encrypt(pk, message: str, rng: random.Random,
            max_trials: int = _DEFAULT_TRIALS):
    """Encrypt a message, retrying over synonym encodings on failure.

    Returns (ciphertext digit vector, trials used).  Raises
    EncryptionFailed when the trial budget or the encoding space for the
    message runs out first.
    """
    return _over_encodings(pk.alphabet, message, pk.n, rng, max_trials,
                           lambda x: encrypt_raw(pk, x, rng), EncryptionFailed)


def decrypt_raw(sk, y_vec: np.ndarray, rng: random.Random | None = None):
    """All digit vectors x consistent with the ciphertext, unfiltered.

    Works through the trapdoor: maps y to the hidden v, collects the
    roots in X of the univariate f(X, v), and pulls each root back
    through the x-side mask.  Sorted by the root's packed value.  Raises
    TooLarge when f(X, v) has degree above MAX_DEGX, the cap that keygen
    and load_private put on the relation, so every key inverts in bounded
    time.
    """
    if rng is None:
        rng = random.Random(3517)
    field = sk.field
    v = field.from_coords(sk.affine.map_y(np.asarray(y_vec, dtype=np.uint8)))
    g = sk.priv.univariate_in_x(field, v)
    if not g:
        return []
    if len(g) - 1 > MAX_DEGX:
        raise TooLarge(
            "f(X, v) has degree %d, above %d" % (len(g) - 1, MAX_DEGX))
    out = []
    for u in sorted(upoly_roots(field, g, rng)):
        coords = np.array(field.coords(u), dtype=np.uint8)
        out.append(sk.affine.unmap_u(coords))
    return out


def decrypt_messages(sk, y_vec: np.ndarray) -> list:
    """Sorted distinct messages whose encodings solve this ciphertext."""
    seen = set()
    for x in decrypt_raw(sk, y_vec):
        msg = sk.alphabet.decode(x)
        if msg is not None:
            seen.add(msg)
    return sorted(seen)


def decrypt(sk, y_vec: np.ndarray) -> list:
    """The alphabet-valid message behind a ciphertext, as a one-element list.

    Raises NoValidCandidate when nothing decodes and AmbiguousDecryption
    (carrying the candidates) when several messages survive the filter.
    """
    msgs = decrypt_messages(sk, y_vec)
    if not msgs:
        raise NoValidCandidate("no candidate decodes under the alphabet")
    if len(msgs) > 1:
        raise AmbiguousDecryption(msgs)
    return msgs


def batch_zero_mask(pk, digits: np.ndarray, y_vec: np.ndarray) -> np.ndarray:
    """Which rows of a (m, n) digit matrix satisfy every public equation.

    Evaluates in chunks of rows so that rows times the key's monomials,
    the size of the kernel's monomial values, stays bounded.
    """
    digits = np.asarray(digits, dtype=np.uint8)
    ok = np.empty(len(digits), dtype=bool)
    step = max(1, _BATCH_CELLS // max(1, len(pk.mono0) + len(pk.monoy)))
    for lo in range(0, len(digits), step):
        vals = pk.eval_at(digits[lo:lo + step], y_vec)
        ok[lo:lo + step] = ~vals.any(axis=1)
    return ok
