"""Probabilistic encryption, decryption, and exhaustive inversion."""

import random

import numpy as np

from ..errors import (AmbiguousDecryption, EncryptionFailed, NoValidCandidate,
                      TooLarge)
from ..mvpoly import linalg
from ..mvpoly.upoly import roots as upoly_roots

_DEFAULT_TRIALS = 10
_BATCH_CELLS = 1 << 18  # rows x key monomials per batch_zero_mask chunk


def encrypt_raw(pk, x_vec: np.ndarray, rng: random.Random):
    """One encryption attempt for a fixed digit vector.

    Collapses the public equations at x into a linear system for the
    randomness y and samples a uniform solution; None when the system
    is inconsistent, which is the expected failure mode.
    """
    x_vec = np.asarray(x_vec, dtype=np.uint8)
    matrix, rhs = pk.linear_system(x_vec)
    sol = linalg.solve(pk.base, matrix, rhs)
    if sol is None:
        return None
    y = sol.sample(pk.base, rng)
    assert np.array_equal(linalg.matvec(pk.base, matrix, y), rhs), \
        "solver returned a non-solution"
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


def encrypt(pk, message: str, rng: random.Random,
            max_trials: int = _DEFAULT_TRIALS):
    """Encrypt a message, retrying over synonym encodings on failure.

    Returns (ciphertext digit vector, trials used).  Raises
    EncryptionFailed when the trial budget or the encoding space for the
    message runs out first.
    """
    alphabet = pk.alphabet
    space = alphabet.encoding_space(message)
    x_vec, choices = alphabet.encode(message, rng, pk.n)
    tried = {choices}
    for trial in range(1, max_trials + 1):
        y = encrypt_raw(pk, x_vec, rng)
        if y is not None:
            return y, trial
        choices = _fresh_choices(alphabet, message, choices, tried, space, rng)
        if choices is None:
            raise EncryptionFailed(
                "all %d encodings of %r rejected" % (space, message))
        tried.add(choices)
        x_vec = alphabet.encode_with_choices(message, choices)
    raise EncryptionFailed(
        "no solvable encoding of %r in %d trials" % (message, max_trials))


def decrypt_raw(sk, y_vec: np.ndarray, rng: random.Random | None = None):
    """All digit vectors x consistent with the ciphertext, unfiltered.

    Works through the trapdoor: maps y to the hidden v, collects the
    roots in X of the univariate f(X, v), and pulls each root back
    through the x-side mask.  Sorted by the root's packed value.
    """
    if rng is None:
        rng = random.Random(3517)
    field = sk.field
    v = field.from_coords(sk.affine.map_y(np.asarray(y_vec, dtype=np.uint8)))
    g = sk.priv.univariate_in_x(field, v)
    if not g:
        return []
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


def private_relation_check(sk, u: int, v: int):
    """Evaluate both sides of the hidden relation at one point.

    Takes the extension-field pair (u, v), pulls it back through the affine
    maps to (x, y) and returns (hidden, public): the coordinates of f(u, v)
    and the values of the published equations.  They must agree everywhere.
    """
    field = sk.field
    x_vec = sk.affine.unmap_u(np.array(field.coords(u), dtype=np.uint8))
    y_vec = sk.affine.unmap_v(np.array(field.coords(v), dtype=np.uint8))
    hidden = np.array(field.coords(sk.priv.eval(field, u, v)), dtype=np.uint8)
    return hidden, sk.public.eval_at(x_vec, y_vec)


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


def exhaustive_invert(pk, y_vec: np.ndarray, limit: int = 1 << 24) -> list:
    """Every x with all public equations vanishing at (x, y), by search.

    Ground truth for the trapdoor path; refuses spaces above limit.
    Results come back as digit vectors in ascending packed order.
    """
    total = pk.q**pk.n
    if total > limit:
        raise TooLarge("search space %d exceeds limit %d" % (total, limit))
    out = []
    chunk = 1 << 13
    powers = pk.q ** np.arange(pk.n, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :] % pk.q).astype(np.uint8)
        good = batch_zero_mask(pk, digits, y_vec)
        out.extend(digits[good])
    return out
