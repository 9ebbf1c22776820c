"""Signatures and signcryption built on the trapdoor.

Signing hashes the message to a target vector y, pulls it back through
the private side to a root of the univariate relation, and publishes
the preimage x with the salt that made the hash land on a solvable
target.  Signcryption composes the sender's inverse map with ordinary
encryption under the receiver's key.
"""

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .core.protocol import _DEFAULT_TRIALS, _over_encodings, decrypt_raw, encrypt_raw
from .errors import (NoValidCandidate, SigncryptionFailed, SigningFailed,
                     VariableMismatch)
from .mvpoly.upoly import roots as upoly_roots  # noqa: F401  (see _invert_target)

_SALT_BUDGET = 64
_ENUM_CAP = 4096


def hash_to_y(message, salt: int, q: int, n: int) -> np.ndarray:
    """Deterministic n-digit base-q vector from a message and salt.

    Power-of-two q slices the hash stream into exact digit-sized bit
    chunks; other q uses byte rejection so every digit stays uniform.
    """
    payload = message if isinstance(message, bytes) else str(message).encode("utf-8")
    prefix = payload + salt.to_bytes(8, "big")
    digits: list[int] = []
    counter = 0
    bits = q.bit_length() - 1 if q & (q - 1) == 0 else 0
    pending = npend = 0
    while len(digits) < n:
        block = hashlib.sha256(prefix + counter.to_bytes(4, "big")).digest()
        counter += 1
        if bits:
            for byte in block:
                pending |= byte << npend
                npend += 8
                while npend >= bits and len(digits) < n:
                    digits.append(pending & (q - 1))
                    pending >>= bits
                    npend -= bits
        else:
            cut = 256 - 256 % q
            for byte in block:
                if byte < cut and len(digits) < n:
                    digits.append(byte % q)
    return np.array(digits, dtype=np.uint8)


@dataclass(frozen=True)
class Signature:
    salt: int
    x: np.ndarray


# All preimages x of a target vector under the private maps: the trapdoor
# inversion of decryption.  The name stays for perfbench/tracing.py's layer
# map, which wraps it and upoly_roots by name.
_invert_target = decrypt_raw


def sign(sk, message, rng: random.Random,
         max_trials: int = _SALT_BUDGET) -> Signature:
    """Sign a message; the salt walks forward until the hash is solvable.

    Among several valid preimages one is chosen uniformly, so the
    signature distribution does not favor any root.
    """
    n, q = sk.n, sk.base.q
    for salt in range(max_trials):
        y = hash_to_y(message, salt, q, n)
        xs = _invert_target(sk, y, rng)
        if xs:
            return Signature(salt, xs[rng.randrange(len(xs))])
    raise SigningFailed("no solvable hash target in %d salts" % max_trials)


def verify(pk, message, sig: Signature) -> bool:
    """Accept iff (x, H(M, salt)) satisfies every public equation.

    Malformed signatures reject instead of raising.
    """
    try:
        salt = int(sig.salt)
        x = np.asarray(sig.x, dtype=np.int64)
    except (TypeError, ValueError, AttributeError):
        return False
    if not 0 <= salt < 1 << 64 or x.shape != (pk.n,):
        return False
    if ((x < 0) | (x >= pk.q)).any():
        return False
    y = hash_to_y(message, salt, pk.q, pk.n)
    vals = pk.eval_at(x.astype(np.uint8), y)
    return not np.any(vals)


def signcrypt(sk_sender, pk_receiver, message: str, rng: random.Random,
              max_trials: int = _DEFAULT_TRIALS) -> np.ndarray:
    """Authenticated encryption of a message for one receiver.

    The encoded message is pulled back through the sender's private
    maps (only the sender can do this), and that raw preimage is then
    encrypted under the receiver's public key.  Retries walk first over
    the preimage roots, then over synonym re-encodings.
    """
    if pk_receiver.q != sk_sender.base.q or pk_receiver.n != sk_sender.n:
        raise VariableMismatch("sender and receiver keys disagree on q or n")

    def attempt(target):
        xs = _invert_target(sk_sender, target, rng)
        rng.shuffle(xs)
        for x in xs:
            y = encrypt_raw(pk_receiver, x, rng)
            if y is not None:
                return y

    return _over_encodings(sk_sender.alphabet, message, sk_sender.n, rng,
                           max_trials, attempt, SigncryptionFailed)[0]


def unsigncrypt(sk_receiver, pk_sender, y_vec: np.ndarray) -> list:
    """Candidate messages behind a signcrypted vector, sorted.

    Decrypts to raw preimage candidates with the receiver's key, then
    for each solves the sender's public equations for the y block and
    keeps solutions that decode under the alphabet.  Solution spaces
    larger than _ENUM_CAP are skipped; honest traffic never gets there.
    """
    if pk_sender.q != sk_receiver.base.q or pk_sender.n != sk_receiver.n:
        raise VariableMismatch("sender and receiver keys disagree on q or n")
    base = pk_sender.base
    alphabet = sk_receiver.alphabet
    msgs = set()
    for x_b in decrypt_raw(sk_receiver, y_vec):
        sol = pk_sender.system(x_b).solve()
        if sol is None or sol.count(base) > _ENUM_CAP:
            continue
        for candidate in sol.enumerate(base):
            msg = alphabet.decode(candidate)
            if msg is not None:
                msgs.add(msg)
    if not msgs:
        raise NoValidCandidate("nothing decodes under the alphabet")
    return sorted(msgs)
