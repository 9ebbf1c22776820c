import random

import numpy as np
import pytest
from hypothesis import settings

from hpe import KeyGenParams, keygen
from hpe.core.alphabet import hex16
from hpe.core.keys import PublicKey

# Property tests draw the same examples on every run and carry no per-example
# deadline, so a slow or busy host cannot make them flake.
settings.register_profile("hpe", derandomize=True, deadline=None, database=None)
settings.load_profile("hpe")


@pytest.fixture(scope="session")
def pair16():
    """A (public, private) pair at q=2, n=16 with the text alphabet."""
    return keygen(KeyGenParams(q=2, n=16, seed=101))


@pytest.fixture(scope="session")
def pair16_hex():
    return keygen(KeyGenParams(q=2, n=16, seed=102), alphabet=hex16())


@pytest.fixture(scope="session")
def pair12():
    """Small pair whose ciphertext space (2^12) can be searched outright."""
    return keygen(KeyGenParams(q=2, n=12, seed=103))


def random_messages(alphabet, blocks, count, seed):
    rng = random.Random(seed)
    letters = alphabet.letters
    return ["".join(rng.choice(letters) for _ in range(blocks))
            for _ in range(count)]


def sub_key(pk, equations, t=None):
    """The key made of the listed equations of pk, the others left empty,
    rebuilt through PublicKey.from_terms; t defaults to pk's."""
    n = pk.n
    slot, coeff, x_rows = [np.zeros(0, np.int64)], [np.zeros(0, np.uint8)], [
        np.zeros((0, n), np.uint8)]
    for k in equations:
        c, exps = pk.equation_terms(k)
        y = exps[:, n:]
        slot.append(k * (n + 1) + np.where(y.any(axis=1), y.argmax(axis=1) + 1, 0))
        coeff.append(c)
        x_rows.append(exps[:, :n])
    return PublicKey.from_terms(pk.base, n, pk.t if t is None else t,
                                np.concatenate(slot), np.concatenate(coeff),
                                np.concatenate(x_rows), pk.alphabet)
