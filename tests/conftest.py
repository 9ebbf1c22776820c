import random

import numpy as np
import pytest
from hypothesis import settings

from hpe import KeyGenParams, keygen
from hpe.core.keys import PublicKey

from oracles import hex16

# Property tests draw the same examples on every run and carry no per-example
# deadline, so a slow or busy host cannot make them flake.
settings.register_profile("hpe", derandomize=True, deadline=None, database=None)
settings.load_profile("hpe")


@pytest.fixture(scope="session")
def pair16():
    """A (public, private) pair at q=2, n=16 with the text alphabet."""
    return keygen(KeyGenParams(q=2, n=16), random.Random(101))


@pytest.fixture(scope="session")
def pair16_hex():
    return keygen(KeyGenParams(q=2, n=16), random.Random(102), alphabet=hex16())


@pytest.fixture(scope="session")
def pair12():
    """Small pair whose ciphertext space (2^12) can be searched outright."""
    return keygen(KeyGenParams(q=2, n=12), random.Random(103))


def random_messages(alphabet, blocks, count, seed):
    rng = random.Random(seed)
    letters = alphabet.letters
    return ["".join(rng.choice(letters) for _ in range(blocks))
            for _ in range(count)]


def sub_key(pk, equations, t=None):
    """The key made of the listed equations of pk, the others emptied, whose
    monomials left with no coefficient the PublicKey constructor drops; t
    defaults to pk's."""
    empty = np.ones(pk.n, dtype=bool)
    empty[list(equations)] = False
    C0, Cy = pk.C0.copy(), pk.Cy.copy()
    C0[empty], Cy[empty] = 0, 0
    return PublicKey(pk.base, pk.n, pk.t if t is None else t, pk.mono0, C0,
                     pk.monoy, Cy, pk.alphabet)
