"""Key generation: sample a hidden relation, mask it, expand the equations."""

import functools
import random

from ..errors import GenerationFailed
from ..fields import build_extension
from . import linearize
from .alphabet import default_alphabet
from .keys import (AffinePair, KeyGenParams, PrivateKey, PrivatePolynomial,
                   PublicKey)

_REGEN_BUDGET = 40


@functools.lru_cache(maxsize=256)
def theta_options(q: int, weight: int, cap: int, n: int,
                  distinct: bool = False) -> tuple:
    """All sorted tuples of `weight` Frobenius levels below n whose
    q-power sum stays within cap.

    With distinct=True the levels must be strictly increasing; a
    repeated level at q=2 sums two equal powers into a single higher
    power, which would leave the monomial linear in x.
    """
    out = []

    def rec(prefix, start, total):
        if len(prefix) == weight:
            out.append(tuple(prefix))
            return
        for t in range(start, n):
            s = total + q**t
            if s > cap:
                break
            prefix.append(t)
            rec(prefix, t + 1 if distinct else t, s)
            prefix.pop()

    rec([], 0, 0)
    return tuple(out)


def sample_private(params: KeyGenParams, field, rng: random.Random) -> PrivatePolynomial:
    """Draw a hidden relation satisfying the weight and degree caps.

    Mixed terms get pairwise distinct Frobenius levels on Y so their
    linearized y-images cannot collapse into each other, and strictly
    increasing levels on X so every mixed monomial stays nonlinear in
    the x coordinates.  X decompositions are also kept distinct across
    terms while the option pool allows it; sharing one would let some
    combination of the public equations shed its quadratic part.
    """
    q, n = params.q, params.n
    mixed_weights = [
        w for w in range(2, params.t_max)
        if theta_options(q, w, params.degX_max, n, distinct=True)
    ]
    if not mixed_weights:
        raise GenerationFailed(
            "no mixed monomial fits t_max=%d, degX_max=%d"
            % (params.t_max, params.degX_max)
        )
    if params.n_monomials > n:
        raise GenerationFailed(
            "cannot give %d mixed monomials distinct y levels with n=%d"
            % (params.n_monomials, n)
        )
    y_levels = rng.sample(range(n), params.n_monomials)
    mixed, used_x = [], set()
    for yth in y_levels:
        w = rng.choice(mixed_weights)
        options = theta_options(q, w, params.degX_max, n, distinct=True)
        fresh = [o for o in options if o not in used_x]
        xth = rng.choice(fresh if fresh else list(options))
        used_x.add(xth)
        mixed.append((field.random_nonzero(rng), xth, yth))

    pure_weights = [
        w for w in range(1, params.t_max + 1)
        if theta_options(q, w, params.degX_max, n)
    ]
    pure, seen = [], set()
    for _ in range(20):
        if len(pure) == 2 or not pure_weights:
            break
        w = rng.choice(pure_weights)
        xth = rng.choice(theta_options(q, w, params.degX_max, n))
        if xth in seen:
            continue
        seen.add(xth)
        pure.append((field.random_nonzero(rng), xth))

    return PrivatePolynomial(tuple(mixed), tuple(pure), field.random_nonzero(rng))


def expand_keypair(field, priv: PrivatePolynomial, affine: AffinePair,
                   alphabet) -> PublicKey:
    """Turn (f, A, B) into the published coordinate equations.

    Each monomial of f becomes a product of Frobenius twists of the two
    affine images, one x twist per base-q digit of its X exponent and the
    y twist last; expanding those products coordinatewise and reducing
    x^q = x yields n equations linear in y, summed into the key's
    coefficient blocks.
    """
    base = field.base
    n = field.n
    x_factor = linearize.affine_block_matrix(field, affine.a_mat, affine.c_vec)
    y_factor = linearize.affine_block_matrix(field, affine.b_mat, affine.d_vec)

    terms = [*priv.mixed, *((b, xth, None) for b, xth in priv.pure),
             (priv.const, (), None)]
    parts = []
    for coeff, xth, yth in terms:
        fs = [linearize.frobenius_factor(field, t, x_factor)
              for t in linearize.x_levels(base.q, n, xth)]
        if yth is not None:
            fs.append(linearize.frobenius_factor(field, yth, y_factor))
        flat = linearize.expand_product(field, coeff, fs)
        parts.append(linearize.records_general(field, flat, n, yth is not None))
    blocks = linearize.merge_general(field, parts, n)
    return PublicKey(base, n, priv.t(), *blocks, alphabet)


def keygen(params: KeyGenParams, rng: random.Random | None = None,
           alphabet=None):
    """Produce a fresh (public, private) key pair.

    Resamples the hidden relation a bounded number of times if the
    expanded equations come out degenerate (some equation missing y or
    nonlinear x terms), then gives up with GenerationFailed.
    """
    params.check()
    if rng is None:
        rng = random.Random(params.seed)
    field = build_extension(params.q, params.n)
    if alphabet is None:
        alphabet = default_alphabet(params.q, params.n)
    alphabet.blocks_for(params.n)
    for _ in range(_REGEN_BUDGET):
        affine = AffinePair.sample(field.base, params.n, rng)
        priv = sample_private(params, field, rng)
        public = expand_keypair(field, priv, affine, alphabet)
        if public.shape_violations():
            continue
        return public, PrivateKey(field, priv, affine, alphabet, public)
    raise GenerationFailed(
        "no well-shaped key after %d attempts" % _REGEN_BUDGET)
