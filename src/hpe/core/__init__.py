from .alphabet import Alphabet, base4, default_alphabet, make_alphabet, text64
from .keygen import expand_keypair, keygen, sample_private, theta_options
from .keys import (AffinePair, KeyGenParams, PrivateKey, PrivatePolynomial,
                   PublicKey)

__all__ = [
    "Alphabet", "base4", "default_alphabet", "make_alphabet", "text64",
    "expand_keypair", "keygen", "sample_private", "theta_options",
    "AffinePair", "KeyGenParams", "PrivateKey", "PrivatePolynomial",
    "PublicKey",
]
