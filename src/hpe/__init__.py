"""Hidden-polynomial public-key toolkit.

Builds the two-level field tower, hides a structured bivariate relation
behind affine masks, and publishes its coordinate equations; on top of
that sit probabilistic encryption, signatures, signcryption, and a
cryptanalysis harness for the ancestral power-map scheme.
"""

from . import errors
from .core.alphabet import (Alphabet, base4, default_alphabet, make_alphabet,
                            text64)
from .core.keygen import expand_keypair, keygen, sample_private
from .core.keys import (AffinePair, KeyGenParams, PrivateKey,
                        PrivatePolynomial, PublicKey)
from .core.protocol import (batch_zero_mask, decrypt, decrypt_messages,
                            decrypt_raw, encrypt, encrypt_raw)
from .core.serial import (dump_private, dump_public, dump_signature,
                          dump_vector, load_private, load_public,
                          parse_signature, parse_vector)
from .fields import (BaseField, ExtensionField, base_field, build_extension,
                     parse_descriptor)
from .imattack import (default_theta, harvest_relations, im_keygen,
                       patarin_attack)
from .mvpoly.linalg import Solution, nullspace, solve
from .sigs import (Signature, hash_to_y, sign, signcrypt, unsigncrypt,
                   verify)

__version__ = "0.1.0"
