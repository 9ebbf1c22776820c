"""Exception types shared across the package.

Scalar division by zero raises the builtin ZeroDivisionError; everything
else derives from HpeError so callers can catch protocol failures in one
place.
"""


class HpeError(Exception):
    """Base class for all package-specific errors."""


class InvalidOrder(HpeError):
    """The requested field order is not a prime power, or is unsupported."""


class InvalidDegree(HpeError):
    """The requested extension degree is out of range."""


class NotIrreducible(HpeError):
    """A supplied modulus polynomial is reducible."""


class VariableMismatch(HpeError):
    """Operands disagree on variable count or block layout."""


class SingularMatrix(HpeError):
    """A matrix required to be invertible is singular."""


class ZeroPolynomial(HpeError):
    """The zero polynomial was passed where a nonzero one is required."""


class RootFindingFailed(HpeError):
    """Equal-degree splitting of a root-finding product made no progress."""


class GenerationFailed(HpeError):
    """Key generation exhausted its retry budget or the parameters admit no key."""


class SymbolOutOfAlphabet(HpeError):
    """A message symbol is not part of the bound alphabet."""


class LengthMismatch(HpeError):
    """A message or vector has the wrong length for the parameters."""


class EncryptionFailed(HpeError):
    """No solvable system was found within the encryption retry budget."""


class NoValidCandidate(HpeError):
    """Decryption produced no alphabet-valid candidate."""


class AmbiguousDecryption(HpeError):
    """Decryption produced more than one alphabet-valid candidate.

    The surviving candidates are reported on the exception rather than
    silently resolved.
    """

    def __init__(self, candidates):
        self.candidates = list(candidates)
        super().__init__(
            "ambiguous decryption: %d alphabet-valid candidates" % len(self.candidates)
        )


class SigningFailed(HpeError):
    """No signable hash was found within the salt retry budget."""


class SigncryptionFailed(HpeError):
    """Signcryption exhausted its retry budget."""


class BadTheta(HpeError):
    """gcd(q^theta + 1, q^n - 1) != 1, so the Imai-Matsumoto map is not bijective."""


class SolutionSpaceTooLarge(HpeError):
    """A residual affine solution space exceeds the enumeration guard."""


class TooLarge(HpeError):
    """An exhaustive operation was requested beyond its size guard."""


class FormatError(HpeError):
    """A serialized object failed to parse."""
