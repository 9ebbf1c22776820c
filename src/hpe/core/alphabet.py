"""Message alphabets: letters with disjoint synonym encodings over F_q blocks.

Each letter owns at least two length-e digit strings (synonyms); encoding
picks one per letter at random, which is what gives encryption its retry
room, and decoding only accepts vectors whose every block is a known
synonym, which is what filters spurious polynomial roots.

Stock alphabets draw their synonym strings from a fixed-seed shuffle of the
block space so the valid set carries no accidental linear structure.
default_alphabet builds each (q, n) once per process.

An Alphabet is immutable: its synonym tables are read-only mappings, and its
text (to_lines) is written once, on first use, and reused by every dump.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
from types import MappingProxyType

import numpy as np

from ..errors import LengthMismatch, SymbolOutOfAlphabet, VariableMismatch
from ..fields import parse_decimal, parse_decimals


class Alphabet:
    """An ordered letter set with per-letter synonym strings.

    Letter i owns counts[i] synonyms, the next rows of digits, an (N, e)
    array of digits below q with N = sum(counts).
    """

    def __init__(self, q: int, e: int, letters: str, counts, digits):
        self.q = q
        self.e = e
        self.letters = letters
        counts = tuple(counts)
        if len(set(letters)) != len(letters):
            raise ValueError("duplicate letters in alphabet")
        if len(counts) != len(letters) or min(counts, default=2) < 2:
            raise ValueError("each letter needs at least 2 synonyms")
        digits = np.array(digits)  # a copy, frozen below
        if digits.shape != (sum(counts), e) or not ((digits >= 0) & (digits < q)).all():
            raise ValueError("synonym strings must be %d digits below %d" % (e, q))
        strings = list(map(tuple, digits.tolist()))
        owners = "".join(map(str.__mul__, letters, counts))
        self.reverse: MappingProxyType[tuple, str] = MappingProxyType(
            dict(zip(strings, owners)))
        if len(self.reverse) < len(strings):
            seen: set[tuple] = set()
            twice = next(s for s in strings if s in seen or seen.add(s))
            raise ValueError("synonym %r assigned twice" % (twice,))
        self._bounds = list(itertools.accumulate(counts, initial=0))
        self.synonyms: MappingProxyType[str, tuple[tuple, ...]] = MappingProxyType(
            {ch: tuple(strings[a:b]) for ch, a, b in self._spans()})
        digits.flags.writeable = False
        self._digits = digits

    def _spans(self):
        """(letter, first row, end row) of each letter's synonyms."""
        return zip(self.letters, self._bounds, self._bounds[1:])

    def synonym_count(self, ch: str) -> int:
        if ch not in self.synonyms:
            raise SymbolOutOfAlphabet("symbol %r is not in the alphabet" % ch)
        return len(self.synonyms[ch])

    def blocks_for(self, n: int) -> int:
        """Letters per message for an n-digit vector."""
        if n % self.e != 0:
            raise LengthMismatch("vector length %d is not a multiple of e=%d" % (n, self.e))
        return n // self.e

    def encode_with_choices(self, message: str, choices) -> np.ndarray:
        """Deterministic encoding given one synonym index per letter."""
        digits: list[int] = []
        for ch, pick in zip(message, choices):
            if ch not in self.synonyms:
                raise SymbolOutOfAlphabet("symbol %r is not in the alphabet" % ch)
            digits.extend(self.synonyms[ch][pick % len(self.synonyms[ch])])
        return np.array(digits, dtype=np.uint8)

    def encode(
        self, message: str, rng: random.Random, n: int | None = None
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Random-synonym encoding; returns the vector and the choice record."""
        if n is not None and len(message) * self.e != n:
            raise LengthMismatch(
                "message of %d letters does not fill %d digits at e=%d"
                % (len(message), n, self.e)
            )
        choices = tuple(
            rng.randrange(self.synonym_count(ch)) if ch in self.synonyms else 0
            for ch in message
        )
        return self.encode_with_choices(message, choices), choices

    def decode(self, vector) -> str | None:
        """Inverse of encode; None unless every block is a known synonym."""
        vec = [int(d) for d in vector]
        if len(vec) % self.e != 0:
            return None
        out = []
        for i in range(0, len(vec), self.e):
            block = tuple(vec[i : i + self.e])
            ch = self.reverse.get(block)
            if ch is None:
                return None
            out.append(ch)
        return "".join(out)

    def encoding_space(self, message: str) -> int:
        """Number of distinct encodings of the message."""
        space = 1
        for ch in message:
            space *= self.synonym_count(ch)
        return space

    # -- serialization -----------------------------------------------------

    def to_lines(self) -> list[str]:
        """The alphabet block: 'ALPHABET q e count', then 'L code synonyms..'
        per letter."""
        return list(self._lines)

    @functools.cached_property
    def _lines(self) -> tuple[str, ...]:
        strings = _digits_str(self._digits, self.q)
        return ("ALPHABET %d %d %d" % (self.q, self.e, len(self.letters)),
                *("L %d %s" % (ord(ch), " ".join(strings[a:b]))
                  for ch, a, b in self._spans()))

    @classmethod
    def from_lines(cls, lines: list[str]) -> "Alphabet":
        head = lines[0].split()
        if len(head) != 4 or head[0] != "ALPHABET":
            raise ValueError("expected 'ALPHABET q e count', got %r" % lines[0])
        q, e, count = (parse_decimal(tok) for tok in head[1:])
        rows = [line.split() for line in lines[1:1 + count]]
        if len(rows) != count:
            raise ValueError("%d letter lines, not %d" % (len(rows), count))
        if {row[0] for row in rows} - {"L"}:
            raise ValueError("expected letter lines 'L code synonyms..'")
        codes = parse_decimals([row[1] for row in rows])
        if max(codes, default=0) > sys.maxunicode:
            raise ValueError("letter code %d is not a character" % max(codes))
        synonyms = list(itertools.chain.from_iterable(row[2:] for row in rows))
        return cls(q, e, "".join(map(chr, codes)), [len(row) - 2 for row in rows],
                   _parse_digits(synonyms, q, e))


def _digits_str(rows, q: int) -> list[str]:
    """Each row of an array of digits below q as one string, all in one
    pass: its ASCII digits for q <= 10, its decimals joined by commas above."""
    rows = np.asarray(rows)
    count, width = rows.shape
    if q <= 10:
        cells = np.full((count, width + 1), ord(" "), dtype=np.uint8)
        cells[:, :width] = rows + ord("0")
        return cells.tobytes().decode("ascii").split()
    row = ",".join(["%d"] * width)
    return (" ".join([row] * count) % tuple(rows.ravel().tolist())).split()


def _parse_digits(tokens: list[str], q: int, n: int) -> np.ndarray:
    """The (len(tokens), n) digits of digit strings as _digits_str writes
    them: n ASCII digits for q <= 10, n comma-separated canonical decimals
    above.  Anything else, or a digit not below q, raises ValueError."""
    if q <= 10:
        text = "".join(tokens)
        if set(map(len, tokens)) - {n} or not text.isascii():
            raise ValueError("digit strings must be %d ASCII digits" % n)
        # a byte below '0' wraps to 208 and up, so the range check below is
        # also the check for ASCII digits
        digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        if set(map(str.count, tokens, itertools.repeat(","))) - {n - 1}:
            raise ValueError("digit strings must be %d decimals" % n)
        values = parse_decimals(",".join(tokens).split(",") if tokens else [])
        digits = np.array(values, dtype=np.min_scalar_type(max(values, default=0)))
    if not (digits < q).all():
        raise ValueError("digit strings must have digits below %d" % q)
    return digits.reshape(len(tokens), n)


def make_alphabet(q: int, e: int, symbols: str, s: int, seed: int) -> Alphabet:
    """Assign s distinct random length-e strings to each symbol, seeded."""
    need = len(symbols) * s
    space = q**e
    if need > space:
        raise LengthMismatch(
            "%d synonym strings do not fit in %d blocks" % (need, space))
    rng = random.Random(seed)
    if space <= 1 << 20:
        picks = rng.sample(range(space), need)
    else:
        seen: set[int] = set()
        picks = []
        while len(picks) < need:
            v = rng.randrange(space)
            if v not in seen:
                seen.add(v)
                picks.append(v)
    # every pick is below space, so uint64 holds it when space <= 2^64
    place = q ** np.arange(e, dtype=np.uint64 if space <= 1 << 64 else object)
    digits = np.array(picks, dtype=place.dtype)[:, None] // place % q
    return Alphabet(q, e, symbols, [s] * len(symbols), digits)


def text64() -> Alphabet:
    """64 text symbols (space, period, letters, digits), 8-bit blocks, q=2."""
    symbols = " ." + "".join(chr(ord("A") + i) for i in range(26)) + "".join(
        chr(ord("a") + i) for i in range(26)
    ) + "0123456789"
    return make_alphabet(2, 8, symbols, 2, seed=0x64A11)


def base4() -> Alphabet:
    """4 symbols on 4-bit blocks, q=2; for degrees not divisible by 8."""
    return make_alphabet(2, 4, "ACGT", 2, seed=0x4A11)


@functools.lru_cache(maxsize=64)
def default_alphabet(q: int, n: int) -> Alphabet:
    """A stock alphabet whose block length divides n, built once per (q, n).
    Raises VariableMismatch, a parameter error, when none divides n."""
    if q == 2:
        if n % 8 == 0:
            return text64()
        if n % 4 == 0:
            return base4()
    for e in range(min(8, n), 0, -1):
        if n % e != 0 or q**e < 8:
            continue
        # Claim at most half the block space so decoding can still reject.
        count = min(64, q**e // 4)
        symbols = "".join(chr(ord("A") + i) if i < 26 else chr(ord("a") + i - 26) for i in range(count))
        return make_alphabet(q, e, symbols, 2, seed=0xDEFA)
    raise VariableMismatch("no stock alphabet block length divides n=%d" % n)
