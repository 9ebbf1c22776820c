"""Message alphabets: letters with disjoint synonym encodings over F_q blocks.

Each letter owns at least two length-e digit strings (synonyms); encoding
picks one per letter at random, which is what gives encryption its retry
room, and decoding only accepts vectors whose every block is a known
synonym, which is what filters spurious polynomial roots.

Stock alphabets draw their synonym strings from a fixed-seed shuffle of the
block space so the valid set carries no accidental linear structure.
"""

from __future__ import annotations

import random

import numpy as np

from ..errors import LengthMismatch, SymbolOutOfAlphabet


class Alphabet:
    """An ordered letter set with per-letter synonym strings."""

    def __init__(self, q: int, e: int, synonyms: dict[str, list[tuple]]):
        self.q = q
        self.e = e
        self.letters = "".join(synonyms.keys())
        self.synonyms: dict[str, tuple[tuple, ...]] = {}
        self.reverse: dict[tuple, str] = {}
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters in alphabet")
        for ch, strings in synonyms.items():
            if len(ch) != 1:
                raise ValueError("letters must be single symbols")
            if len(strings) < 2:
                raise ValueError("each letter needs at least 2 synonyms")
            cleaned = []
            for s in strings:
                s = tuple(int(d) for d in s)
                if len(s) != e or any(not 0 <= d < q for d in s):
                    raise ValueError("synonym strings must be %d digits below %d" % (e, q))
                if s in self.reverse:
                    raise ValueError("synonym %r assigned twice" % (s,))
                self.reverse[s] = ch
                cleaned.append(s)
            self.synonyms[ch] = tuple(cleaned)

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
        lines = ["ALPHABET %d %d %d" % (self.q, self.e, len(self.letters))]
        for ch in self.letters:
            strs = [_digits_str(s, self.q) for s in self.synonyms[ch]]
            lines.append("L %d %s" % (ord(ch), " ".join(strs)))
        return lines

    @classmethod
    def from_lines(cls, lines: list[str]) -> "Alphabet":
        head = lines[0].split()
        if len(head) != 4 or head[0] != "ALPHABET":
            raise ValueError("expected 'ALPHABET q e count', got %r" % lines[0])
        q, e, count = int(head[1]), int(head[2]), int(head[3])
        synonyms: dict[str, list[tuple]] = {}
        for line in lines[1 : 1 + count]:
            parts = line.split()
            if parts[0] != "L":
                raise ValueError("expected a letter line 'L ...', got %r" % line)
            ch = chr(int(parts[1]))
            synonyms[ch] = [_parse_digits(s, q, e) for s in parts[2:]]
        return cls(q, e, synonyms)


def _digits_str(vec, q: int) -> str:
    if q <= 10:
        return "".join(str(int(d)) for d in vec)
    return ",".join(str(int(d)) for d in vec)


def _parse_digits(text: str, q: int, n: int) -> tuple:
    if q <= 10:
        vec = tuple(int(c) for c in text)
    else:
        vec = tuple(int(c) for c in text.split(","))
    if len(vec) != n or any(not 0 <= d < q for d in vec):
        raise ValueError("bad digit string %r for q=%d, n=%d" % (text, q, n))
    return vec


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
    synonyms: dict[str, list[tuple]] = {}
    for i, ch in enumerate(symbols):
        synonyms[ch] = [
            tuple((v // q**j) % q for j in range(e)) for v in picks[i * s : (i + 1) * s]
        ]
    return Alphabet(q, e, synonyms)


def text64() -> Alphabet:
    """64 text symbols (space, period, letters, digits), 8-bit blocks, q=2."""
    symbols = " ." + "".join(chr(ord("A") + i) for i in range(26)) + "".join(
        chr(ord("a") + i) for i in range(26)
    ) + "0123456789"
    return make_alphabet(2, 8, symbols, 2, seed=0x64A11)


def hex16() -> Alphabet:
    """16 hex symbols, 8-bit blocks, q=2; strong per-block filtering."""
    return make_alphabet(2, 8, "0123456789abcdef", 2, seed=0x16A11)


def base4() -> Alphabet:
    """4 symbols on 4-bit blocks, q=2; for degrees not divisible by 8."""
    return make_alphabet(2, 4, "ACGT", 2, seed=0x4A11)


def default_alphabet(q: int, n: int) -> Alphabet:
    """A stock alphabet whose block length divides n."""
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
    raise LengthMismatch("no alphabet block length divides n=%d" % n)
