import random

import numpy as np
import pytest

from hpe.core.alphabet import (Alphabet, base4, default_alphabet, hex16,
                               make_alphabet, text64)
from hpe.errors import LengthMismatch, SymbolOutOfAlphabet


def test_builtin_tables_shape():
    t = text64()
    assert len(t.letters) == 64 and t.e == 8 and t.q == 2
    # Space leads so it can double as the padding letter.
    assert t.letters[0] == " "
    assert set(t.letters) > set("AZaz09 .")
    h = hex16()
    assert len(h.letters) == 16 and h.e == 8
    assert h.letters == "0123456789abcdef"
    b = base4()
    assert b.letters == "ACGT" and b.e == 4
    for a in (t, h, b):
        for ch in a.letters:
            assert a.synonym_count(ch) == 2


def test_synonym_codes_are_distinct():
    for a in (text64(), hex16(), base4()):
        seen = set()
        for ch in a.letters:
            for code in a.synonyms[ch]:
                assert len(code) == a.e
                assert all(0 <= d < a.q for d in code)
                assert code not in seen
                seen.add(code)


def test_density_leaves_room_for_rejection():
    # The fraction of e-digit blocks that decode must stay at or below 1/2.
    for a in (text64(), hex16(), base4()):
        used = sum(len(a.synonyms[ch]) for ch in a.letters)
        assert used * 2 <= a.q ** a.e


def test_make_alphabet_deterministic():
    a = make_alphabet(2, 8, "abcdef", 2, seed=99)
    b = make_alphabet(2, 8, "abcdef", 2, seed=99)
    assert a.synonyms == b.synonyms
    c = make_alphabet(2, 8, "abcdef", 2, seed=100)
    assert a.synonyms != c.synonyms


def test_make_alphabet_rejects_tight_space():
    with pytest.raises(LengthMismatch):
        make_alphabet(2, 3, "abcdefgh", 2, seed=1)


def test_encode_decode_round_trip():
    rng = random.Random(20)
    for a in (text64(), hex16(), base4()):
        for _ in range(40):
            msg = "".join(rng.choice(a.letters) for _ in range(3))
            vec, choices = a.encode(msg, rng)
            assert len(vec) == 3 * a.e
            assert a.decode(vec) == msg
            assert len(choices) == 3
            again = a.encode_with_choices(msg, choices)
            assert np.array_equal(again, vec)


def test_encode_respects_target_length():
    a = hex16()
    rng = random.Random(21)
    vec, _ = a.encode("ab", rng, 16)
    assert len(vec) == 16
    with pytest.raises(LengthMismatch):
        a.encode("abc", rng, 16)


def test_encode_rejects_foreign_symbols():
    a = hex16()
    with pytest.raises(SymbolOutOfAlphabet):
        a.encode("zz", random.Random(0))


def test_decode_rejects_noncode_blocks():
    a = hex16()
    rng = random.Random(22)
    vec, _ = a.encode("0f", rng)
    hits = 0
    for _ in range(200):
        tampered = np.array(vec)
        tampered[rng.randrange(len(vec))] ^= 1
        if a.decode(tampered) is None:
            hits += 1
    # With half the code space unused most single flips leave the code.
    assert hits > 100


def test_decode_rejects_bad_length():
    a = base4()
    assert a.decode(np.zeros(3, dtype=np.uint8)) is None


def test_encoding_space_and_blocks():
    a = text64()
    assert a.encoding_space("Go") == 4
    assert a.encoding_space("Gone") == 16
    assert a.blocks_for(16) == 2
    with pytest.raises(LengthMismatch):
        a.blocks_for(12)


def test_serialized_tables_round_trip():
    for a in (text64(), hex16(), base4()):
        lines = a.to_lines()
        again = Alphabet.from_lines(lines)
        assert again.to_lines() == lines
        assert again.letters == a.letters
        assert again.synonyms == a.synonyms


def test_serialized_tables_check_their_tags():
    lines = base4().to_lines()
    head = lines[0]
    for bad in ([head + " junk", *lines[1:]],
                [head.replace("ALPHABET", "ALPHABETxyz"), *lines[1:]],
                [head, "EQ" + lines[1][1:], *lines[2:]],
                [head, *lines[1:-1], "X" + lines[-1][1:]]):
        with pytest.raises(ValueError):
            Alphabet.from_lines(bad)


def test_default_alphabet_selection():
    a = default_alphabet(2, 16)
    assert a.letters == text64().letters
    b = default_alphabet(2, 12)
    assert b.letters == "ACGT"
    g = default_alphabet(3, 6)
    assert g.q == 3
    assert 6 % g.e == 0
    used = sum(len(g.synonyms[ch]) for ch in g.letters)
    assert used * 2 <= 3 ** g.e
    # Odd lengths fall back to one block spanning the whole vector.
    odd = default_alphabet(2, 7)
    assert odd.e == 7
    assert sum(len(odd.synonyms[ch]) for ch in odd.letters) * 2 <= 2 ** 7
    with pytest.raises(LengthMismatch):
        default_alphabet(2, 2)


def test_distinct_encodings_cover_space():
    a = base4()
    rng = random.Random(23)
    msg = "AC"
    seen = set()
    for _ in range(200):
        vec, _ = a.encode(msg, rng)
        seen.add(tuple(int(d) for d in vec))
    assert len(seen) == a.encoding_space(msg) == 4
