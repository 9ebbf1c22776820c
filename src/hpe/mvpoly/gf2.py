"""Packed F_2 rows, the one core under every characteristic-2 algorithm.

A row of F_2 entries is packed little-endian, entry j at bit j, as M4RI
does: in uint64 words along the last axis of a numpy array (words), or in
one Python integer (ints).  A whole matrix is one integer too (pack and
unpack), entry (k, j) at bit k*cols + j, and reduce runs Gauss-Jordan on
that integer: up to WHOLE_MATRIX_COLS columns in place, where a pivot is a
few big-integer operations whatever the row count, and as one integer
per row past that width.  Every characteristic-2 row reduction runs on
it (linalg.PackedSystem), and encryption builds its system as such an
integer straight from the public key.  An F_2-linear map is given by its
rows, the images of the unit vectors.  Four Russians tables hold the XOR
of every subset of k consecutive rows, built by doubling, so an image is
one lookup per k input bits, XORed: in numpy over bytes (tables, step), or
on Python integers (int_tables, and nibble_tables at k = 4).  Basis keeps integer rows by leading bit,
each with an XOR tag of the rows it was built from: its size is the rank,
and the tag of a reduced row solves a map given by (image, preimage) pairs.
"""

import math

import numpy as np

# The widest row that reduce reduces in the whole-matrix integer.
# On random k x (k + 1) matrices (x86-64, CPython 3.11) the whole matrix
# took 0.35x the time of one integer per row at 33 columns, 0.6x at 129,
# 0.7x at 161 and 0.9x at 209; at 256 and 290 it took 1.2-1.6x, since its
# multiply grows with cols^2.
WHOLE_MATRIX_COLS = 160


def words(bits: np.ndarray) -> np.ndarray:
    """Rows of F_2 entries along the last axis as little-endian uint64 words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + ((bits.shape[-1] + 63) // 64 * 8,), dtype=np.uint8)
    out[..., :packed.shape[-1]] = packed
    return out.view("<u8")


def ints(rows: np.ndarray) -> list[int]:
    """Each row of a 2-D array of little-endian words as one Python integer."""
    width = rows.shape[1] * rows.itemsize
    buf = rows.tobytes()
    return [int.from_bytes(buf[i * width:(i + 1) * width], "little") for i in range(len(rows))]


def tables(rows: np.ndarray) -> np.ndarray:
    """Byte tables of F_2-linear maps given by their rows (bits, ..., words):
    entry [t, v, ...] is the XOR of the rows 8t + j over the set bits j of v."""
    nbytes = (len(rows) + 7) // 8
    pad = np.zeros((8 * nbytes - len(rows),) + rows.shape[1:], dtype=rows.dtype)
    rows = np.concatenate([rows, pad]).reshape((nbytes, 8) + rows.shape[1:])
    out = np.zeros_like(rows[:, :1])
    for j in range(8):
        out = np.concatenate([out, out ^ rows[:, j:j + 1]], axis=1)
    return out


def step(g: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The images (m, ..., words) of the packed rows g (m, words of any
    width) under the maps of the tables: one gather per byte of g, XORed."""
    data = g.view(np.uint8)
    out = tables[0][data[:, 0]]
    for t in range(1, len(tables)):
        out ^= tables[t][data[:, t]]
    return out


def int_tables(rows: list[int], k: int) -> list[list[int]]:
    """Tables of integer rows, k at a time: entry v of table c is the XOR of
    the rows kc + j over the set bits j of v."""
    out = []
    for c in range(0, len(rows), k):
        table = [0]
        for row in rows[c:c + k]:
            table += [x ^ row for x in table]
        out.append(table)
    return out


def nibble_tables(rows: list[int]) -> list[tuple[int, ...]]:
    """int_tables(rows, 4), each table one 16-tuple built by a fixed
    schedule of 11 XORs.  A last group of fewer than 4 rows is padded with
    zero rows, so entry v of its table is int_tables' entry v mod its size."""
    rows = rows + [0] * (-len(rows) % 4)
    out = []
    for r0, r1, r2, r3 in zip(*[iter(rows)] * 4):
        r01, r23 = r0 ^ r1, r2 ^ r3
        out.append((0, r0, r1, r01, r2, r2 ^ r0, r2 ^ r1, r2 ^ r01,
                    r3, r3 ^ r0, r3 ^ r1, r3 ^ r01, r23, r23 ^ r0, r23 ^ r1, r23 ^ r01))
    return out


def pack(bits: np.ndarray) -> int:
    """A 0/1 array as one integer, entries in row-major order from bit 0:
    entry (k, j) of a (rows, cols) matrix at bit k*cols + j."""
    return int.from_bytes(np.packbits(bits, axis=None, bitorder="little").tobytes(), "little")


def unpack(m: int, shape: tuple) -> np.ndarray:
    """The 0/1 uint8 array of the given shape that pack makes m from."""
    count = math.prod(shape)
    buf = np.frombuffer(m.to_bytes((count + 7) // 8, "little"), np.uint8)
    return np.unpackbits(buf, count=count, bitorder="little").reshape(shape)


def reduce(m: int, rows: int, cols: int) -> tuple[int, list[tuple[int, int]]]:
    """Gauss-Jordan over F_2 of the rows x cols matrix whose pack is m: the
    reduced matrix's pack and the (row, column) pivots, columns taken in
    order, the first row below the last pivot with a 1 as the next one.

    Rows of at most WHOLE_MATRIX_COLS bits are reduced in m itself, where a
    pivot costs a fixed number of big-integer operations whatever the row
    count.  ones has bit 0 of each row set, so (m >> c) & ones marks the
    rows with a 1 in column c, and that mask times the pivot row is one copy
    of it per marked row, with no carries: one XOR clears the column.  The
    product grows with cols^2, so wider rows are each one integer, and a
    pivot XORs itself into every row with a 1 in its column, one Python step
    per row.
    """
    full = (1 << cols) - 1
    if cols > WHOLE_MATRIX_COLS:
        packed, pivots = _reduce_rows([m >> k * cols & full for k in range(rows)], cols)
        return sum(row << k * cols for k, row in enumerate(packed)), pivots
    ones = ((1 << rows * cols) - 1) // full if cols else 0
    pivots: list[tuple[int, int]] = []
    for c in range(cols):
        top = len(pivots)
        at = top * cols
        below = m >> (c + at) & ones
        if not below:
            continue
        skip = (below & -below).bit_length() - 1  # a multiple of cols
        pivot = m >> (at + skip) & full
        if skip:
            swap = (m >> at & full) ^ pivot
            m ^= swap << at | swap << (at + skip)
        m ^= (m >> c & ones ^ 1 << at) * pivot
        pivots.append((top, c))
    return m, pivots


def _reduce_rows(packed: list[int], cols: int) -> tuple[list[int], list[tuple[int, int]]]:
    """reduce with each row one Python integer, entry j at bit j."""
    pivots: list[tuple[int, int]] = []
    for c in range(cols):
        top = len(pivots)
        bit = 1 << c
        for i in range(top, len(packed)):
            if packed[i] & bit:
                break
        else:
            continue
        pivot = packed[i]
        packed[i] = packed[top]
        packed = [row ^ pivot if row & bit else row for row in packed]
        packed[top] = pivot
        pivots.append((top, c))
    return packed, pivots


class Basis:
    """Integer rows by leading bit, each as (row, XOR of the tags it sums)."""

    def __init__(self):
        self.rows: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, row: int, tag: int = 0) -> tuple[int, int]:
        """(rest, tag): row XOR the kept rows that reduce it, and tag XOR
        their tags.  rest is 0 exactly when row lies in the span."""
        while row and (kept := self.rows.get(row.bit_length())):
            row ^= kept[0]
            tag ^= kept[1]
        return row, tag

    def add(self, row: int, tag: int = 0) -> None:
        """Keep what is left of row after reduce, if anything, with its tag."""
        row, tag = self.reduce(row, tag)
        if row:
            self.rows[row.bit_length()] = (row, tag)
