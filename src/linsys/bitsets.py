"""Fixed-width bitsets stored as little arrays of uint64 words.

Every point/line set that reaches a hot kernel is packed this way, so
intersections and coverage tests cost O(size/64) words.
"""

import numpy as np

WORD_BITS = 64


def word_count(size: int) -> int:
    return max(1, (size + WORD_BITS - 1) // WORD_BITS)


def pack_sets(sets, size: int) -> np.ndarray:
    """Pack an iterable of index sets into an (m, W) uint64 matrix. Each
    row is built as one Python int, then split into little-endian words."""
    words = word_count(size)
    bit = [1 << i for i in range(size)]
    buf = bytearray()
    for members in sets:
        row = 0
        for x in members:
            row |= bit[x]
        buf += row.to_bytes(8 * words, "little")
    return np.frombuffer(buf, dtype="<u8").reshape(-1, words).astype(np.uint64)


def pack_one(members, size: int) -> np.ndarray:
    return pack_sets([members], size)[0]
