"""Fixed-width bitsets stored as little arrays of uint64 words.

Only the plane-axiom check's pairwise intersection count takes packed
words, so each intersection costs O(size/64) words. The search kernels
take dense uint8 masks instead.
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
