"""Word-bit helpers of the word-parallel BFS kernels.

The word-parallel kernels (:mod:`repro.signed.csr`) keep per-source
frontier/visited state as ``uint64`` words — 64 traversals advanced by one
bitwise operation.  These helpers are the one vocabulary for that layout:
source ``i`` of a word owns bit ``i``, and a word's bits unpack in
little-endian order.

numpy is imported lazily, so importing the module does not load it.
"""

from __future__ import annotations

from typing import List

#: Bits per word of the word-parallel kernels' frontier/visited state.
WORD_BITS = 64


def words_for(num_bits: int) -> int:
    """``uint64`` words needed for ``num_bits`` bits (``ceil(n/64)``)."""
    return (num_bits + WORD_BITS - 1) // WORD_BITS


def source_bits(count: int):
    """``uint64`` array of single-bit words: ``source_bits(k)[i] == 1 << i``.

    The per-source bit assignment of the word-parallel kernels (source ``i``
    of a chunk owns bit ``i``); ``count`` must be at most :data:`WORD_BITS`.
    """
    import numpy as np

    if count > WORD_BITS:
        raise ValueError(f"a word holds {WORD_BITS} sources, got {count}")
    return np.uint64(1) << np.arange(count, dtype=np.uint64)


def word_bit_columns(words, count: int):
    """``(len(words), count)`` uint8 matrix: entry ``[i, b]`` is bit ``b`` of ``words[i]``.

    The vectorised inverse of the word-parallel kernels' packing: only the
    ``ceil(count / 8)`` low bytes of each ``uint64`` word are unpacked.
    """
    import numpy as np

    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(
        octets[:, : (count + 7) // 8], axis=1, bitorder="little"
    )[:, :count]


def bit_counts(words, count: int):
    """Per-bit counts: entry ``b`` is how many of ``words`` have bit ``b`` set.

    An int64 array over bits ``0 <= b < count``, for ``count`` from 1 to
    :data:`WORD_BITS`: the column sums of :func:`word_bit_columns` without
    building its ``(len(words), count)`` matrix.  One ``np.bincount`` per
    low byte of the words; each byte value's bits come from a 256-row
    table.
    """
    import numpy as np

    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)
    table = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
    ).astype(np.int64)
    per_byte = [
        np.bincount(octets[:, byte], minlength=256) @ table
        for byte in range((count + 7) // 8)
    ]
    return np.concatenate(per_byte)[:count]


def set_bit_positions(word: int) -> List[int]:
    """The set bit positions of a Python/numpy integer, ascending.

    Used by the word-parallel kernels to iterate only the *active* sources of
    a level (the OR-reduction of the per-edge discovery words), skipping
    exhausted traversals entirely.
    """
    word = int(word)
    positions: List[int] = []
    while word:
        low = word & -word
        positions.append(low.bit_length() - 1)
        word ^= low
    return positions
