"""Packed-bitmap helpers shared by storage, shipping and compute.

Three layers of the library speak "one bit per node":

* the result arena ships compatible sets as ``ceil(n/8)``-byte rows
  (:mod:`repro.exec.arena`);
* the engine's rule-mask memo and the SP* relations unpack those rows back
  into boolean masks and frozensets;
* the word-parallel BFS kernels (:mod:`repro.signed.csr`) keep per-source
  frontier/visited state as ``uint64`` words — 64 traversals advanced by one
  bitwise operation.

Before this module each site carried its own ``np.packbits`` spelling and its
own ``ceil(n/8)`` arithmetic; they are now one vocabulary, so the packed
layout (big-endian bit order, node ``i`` at byte ``i // 8`` bit ``7 - i % 8``
— numpy's ``packbits`` default) cannot drift between the writer in a worker
process and the reader in the parent.

numpy is imported lazily: the module is importable on numpy-free installs,
and every helper that needs numpy raises the library's standard descriptive
:class:`ImportError` through :func:`repro.utils.optional.require_numpy`.
"""

from __future__ import annotations

from typing import List

#: Bits per word of the word-parallel kernels' frontier/visited state.
WORD_BITS = 64


def mask_nbytes(num_bits: int) -> int:
    """Bytes needed for a packed bitmap of ``num_bits`` bits (``ceil(n/8)``)."""
    return (num_bits + 7) // 8


def words_for(num_bits: int) -> int:
    """``uint64`` words needed for ``num_bits`` bits (``ceil(n/64)``)."""
    return (num_bits + WORD_BITS - 1) // WORD_BITS


def pack_mask(mask):
    """Pack a boolean mask into a ``uint8`` bitmap of :func:`mask_nbytes` bytes.

    The canonical packed form every layer agrees on (``numpy.packbits`` with
    its default big-endian bit order); :func:`unpack_mask` is its exact
    inverse.
    """
    import numpy as np

    return np.packbits(mask)


def unpack_mask(packed, count: int):
    """Unpack a bitmap back to a boolean array of ``count`` entries.

    Inverse of :func:`pack_mask`; accepts any buffer of at least
    ``mask_nbytes(count)`` bytes (e.g. a zero-copy result-arena row view).
    """
    import numpy as np

    return np.unpackbits(np.asarray(packed, dtype=np.uint8), count=count).view(np.bool_)


def popcount(packed) -> int:
    """Number of set bits in a packed ``uint8`` bitmap."""
    import numpy as np

    return int(np.bincount(np.asarray(packed, dtype=np.uint8), minlength=256)
               @ _BYTE_POPCOUNT())


_BYTE_POPCOUNT_TABLE = None


def _BYTE_POPCOUNT():
    """The 256-entry per-byte popcount table (built once, lazily)."""
    global _BYTE_POPCOUNT_TABLE
    if _BYTE_POPCOUNT_TABLE is None:
        import numpy as np

        _BYTE_POPCOUNT_TABLE = np.array(
            [bin(byte).count("1") for byte in range(256)], dtype=np.int64
        )
    return _BYTE_POPCOUNT_TABLE


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
