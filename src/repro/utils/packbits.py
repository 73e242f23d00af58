"""Lane-packed 1-bit storage over the batch axis (GSIM-style word packing).

The fused executor stores every 1-bit design signal as a bit *per lane*
inside uint64 words instead of a byte per lane: the batch of N stimulus
occupies ``W = ceil(N / 64)`` words, lane ``t`` living at bit ``t % 64``
of word ``t // 64``.  Boolean RTL operations then touch W words instead
of N bytes — 8x less memory traffic, 64 lanes per machine op — which is
the word-level packing of GSIM applied along the *stimulus* axis rather
than the signal axis.

Canonical-form invariant: **tail bits (bit positions >= N in the last
word) are always zero** in stored packed values.  Every helper here
either preserves that invariant or re-establishes it (``not_``,
``ones``); generated code relies on it so word-level comparisons
(register-commit diffing, uniform-clock checks) never see garbage.

All helpers are numpy-only and allocation-light; they are the pack/unpack
shims used at the stimulus-apply, register-commit, peek/coverage and
checkpoint boundaries (see docs/fusion.md).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

WORD_BITS = 64

_U64 = np.uint64
_U8 = np.uint8


def words_for(n: int) -> int:
    """Packed words needed for a batch of ``n`` lanes."""
    return (n + WORD_BITS - 1) // WORD_BITS


def tail_mask(n: int) -> int:
    """Valid-bit mask of the *last* word for a batch of ``n`` lanes."""
    rem = n % WORD_BITS
    return (1 << rem) - 1 if rem else (1 << WORD_BITS) - 1


@lru_cache(maxsize=64)
def ones(n: int) -> np.ndarray:
    """All-lanes-one packed constant (cached, read-only)."""
    out = np.full(words_for(n), ~_U64(0), dtype=_U64)
    out[-1] = _U64(tail_mask(n))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def zeros(n: int) -> np.ndarray:
    """All-lanes-zero packed constant (cached, read-only)."""
    out = np.zeros(words_for(n), dtype=_U64)
    out.setflags(write=False)
    return out


def pack(values: np.ndarray, n: int) -> np.ndarray:
    """Pack (N,) lane values into (W,) uint64 words.

    Only the low bit of each value is stored (Verilog assignment masking
    to a 1-bit target), so 2 packs as 0 — callers need not pre-mask.  A
    scalar (a store the emitter proved constant under its demanded
    width) sets every lane.
    """
    v = np.asarray(values)
    if v.ndim == 0:
        return fill(int(v), n)
    if v.dtype != np.bool_:
        v = (v.astype(_U8, copy=False) & _U8(1)).view(np.bool_)
    return pack_bool(v, n)


def pack_bool(values: np.ndarray, n: int) -> np.ndarray:
    """Pack an (N,) bool (or 0/1 uint8) array into (W,) uint64 words.

    The input must already be boolean-valued; use :func:`pack` for
    arbitrary integers (it masks to the low bit first).
    """
    w = words_for(n)
    packed = np.packbits(values, bitorder="little")
    out = np.zeros(w, dtype=_U64)
    out.view(_U8)[: packed.size] = packed
    return out


def pack_rows(mat: np.ndarray, n: int) -> np.ndarray:
    """Pack a (cycles, N) matrix into (cycles, W) words, one shot.

    Row ``c`` of the result is bit-identical to ``pack(mat[c], n)`` —
    low-bit masking, little-endian lane order and zeroed tail bits
    included — but the whole stimulus is packed with three vectorized
    passes instead of ``cycles`` separate calls.
    """
    v = np.asarray(mat)
    if v.dtype != np.bool_:
        v = (v.astype(_U8, copy=False) & _U8(1)).view(np.bool_)
    packed = np.packbits(v, axis=1, bitorder="little")
    w = words_for(n)
    out = np.zeros((v.shape[0], w), dtype=_U64)
    out.view(_U8)[:, : packed.shape[1]] = packed
    return out


def unpack_u8(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack (W,) words into an (N,) uint8 0/1 array."""
    return np.unpackbits(words.view(_U8), count=n, bitorder="little")


def unpack_u64(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack (W,) words into an (N,) uint64 0/1 array.

    The uint64 form is what generated kernels use when a packed signal
    flows into a non-packed context (arithmetic, shifts, concats), where
    uint64 batch semantics are the contract.
    """
    return unpack_u8(words, n).astype(_U64)


def not_(words: np.ndarray, n: int) -> np.ndarray:
    """Lane-wise NOT of a packed value, tail bits re-zeroed."""
    return np.bitwise_and(np.bitwise_not(words), ones(n))


def fill(level: int, n: int) -> np.ndarray:
    """A fresh packed batch with every lane at ``level & 1``."""
    return (ones(n) if (level & 1) else zeros(n)).copy()


def blend(cur: np.ndarray, nxt: np.ndarray, mask_words: np.ndarray) -> np.ndarray:
    """Per-lane select: ``mask`` bits take ``nxt``, the rest keep ``cur``.

    Works on (W,) vectors and (K, W) matrices (mask broadcasting along
    the leading axis); the quarantine-aware packed register commit.
    """
    return (cur & ~mask_words) | (nxt & mask_words)


def uniform_level(words: np.ndarray, n: int) -> Optional[int]:
    """0/1 when every lane agrees, None when lanes diverge.

    The packed analog of ``(v == v[0]).all()`` over a byte-per-lane
    slice; used for the batch-uniform clock check on the hot path.
    """
    first = int(words[0])
    if first == 0:
        return 0 if not words.any() else None
    return 1 if bool((words == ones(n)).all()) else None
