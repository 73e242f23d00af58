"""Vectorized wide-value (>64-bit) operations for batch kernels.

Verilator stores wide signals as word arrays (``VL_WIDE``); we do the
same over the batch layout: a W-bit signal (64 < W <= 512) occupies
``L = ceil(W/64)`` consecutive offsets of the ``var64`` pool, so the
batch value is a little-endian limb matrix of shape ``(L, N)`` —
``value = sum(limbs[l] << (64*l))`` per lane.

All functions take/return uint64 arrays of shape (L, N) (operands are
extended to a common limb count by the code generator) and keep values
canonical (masked to the context width by the caller's final mask).

Wide multiply/divide/modulo/power are not implemented (the bundled
designs never need them); the code generator raises a clear
UnsupportedFeatureError instead.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.errors import WidthError

_U64 = np.uint64
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

MAX_WIDE_BITS = 512


def limbs_for(width: int) -> int:
    """Limb count for a wide width (ceil(width / 64))."""
    if width <= 0 or width > MAX_WIDE_BITS:
        raise WidthError(f"wide width {width} out of range 1..{MAX_WIDE_BITS}")
    return (width + 63) // 64


def top_mask(width: int) -> int:
    """Mask for the most-significant limb of a ``width``-bit value."""
    rem = width % 64
    return (1 << rem) - 1 if rem else (1 << 64) - 1


def extend(a: np.ndarray, limbs: int, n: int = 0) -> np.ndarray:
    """Zero-extend (L0, N) to (limbs, N).

    Accepts narrow (N,) values and 0-d scalars (an all-constant narrow
    subexpression evaluates to a numpy scalar); ``n`` supplies the lane
    count needed to broadcast a scalar.
    """
    a = np.asarray(a, dtype=_U64)
    if a.ndim == 0:
        if n <= 0:
            raise WidthError("extend() of a scalar needs the lane count")
        a = np.full((1, n), a, dtype=_U64)
    elif a.ndim == 1:  # promote a narrow (N,) value to one limb
        a = a[None, :]
    if a.shape[0] == limbs:
        return a
    if a.shape[0] > limbs:
        return a[:limbs]
    pad = np.zeros((limbs - a.shape[0], a.shape[1]), dtype=_U64)
    return np.concatenate([a, pad], axis=0)


def from_const(value: int, limbs: int, n: int) -> np.ndarray:
    """Broadcast a Python int into a (limbs, N) matrix."""
    out = np.empty((limbs, n), dtype=_U64)
    for l in range(limbs):
        out[l, :] = _U64((value >> (64 * l)) & 0xFFFFFFFFFFFFFFFF)
    return out


def column(value: int, limbs: int) -> np.ndarray:
    """A constant as a read-only (limbs, 1) column.

    Generated modules bind each wide constant once at import; the column
    broadcasts against (limbs, N) operands in every helper here, so no
    per-cycle (limbs, N) copy of the constant is ever built.
    """
    out = from_const(value, limbs, 1)
    out.setflags(write=False)
    return out


def mask_width(a: np.ndarray, width: int) -> np.ndarray:
    """Truncate a (L, N) value to ``width`` bits (canonicalize)."""
    limbs = limbs_for(width)
    out = extend(a, limbs).copy()
    out[limbs - 1] &= _U64(top_mask(width))
    return out


# -- arithmetic ----------------------------------------------------------------


def _result(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (L, N) output of a binary op whose operand may be a column."""
    return np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=_U64)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wide addition with limb carry propagation."""
    out = _result(a, b)
    carry = np.zeros(out.shape[1], dtype=_U64)
    for l in range(out.shape[0]):
        s = a[l] + b[l]
        c1 = (s < a[l]).astype(_U64)
        s2 = s + carry
        c2 = (s2 < s).astype(_U64)
        out[l] = s2
        carry = c1 | c2  # at most one of them (carry chain)
    return out


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wide subtraction with limb borrow propagation."""
    out = _result(a, b)
    borrow = np.zeros(out.shape[1], dtype=_U64)
    for l in range(out.shape[0]):
        d = a[l] - b[l]
        b1 = (a[l] < b[l]).astype(_U64)
        d2 = d - borrow
        b2 = (d < borrow).astype(_U64)
        out[l] = d2
        borrow = b1 | b2
    return out


def neg(a: np.ndarray) -> np.ndarray:
    """Wide two's-complement negation (caller masks)."""
    return add(bit_not(a), column(1, a.shape[0]))


# -- bitwise --------------------------------------------------------------------


def bit_not(a):
    """Elementwise NOT (caller masks the top limb)."""
    return ~a  # caller masks the top limb


# -- shifts ---------------------------------------------------------------------


def _amount(sh, n: int) -> np.ndarray:
    """Normalize a shift amount to a (N,) uint64 array."""
    arr = np.asarray(sh, dtype=_U64)
    if arr.ndim == 0:
        arr = np.full(n, arr, dtype=_U64)
    return arr


def shl(a: np.ndarray, sh: np.ndarray) -> np.ndarray:
    """Left shift by a per-lane (N,) uint64 amount."""
    L, n = a.shape
    sh = np.minimum(_amount(sh, n), _U64(64 * L))
    word = (sh >> _U64(6)).astype(np.int64)  # limb displacement
    bits = sh & _U64(63)
    out = np.zeros_like(a)
    idx = np.arange(L)[:, None] - word[None, :]  # source limb per (l, lane)
    valid0 = (idx >= 0) & (idx < L)
    src0 = np.where(valid0, idx, 0)
    lane = np.arange(n)[None, :].repeat(L, axis=0)
    low = np.where(valid0, a[src0, lane], _U64(0))
    out = low << bits[None, :]
    idx1 = idx - 1
    valid1 = (idx1 >= 0) & (idx1 < L)
    src1 = np.where(valid1, idx1, 0)
    high = np.where(valid1, a[src1, lane], _U64(0))
    spill = np.where(
        bits[None, :] != 0, high >> (_U64(64) - bits[None, :]), _U64(0)
    )
    return out | spill


def shr(a: np.ndarray, sh: np.ndarray) -> np.ndarray:
    """Logical right shift by a per-lane (N,) uint64 amount."""
    L, n = a.shape
    sh = np.minimum(_amount(sh, n), _U64(64 * L))
    word = (sh >> _U64(6)).astype(np.int64)
    bits = sh & _U64(63)
    idx = np.arange(L)[:, None] + word[None, :]
    valid0 = idx < L
    src0 = np.where(valid0, idx, 0)
    lane = np.arange(n)[None, :].repeat(L, axis=0)
    low = np.where(valid0, a[src0, lane], _U64(0))
    out = low >> bits[None, :]
    idx1 = idx + 1
    valid1 = idx1 < L
    src1 = np.where(valid1, idx1, 0)
    high = np.where(valid1, a[src1, lane], _U64(0))
    spill = np.where(
        bits[None, :] != 0, high << (_U64(64) - bits[None, :]), _U64(0)
    )
    return out | spill


def shl_const(a: np.ndarray, k: int) -> np.ndarray:
    """Left shift by a compile-time constant amount (pure limb moves)."""
    L, n = a.shape
    if k <= 0:
        return a
    word, bits = divmod(k, 64)
    out = np.zeros_like(a)
    for l in range(L - 1, -1, -1):
        src = l - word
        if src < 0:
            continue
        out[l] = a[src] << _U64(bits) if bits else a[src]
        if bits and src - 1 >= 0:
            out[l] |= a[src - 1] >> _U64(64 - bits)
    return out


def shr_const(a: np.ndarray, k: int) -> np.ndarray:
    """Logical right shift by a compile-time constant amount."""
    L, n = a.shape
    if k <= 0:
        return a
    word, bits = divmod(k, 64)
    out = np.zeros_like(a)
    for l in range(L):
        src = l + word
        if src >= L:
            continue
        out[l] = a[src] >> _U64(bits) if bits else a[src]
        if bits and src + 1 < L:
            out[l] |= a[src + 1] << _U64(64 - bits)
    return out


def rotl_const(a: np.ndarray, k: int, width: int) -> np.ndarray:
    """Rotate a canonical ``width``-bit value left by a constant ``k``.

    When ``width`` fills the limbs exactly this is a limb permutation plus
    one funnel shift — two gathers over the whole matrix instead of the
    per-lane index arithmetic of :func:`shl` / :func:`shr`.
    """
    L = a.shape[0]
    k %= width
    if width != 64 * L:
        return mask_width(shl_const(a, k), width) | shr_const(a, width - k)
    word, bits = divmod(k, 64)
    order = [(l - word) % L for l in range(L)]
    if not bits:
        return a[order]
    prev = [(l - word - 1) % L for l in range(L)]
    return (a[order] << _U64(bits)) | (a[prev] >> _U64(64 - bits))


def saturate_narrow(a: np.ndarray) -> np.ndarray:
    """Wide value as a (N,) shift/address amount: anything with high-limb
    bits set saturates to a huge value (flushes shifts, drops writes)."""
    if a.shape[0] == 1:
        return a[0]
    high = np.any(a[1:] != 0, axis=0)
    return np.where(high, _FULL, a[0])


# -- comparisons (return (N,) uint64 0/1) ----------------------------------------


def eq(a, b):
    """Wide equality -> (N,) 0/1."""
    return np.all(a == b, axis=0).astype(_U64)


def ne(a, b):
    """Wide inequality -> (N,) 0/1."""
    return np.any(a != b, axis=0).astype(_U64)


def lt(a, b):
    """Wide unsigned less-than -> (N,) 0/1 (top-limb-first)."""
    n = max(a.shape[1], b.shape[1])  # either side may be a column
    result = np.zeros(n, dtype=_U64)
    decided = np.zeros(n, dtype=bool)
    for l in range(a.shape[0] - 1, -1, -1):
        less = (a[l] < b[l]) & ~decided
        greater = (a[l] > b[l]) & ~decided
        result[less] = 1
        decided |= less | greater
    return result


def le(a, b):
    """Wide unsigned less-or-equal -> (N,) 0/1."""
    return (_U64(1) - lt(b, a)).astype(_U64)


def gt(a, b):
    """Wide unsigned greater-than -> (N,) 0/1."""
    return lt(b, a)


def ge(a, b):
    """Wide unsigned greater-or-equal -> (N,) 0/1."""
    return (_U64(1) - lt(a, b)).astype(_U64)


def nonzero(a):
    """Truthiness of wide lanes -> (N,) 0/1."""
    return np.any(a != 0, axis=0).astype(_U64)


# -- reductions ------------------------------------------------------------------


def red_or(a):
    """Wide reduction OR -> (N,) 0/1."""
    return nonzero(a)


def red_and(a, width: int) -> np.ndarray:
    """Wide reduction AND of ``width``-bit lanes -> (N,) 0/1."""
    limbs = limbs_for(width)
    ok = np.ones(a.shape[1], dtype=bool)
    for l in range(limbs):
        expect = _U64(top_mask(width)) if l == limbs - 1 else _FULL
        ok &= a[l] == expect
    return ok.astype(_U64)


def red_xor(a):
    """Wide reduction XOR (parity) -> (N,) 0/1."""
    if hasattr(np, "bitwise_count"):
        counts = np.bitwise_count(a).sum(axis=0)
    else:  # pragma: no cover
        counts = np.zeros(a.shape[1], dtype=np.int64)
        v = a.copy()
        for _ in range(64):
            counts += (v & _U64(1)).sum(axis=0)
            v >>= _U64(1)
    return (counts & 1).astype(_U64)


# -- selection --------------------------------------------------------------------


def mux(cond: np.ndarray, t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(N,) cond selecting between (L, N) values.

    Accepts a 0-d/scalar cond: an all-constant condition folds to a
    numpy scalar in the generated kernels.
    """
    cond = np.asarray(cond)
    if cond.ndim == 0:
        return np.where(cond != 0, t, f)
    return np.where(cond[None, :] != 0, t, f)


def narrow(a: np.ndarray) -> np.ndarray:
    """Take the low 64 bits of a wide value as a (N,) array."""
    return a[0].copy()


def to_ints(a: np.ndarray) -> List[int]:
    """Per-lane Python ints (host-side readback).

    Each lane's limbs are contiguous little-endian bytes of the
    transposed matrix, so one ``int.from_bytes`` per lane decodes it.
    """
    step = 8 * a.shape[0]
    raw = np.ascontiguousarray(a.T, dtype="<u8").tobytes()
    return [int.from_bytes(raw[i:i + step], "little")
            for i in range(0, len(raw), step)]


def from_ints(values, limbs: int) -> np.ndarray:
    """(L, N) limb matrix from per-lane Python ints (truncated to
    ``limbs`` limbs, two's complement for negatives)."""
    step, m = 8 * limbs, (1 << (64 * limbs)) - 1
    raw = b"".join((int(v) & m).to_bytes(step, "little") for v in values)
    lanes = np.frombuffer(raw, dtype="<u8").reshape(-1, limbs)
    return np.array(lanes.T, dtype=_U64, order="C")
