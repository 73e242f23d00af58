"""Runtime support routines called from generated batch kernels.

These are the only non-generated functions on the simulation hot path;
they implement the gather/scatter semantics of the paper's ARRSEL nodes
(dynamic memory indexing) over the ``offset*N + tid`` layout.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64


def mem_read(pool: np.ndarray, base: int, depth: int, n: int, lane: np.ndarray,
             idx: np.ndarray, copy: bool = True) -> np.ndarray:
    """Batch memory read ``mem[idx]`` with out-of-range reads returning 0.

    ``idx`` is a per-stimulus uint64 address array; the gather touches
    ``pool[(base + idx) * N + tid]`` exactly as Listing 3's recursive
    ARRSEL code does.

    Aliasing contract: with ``copy=True`` (the default) the result is
    always freshly allocated and stays valid across later writes to the
    memory's pool region.  ``copy=False`` permits the constant-address
    fast path to return a zero-copy *view* of the pool slice when the
    pool is already uint64 — callers must consume the value before any
    program-order-later store (``mem_commit``) can touch that region.
    Generated code passes ``copy=False`` only where the read feeds
    directly into the enclosing expression; every other caller takes the
    safe default.
    """
    idx = np.asarray(idx)
    if depth <= 0:
        # A zero-depth memory has no valid address.  Without this guard
        # the uint64 clamp below computes depth - 1 == 2**64 - 1 and the
        # "safe" index gathers far outside the memory's pool region.
        return np.zeros(n, dtype=_U64)
    if idx.ndim == 0:  # constant address: a contiguous (coalesced) slice
        a = int(idx)
        if a >= depth:
            return np.zeros(n, dtype=_U64)
        off = base + a
        return pool[off * n : (off + 1) * n].astype(_U64, copy=copy)
    safe = np.minimum(idx, _U64(depth - 1))
    flat = (_U64(base) + safe) * _U64(n) + lane
    vals = pool[flat].astype(_U64, copy=False)
    return np.where(idx < _U64(depth), vals, _U64(0))


def mem_commit(
    pool: np.ndarray,
    base: int,
    depth: int,
    n: int,
    lane: np.ndarray,
    cond: np.ndarray,
    addr: np.ndarray,
    data: np.ndarray,
) -> None:
    """Apply one guarded memory write port across the batch.

    Out-of-range writes are dropped (two-state discard of X addresses).
    Lanes never collide: the flat index embeds the lane id.
    """
    addr64 = np.asarray(addr).astype(_U64, copy=False)
    cond = np.asarray(cond)
    sel = (cond != 0) & (addr64 < _U64(depth))
    if not sel.any():
        return
    # Constant write values arrive as 0-d arrays; masking needs the
    # batch shape.
    data = np.asarray(data)
    if data.ndim == 0:
        data = np.broadcast_to(data, addr64.shape)
    flat = (_U64(base) + addr64[sel]) * _U64(n) + lane[sel]
    pool[flat] = data[sel]


