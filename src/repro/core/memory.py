"""Incremental GPU memory allocation (§3.1.2) and the batch memory layout.

Every design variable is assigned an *offset* into one of four fixed-width
pools — ``var8``, ``var16``, ``var32``, ``var64`` — choosing the smallest
element type that fits the variable's width (Fig. 7).  For N stimulus the
element of variable ``v`` for stimulus ``tid`` lives at::

    pool[offset(v) * N + tid]

so a vectorized operation over the batch axis touches one contiguous slice:
the Python/numpy analog of the paper's coalesced access (§3.1.3).

Allocation order inside each pool:

1. register *current* values (one contiguous block),
2. register *next* values (the same block shifted — commit is one slice copy
   per pool),
3. everything else (inputs, wires, outputs),
4. memory-write scratch (cond/addr/data per write port),
5. memories (``depth`` consecutive offsets each).

Every layout also owns a fifth, *packed* pool ``P1``: each 1-bit design
signal lives there instead of in ``var8``, lane-packed into uint64
words, one bit per stimulus (see :mod:`repro.utils.packbits`).  A packed
variable's offset counts word *blocks*: with ``W = ceil(N / 64)`` words
per batch, offset ``o`` occupies ``P1[o*W : (o+1)*W]``.  Memories and
memory-write scratch slots are never packed.  (The paper's §3.1.2 keeps
1-bit signals in ``var8``; ``P1`` is this reproduction's extension.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.rtlir.graph import RtlGraph
from repro.utils import bitvec as bv
from repro.utils import packbits as pk
from repro.utils import widevec as wv
from repro.utils.errors import SimulationError

#: Pool index of the lane-packed 1-bit pool (pools 0..3 are var8..var64).
PACKED_POOL = 4


@dataclass
class VarSlot:
    """Placement of one design variable in the pools.

    Wide variables (width > 64) live in var64 as ``limbs`` consecutive
    offsets (little-endian limb order), mirroring Verilator's VL_WIDE
    word arrays over the batch layout.
    """

    name: str
    width: int
    pool: int  # 0..3 -> var8..var64, 4 -> P1 (PACKED_POOL)
    offset: int
    is_state: bool = False
    next_offset: Optional[int] = None  # shadow slot for registers
    limbs: int = 1


@dataclass
class MemSlot:
    """Placement of one memory: ``depth`` consecutive offsets."""

    name: str
    width: int
    depth: int
    pool: int
    base: int


@dataclass
class ScratchSlot:
    """Scratch placement for one guarded memory write (cond/addr/data)."""

    node_id: int
    cond: VarSlot
    addr: VarSlot
    data: VarSlot


@dataclass
class MemoryLayout:
    """The complete offset assignment for a design."""

    slots: Dict[str, VarSlot] = field(default_factory=dict)
    mems: Dict[str, MemSlot] = field(default_factory=dict)
    scratch: Dict[int, ScratchSlot] = field(default_factory=dict)
    pool_sizes: List[int] = field(default_factory=lambda: [0, 0, 0, 0])
    # Lane-packed 1-bit pool (pool index PACKED_POOL): packed_size counts
    # word *blocks* (one per 1-bit signal slot, W = ceil(N/64) words each).
    packed_size: int = 0
    # Per pool: number of leading offsets that hold register current values
    # (the same count again holds their shadows immediately after).
    reg_counts: List[int] = field(default_factory=lambda: [0, 0, 0, 0, 0])
    # Per clock domain (clock, edge): list of (pool, start, count) ranges of
    # register *current* offsets; shadows sit at start + reg_counts[pool].
    reg_ranges: Dict[Tuple[str, str], List[Tuple[int, int, int]]] = field(
        default_factory=dict
    )

    def slot(self, name: str) -> VarSlot:
        try:
            return self.slots[name]
        except KeyError:
            raise SimulationError(f"no slot allocated for signal {name!r}")

    def mem(self, name: str) -> MemSlot:
        try:
            return self.mems[name]
        except KeyError:
            raise SimulationError(f"no slot allocated for memory {name!r}")

    def footprint_bytes(self, n: int) -> int:
        """Device bytes needed for ``n`` stimulus."""
        itemsizes = (1, 2, 4, 8)
        base = sum(s * n * b for s, b in zip(self.pool_sizes, itemsizes))
        return base + self.packed_size * pk.words_for(n) * 8

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: RtlGraph) -> "MemoryLayout":
        """Assign every variable an offset.

        Every 1-bit design signal (registers included) is placed in the
        lane-packed ``P1`` pool; memories and memory-write scratch stay
        in ``var8``..``var64``.
        """
        design = graph.design
        layout = cls()
        cursors = [0, 0, 0, 0, 0]

        def pool_of(width: int) -> int:
            if width == 1:
                return PACKED_POOL
            return bv.pool_for_width(width)

        def alloc(pool: int, count: int = 1) -> int:
            off = cursors[pool]
            cursors[pool] += count
            return off

        # 1+2: registers and their shadows, pool by pool, grouped by clock
        # domain so an edge commits exactly its own registers with one
        # contiguous copy per (domain, pool) range.  Offsets [0, R) are
        # currents and [R, 2R) the matching shadows.
        domain_regs: Dict[Tuple[str, str], List[str]] = {}
        seen_regs = set()
        for blk in design.seq:
            key = (blk.clock, blk.edge)
            for upd in blk.updates:
                if upd.target in seen_regs:
                    continue
                seen_regs.add(upd.target)
                domain_regs.setdefault(key, []).append(upd.target)

        def limbs_of(width: int) -> int:
            return 1 if width <= 64 else wv.limbs_for(width)

        by_pool: Dict[int, List[Tuple[str, Tuple[str, str]]]] = {
            0: [], 1: [], 2: [], 3: [], PACKED_POOL: [],
        }
        for key, names in domain_regs.items():
            for name in names:
                pool = pool_of(design.signals[name].width)
                by_pool[pool].append((name, key))
        for pool, entries in by_pool.items():
            # Keep each domain contiguous within the pool.
            entries.sort(key=lambda e: (e[1][0], e[1][1]))
            # r counts OFFSETS (wide registers occupy several limbs).
            r = sum(
                limbs_of(design.signals[name].width) for name, _ in entries
            )
            layout.reg_counts[pool] = r
            i = 0
            off = 0
            n_entries = len(entries)
            while i < n_entries:
                key = entries[i][1]
                start = off
                while i < n_entries and entries[i][1] == key:
                    name = entries[i][0]
                    sig = design.signals[name]
                    limbs = limbs_of(sig.width)
                    layout.slots[name] = VarSlot(
                        name, sig.width, pool, off, is_state=True,
                        next_offset=r + off, limbs=limbs,
                    )
                    off += limbs
                    i += 1
                layout.reg_ranges.setdefault(key, []).append(
                    (pool, start, off - start)
                )
            cursors[pool] = 2 * r

        # 3: all remaining signals, incrementally (the paper's per-variable
        # incremental offset assignment).
        for name, sig in design.signals.items():
            if name in layout.slots:
                continue
            pool = pool_of(sig.width)
            limbs = limbs_of(sig.width)
            layout.slots[name] = VarSlot(
                name, sig.width, pool, alloc(pool, limbs), limbs=limbs
            )

        # 4: scratch for guarded memory writes.
        for node in graph.memw_nodes:
            mem = design.memories[node.target]
            cond = VarSlot(f"__memw{node.nid}.cond", 1, 0, alloc(0))
            # The address scratch is always a full uint64 so that wide or
            # out-of-range addresses stay out of range (commit drops them)
            # instead of wrapping back into the memory.
            addr = VarSlot(f"__memw{node.nid}.addr", 64, 3, alloc(3))
            dpool = bv.pool_for_width(mem.width)
            data = VarSlot(f"__memw{node.nid}.data", mem.width, dpool, alloc(dpool))
            layout.scratch[node.nid] = ScratchSlot(node.nid, cond, addr, data)

        # 5: memories (depth consecutive offsets each).
        for name, mem in design.memories.items():
            pool = bv.pool_for_width(mem.width)
            base = alloc(pool, mem.depth)
            layout.mems[name] = MemSlot(name, mem.width, mem.depth, pool, base)

        layout.pool_sizes = cursors[:4]
        layout.packed_size = cursors[PACKED_POOL]
        return layout


class DeviceArrays:
    """The five preallocated pools for one batch of N stimulus.

    This object stands in for the GPU global memory of the paper; the
    generated kernels index it exactly as Listing 3 does
    (``var8[N*offset + tid]``).
    """

    def __init__(self, layout: MemoryLayout, n: int):
        if n <= 0:
            raise SimulationError(f"batch size must be positive, got {n}")
        self.layout = layout
        self.n = n
        # Packed-pool geometry: W uint64 words per 1-bit signal block.
        self.words = pk.words_for(n)
        self.pools: List[np.ndarray] = [
            np.zeros(max(1, size) * n, dtype=dt)
            for size, dt in zip(layout.pool_sizes, bv.POOL_DTYPES)
        ]
        # Pool 4: lane-packed 1-bit signals, W words per offset (empty
        # when the design has no 1-bit signal).
        self.pools.append(
            np.zeros(layout.packed_size * self.words, dtype=np.uint64)
        )
        # LANE plays the role of the CUDA thread id within the batch.
        self.lane = np.arange(n, dtype=np.uint64)
        # Optional host-write observer (the simulator's clock-level
        # cache).  Contract: called with the variable name on every named
        # write, and with None for bulk pool overwrites (restore) meaning
        # "assume every clock changed".  Always fires BEFORE the
        # mutation.  Paths that mutate pools without the hook never touch
        # a clock: memory loads, the simulator's register/memory commits
        # and its stimulus row copies (statically clock-free input
        # columns; see BatchSimulator._stimulus_rows); the chunked path
        # sets the clock cache itself at every chunk end.
        self.write_hook = None

    # -- scalar-signal access (host side; used by tests and set_inputs) -------

    def read(self, name: str) -> np.ndarray:
        """Batch values of a signal.

        Narrow signals return the live (N,) pool slice; wide signals
        return an object-dtype (N,) array of Python ints (a copy).
        Packed 1-bit signals return a freshly unpacked (N,) uint8 copy —
        never a live view (the truth lives bit-packed in pool ``P1``).
        """
        s = self.layout.slot(name)
        if s.pool == PACKED_POOL:
            w = self.words
            return pk.unpack_u8(
                self.pools[PACKED_POOL][s.offset * w : (s.offset + 1) * w], self.n
            )
        if s.limbs == 1:
            return self.pools[s.pool][s.offset * self.n : (s.offset + 1) * self.n]
        block = self.pools[3][
            s.offset * self.n : (s.offset + s.limbs) * self.n
        ].reshape(s.limbs, self.n)
        return np.array(wv.to_ints(block), dtype=object)

    def write(self, name: str, values) -> None:
        hook = self.write_hook
        if hook is not None:
            hook(name)
        s = self.layout.slot(name)
        if s.limbs > 1:
            m = bv.mask(s.width)
            if np.isscalar(values) or getattr(values, "ndim", 1) == 0:
                ints = [int(values) & m] * self.n
            else:
                if len(values) != self.n:
                    raise SimulationError(
                        f"expected {self.n} lane values for {name!r}, "
                        f"got {len(values)}"
                    )
                ints = [int(v) & m for v in values]
            block = self.pools[3][
                s.offset * self.n : (s.offset + s.limbs) * self.n
            ].reshape(s.limbs, self.n)
            block[:] = wv.from_ints(ints, s.limbs)
            return
        if s.pool == PACKED_POOL:
            w = self.words
            view = self.pools[PACKED_POOL][s.offset * w : (s.offset + 1) * w]
            arr = np.asarray(values)
            if arr.ndim == 0:
                view[:] = pk.fill(int(arr), self.n)
            else:
                if arr.shape[0] != self.n:
                    raise SimulationError(
                        f"expected {self.n} lane values for {name!r}, "
                        f"got {arr.shape[0]}"
                    )
                view[:] = pk.pack(arr, self.n)
            return
        m = bv.mask(s.width)
        arr = np.asarray(values)
        view = self.pools[s.pool][s.offset * self.n : (s.offset + 1) * self.n]
        if arr.ndim == 0:
            view[:] = int(arr) & m
        else:
            if arr.shape[0] != self.n:
                raise SimulationError(
                    f"expected {self.n} lane values for {name!r}, got {arr.shape[0]}"
                )
            view[:] = (np.asarray(arr, dtype=np.uint64) & np.uint64(m)).astype(
                view.dtype, copy=False
            )

    # -- memory access ----------------------------------------------------------

    def read_memory(self, name: str, lane: Optional[int] = None) -> np.ndarray:
        """Return memory contents, shape (depth, N) or (depth,) for one lane."""
        m = self.layout.mem(name)
        pool = self.pools[m.pool]
        block = pool[m.base * self.n : (m.base + m.depth) * self.n].reshape(
            m.depth, self.n
        )
        return block[:, lane] if lane is not None else block

    def load_memory(self, name: str, values, lane: Optional[int] = None) -> None:
        """Preload memory contents (e.g. a RISC-V program image).

        ``values`` may be 1-D (broadcast to all lanes) or 2-D (depth, N).
        """
        m = self.layout.mem(name)
        pool = self.pools[m.pool]
        block = pool[m.base * self.n : (m.base + m.depth) * self.n].reshape(
            m.depth, self.n
        )
        arr = np.asarray(values, dtype=np.uint64) & np.uint64(bv.mask(m.width))
        if arr.ndim == 1:
            if arr.shape[0] > m.depth:
                raise SimulationError(
                    f"image of {arr.shape[0]} words exceeds depth {m.depth}"
                )
            if lane is not None:
                block[: arr.shape[0], lane] = arr
            else:
                block[: arr.shape[0], :] = arr[:, None]
        else:
            if arr.shape[0] > m.depth or arr.shape[1] != self.n:
                raise SimulationError(
                    f"bad memory image shape {arr.shape} for {name!r}"
                )
            block[: arr.shape[0], :] = arr

    def uniform_value(self, name: str) -> Optional[int]:
        """Scalar value when every lane of ``name`` agrees, else None.

        The hot-path batch-uniform check used for clock levels; the
        packed pool answers it with a handful of word compares instead of
        materializing an (N,) slice.
        """
        s = self.layout.slot(name)
        if s.pool == PACKED_POOL:
            w = self.words
            return pk.uniform_level(
                self.pools[PACKED_POOL][s.offset * w : (s.offset + 1) * w], self.n
            )
        v = self.read(name)
        first = v[0]
        return int(first) if bool((v == first).all()) else None

    def snapshot(self) -> List[np.ndarray]:
        return [p.copy() for p in self.pools]

    def restore(self, snap: List[np.ndarray]) -> None:
        # Bulk invalidation BEFORE the copy: every named value (clock
        # levels included) is about to change, and observers must never
        # see post-restore pool state attributed to a stale cache entry.
        hook = self.write_hook
        if hook is not None:
            hook(None)
        for dst, src in zip(self.pools, snap):
            np.copyto(dst, src)
