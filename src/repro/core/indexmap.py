"""GPU memory index mapping (§3.1.3).

Maps every variable reference to its pool access string.  With offset
``o`` and batch size N, variable ``v`` for stimulus ``tid`` lives at
``pool[o*N + tid]``; the whole batch is the contiguous slice
``pool[o*N : (o+1)*N]`` — the coalesced-access property of Listing 3
carried over to the vectorized axis.

1-bit signals live in the lane-packed pool ``P1``: a packed variable's
batch is the word slice ``P1[o*W : (o+1)*W]`` with ``W = ceil(N/64)``
(the generated programs bind ``W`` alongside ``N``), and an *unpacked*
load of a packed variable goes through
:func:`repro.utils.packbits.unpack_u64`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.memory import PACKED_POOL, MemoryLayout, MemSlot, VarSlot
from repro.utils.errors import SimulationError

POOL_VARS = ("P8", "P16", "P32", "P64", "P1")


class IndexMapper:
    """Renders pool accesses for the code generator.

    While the emitter renders a rolled-up run of same-shape nodes it
    fills ``rows``: ``(pool, offset)`` of each of the representative's
    slots that advances across the run -> the 2-D row-block view
    standing for all members' slots.  Every other access renders as the
    usual 1-D slice (which broadcasts against the row blocks).
    """

    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        self.rows: Dict[Tuple[int, int], str] = {}

    def pool_var(self, pool: int) -> str:
        return POOL_VARS[pool]

    def slice_of(self, slot: VarSlot, shadow: bool = False) -> str:
        """The writable slice for a variable (optionally its shadow slot)."""
        off = slot.next_offset if shadow else slot.offset
        if self.rows:
            view = self.rows.get((slot.pool, off))
            if view is not None:
                return view
        if shadow and slot.next_offset is None:
            raise SimulationError(f"{slot.name!r} has no shadow slot")
        if slot.pool == PACKED_POOL:
            return f"P1[{off}*W:{off + 1}*W]"
        return f"{self.pool_var(slot.pool)}[{off}*N:{off + 1}*N]"

    def load(self, name: str) -> str:
        """A uint64 read of a variable's batch."""
        slot = self.layout.slot(name)
        if slot.pool == PACKED_POOL:
            return f"pk.unpack_u64({self.slice_of(slot)}, N)"
        return f"{self.slice_of(slot)}.astype(u64, copy=False)"

    def store_target(self, name: str, shadow: bool = False) -> str:
        return self.slice_of(self.layout.slot(name), shadow=shadow)

    def mem_read_call(self, name: str, idx_code: str) -> str:
        # Generated code consumes the read inside the enclosing
        # expression before any later store, so the zero-copy fast path
        # is safe here (see the aliasing contract on rt.mem_read).
        m = self.layout.mem(name)
        return (
            f"rt.mem_read({self.pool_var(m.pool)}, {m.base}, {m.depth}, "
            f"N, LANE, {idx_code}, copy=False)"
        )

    def mem_row(self, mem: MemSlot, addr: int) -> str:
        """The batch slice of one memory word (a constant, in-range
        address is an ordinary slot load)."""
        off = mem.base + addr
        view = self.rows.get((mem.pool, off))
        if view is not None:
            return view
        return f"{self.pool_var(mem.pool)}[{off}*N:{off + 1}*N]"

    def comment_for(self, name: str) -> str:
        """Listing 3 style offset comment for one variable."""
        slot = self.layout.slot(name)
        if slot.pool == PACKED_POOL:
            return f"offset of {name} is {slot.offset} (P1, word-packed)"
        return f"offset of {name} is {slot.offset} ({POOL_VARS[slot.pool]})"
