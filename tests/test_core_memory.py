"""Tests for incremental GPU memory allocation (§3.1.2) and DeviceArrays."""

import numpy as np
import pytest

from repro.core.codegen import transpile
from repro.core.memory import PACKED_POOL, DeviceArrays, MemoryLayout
from repro.core.simulator import BatchSimulator
from repro.utils import bitvec as bv
from repro.utils import packbits as pk
from repro.utils.errors import SimulationError

from tests.conftest import COUNTER_V, MEMDUT_V, compile_graph

MIXED_V = """
module mixed (
    input wire clk,
    input wire [5:0] in6,
    input wire [13:0] in14,
    input wire [23:0] in24,
    input wire [63:0] in64,
    output wire [5:0] o6
);
    reg [5:0] r6;
    reg [13:0] r14;
    reg [23:0] r24;
    reg [63:0] r64;
    always @(posedge clk) begin
        r6 <= in6;
        r14 <= in14;
        r24 <= in24;
        r64 <= in64;
    end
    assign o6 = r6;
endmodule
"""


TWO_DOMAINS_V = """
module twodom (
    input wire clk,
    input wire slow_clk,
    input wire [7:0] d,
    output wire [7:0] q
);
    reg [7:0] f, s;
    reg fb;
    always @(posedge clk) begin
        f <= d;
        fb <= d[0];
    end
    always @(posedge slow_clk) s <= f;
    assign q = f ^ s ^ {7'b0, fb};
endmodule
"""


def _sim(src, top, **kwargs):
    return BatchSimulator(transpile(compile_graph(src, top)), 8, **kwargs)


def _set_shadow(sim, name, value):
    """Write ``value`` into every lane of register ``name``'s shadow."""
    s = sim.layout.slot(name)
    if s.pool == PACKED_POOL:
        w = sim.arrays.words
        sim.arrays.pools[s.pool][s.next_offset * w : (s.next_offset + 1) * w] = (
            pk.fill(value, sim.n)
        )
    else:
        n = sim.n
        sim.arrays.pools[s.pool][s.next_offset * n : (s.next_offset + 1) * n] = (
            value
        )


class TestPoolSelection:
    def test_smallest_fitting_pool(self):
        g = compile_graph(MIXED_V, "mixed")
        layout = MemoryLayout.from_graph(g)
        assert layout.slot("r6").pool == 0  # 6 bits -> var8
        assert layout.slot("r14").pool == 1  # 14 bits -> var16
        assert layout.slot("r24").pool == 2  # 24 bits -> var32
        assert layout.slot("r64").pool == 3  # 64 bits -> var64

    def test_offsets_are_unique_per_pool(self):
        g = compile_graph(MIXED_V, "mixed")
        layout = MemoryLayout.from_graph(g)
        seen = set()
        for slot in layout.slots.values():
            key = (slot.pool, slot.offset)
            assert key not in seen
            seen.add(key)

    def test_registers_have_shadow_slots(self):
        g = compile_graph(MIXED_V, "mixed")
        layout = MemoryLayout.from_graph(g)
        for name in ("r6", "r14", "r24", "r64"):
            s = layout.slot(name)
            assert s.is_state
            assert s.next_offset == s.offset + layout.reg_counts[s.pool]
        assert not layout.slot("in6").is_state

    def test_memory_block_is_contiguous(self):
        g = compile_graph(MEMDUT_V, "memdut")
        layout = MemoryLayout.from_graph(g)
        m = layout.mem("mem")
        assert m.depth == 16
        assert m.pool == 0  # 8-bit elements
        assert m.base + m.depth <= layout.pool_sizes[0]

    def test_scratch_allocated_per_write_port(self):
        g = compile_graph(MEMDUT_V, "memdut")
        layout = MemoryLayout.from_graph(g)
        assert len(layout.scratch) == 1

    def test_footprint_scales_with_n(self):
        g = compile_graph(COUNTER_V, "counter")
        layout = MemoryLayout.from_graph(g)
        assert layout.footprint_bytes(200) == layout.footprint_bytes(100) * 2


class TestDeviceArrays:
    @pytest.fixture
    def arrays(self):
        g = compile_graph(MIXED_V, "mixed")
        return DeviceArrays(MemoryLayout.from_graph(g), 8)

    def test_pools_have_expected_dtypes(self, arrays):
        assert arrays.pools[0].dtype == np.uint8
        assert arrays.pools[1].dtype == np.uint16
        assert arrays.pools[2].dtype == np.uint32
        assert arrays.pools[3].dtype == np.uint64

    def test_write_read_roundtrip(self, arrays):
        vals = np.arange(8, dtype=np.uint64)
        arrays.write("in14", vals)
        assert np.array_equal(arrays.read("in14"), vals)

    def test_scalar_broadcast(self, arrays):
        arrays.write("in6", 63)
        assert np.all(arrays.read("in6") == 63)

    def test_write_masks_to_width(self, arrays):
        arrays.write("in6", 0xFF)
        assert np.all(arrays.read("in6") == 0x3F)

    def test_wrong_length_rejected(self, arrays):
        with pytest.raises(SimulationError):
            arrays.write("in6", np.arange(5))

    def test_commit_copies_shadow(self):
        sim = _sim(MIXED_V, "mixed")
        for name, value in (("r6", 42), ("r14", 4242), ("r24", 424242),
                            ("r64", 2**63 + 42)):
            _set_shadow(sim, name, value)
        sim._commit(("clk", "posedge"))
        assert np.all(sim.get("r6") == 42)
        assert np.all(sim.get("r14") == 4242)
        assert np.all(sim.get("r24") == 424242)
        assert np.all(sim.get("r64") == 2**63 + 42)

    def test_commit_by_domain(self):
        sim = _sim(TWO_DOMAINS_V, "twodom")
        _set_shadow(sim, "f", 17)
        _set_shadow(sim, "s", 99)
        _set_shadow(sim, "fb", 1)
        sim._commit(("clk", "posedge"))
        assert np.all(sim.get("f") == 17)
        assert np.all(sim.get("fb") == 1)
        assert np.all(sim.get("s") == 0)  # the other domain's register
        sim._commit(("slow_clk", "posedge"))
        assert np.all(sim.get("s") == 99)

    def test_commit_freezes_quarantined_lanes(self):
        sim = _sim(TWO_DOMAINS_V, "twodom", fault_isolation=True)
        sim.quarantine.quarantine([2, 5], cycle=0, reason="injected")
        _set_shadow(sim, "f", 17)
        _set_shadow(sim, "fb", 1)
        sim._commit(("clk", "posedge"))
        live = np.ones(sim.n, dtype=bool)
        live[[2, 5]] = False
        for name, value in (("f", 17), ("fb", 1)):
            got = sim.get(name)
            assert np.all(got[live] == value) and not got[~live].any()

    def test_snapshot_restore(self, arrays):
        arrays.write("in24", 123456)
        snap = arrays.snapshot()
        arrays.write("in24", 1)
        arrays.restore(snap)
        assert np.all(arrays.read("in24") == 123456)

    def test_zero_batch_rejected(self):
        g = compile_graph(COUNTER_V, "counter")
        layout = MemoryLayout.from_graph(g)
        with pytest.raises(SimulationError):
            DeviceArrays(layout, 0)


class TestMemoryImages:
    @pytest.fixture
    def arrays(self):
        g = compile_graph(MEMDUT_V, "memdut")
        return DeviceArrays(MemoryLayout.from_graph(g), 4)

    def test_broadcast_image(self, arrays):
        arrays.load_memory("mem", [1, 2, 3])
        block = arrays.read_memory("mem")
        assert block.shape == (16, 4)
        assert list(block[:3, 0]) == [1, 2, 3]
        assert list(block[:3, 3]) == [1, 2, 3]

    def test_per_lane_image(self, arrays):
        img = np.arange(16 * 4, dtype=np.uint64).reshape(16, 4) % 256
        arrays.load_memory("mem", img)
        assert np.array_equal(arrays.read_memory("mem"), img)

    def test_single_lane_load(self, arrays):
        arrays.load_memory("mem", [7, 8], lane=2)
        assert list(arrays.read_memory("mem", lane=2)[:2]) == [7, 8]
        assert arrays.read_memory("mem", lane=0)[0] == 0

    def test_oversized_image_rejected(self, arrays):
        with pytest.raises(SimulationError):
            arrays.load_memory("mem", list(range(17)))

    def test_image_masked_to_width(self, arrays):
        arrays.load_memory("mem", [0x3FF])
        assert arrays.read_memory("mem", lane=0)[0] == 0xFF


class TestKernelRuntimeRegressions:
    """Hot-path bugfixes in repro.core.kernels, pinned."""

    def test_mem_read_zero_depth_returns_zero(self):
        """depth == 0 used to compute np.minimum(idx, uint64(-1)) — an
        all-ones clamp that gathered out of bounds instead of returning 0."""
        from repro.core import kernels as rt

        n = 4
        pool = np.arange(64, dtype=np.uint64)
        lane = np.arange(n, dtype=np.uint64)
        idx = np.array([0, 1, 2, 3], dtype=np.uint64)
        out = rt.mem_read(pool, base=0, depth=0, n=n, lane=lane, idx=idx)
        assert np.array_equal(out, np.zeros(n, dtype=np.uint64))
        # Constant-address path too.
        out = rt.mem_read(pool, base=0, depth=0, n=n, lane=lane,
                          idx=np.uint64(1))
        assert np.array_equal(out, np.zeros(n, dtype=np.uint64))

    def test_mem_read_out_of_range_lanes_read_zero(self):
        from repro.core import kernels as rt

        n = 2
        depth = 3
        pool = (np.arange(depth * n, dtype=np.uint64) + 10)
        lane = np.arange(n, dtype=np.uint64)
        idx = np.array([1, 9], dtype=np.uint64)  # lane 1 out of range
        out = rt.mem_read(pool, base=0, depth=depth, n=n, lane=lane, idx=idx)
        assert out[0] == pool[1 * n + 0]
        assert out[1] == 0

    def test_mem_commit_scalar_data_broadcasts(self):
        """0-d data (a constant write value) used to crash on data[sel]."""
        from repro.core import kernels as rt

        n = 4
        depth = 4
        pool = np.zeros(depth * n, dtype=np.uint64)
        lane = np.arange(n, dtype=np.uint64)
        cond = np.array([1, 0, 1, 1], dtype=np.uint8)
        addr = np.array([0, 1, 2, 9], dtype=np.uint64)  # lane 3 dropped
        rt.mem_commit(pool, 0, depth, n, lane, cond, addr, np.uint64(42))
        assert pool[0 * n + 0] == 42      # lane 0 -> mem[0]
        assert pool[2 * n + 2] == 42      # lane 2 -> mem[2]
        assert pool[1 * n + 1] == 0       # cond off
        assert int(pool.sum()) == 84      # nothing else touched

    def test_mem_commit_disabled_write_touches_nothing(self):
        from repro.core import kernels as rt

        n = 3
        pool = np.zeros(2 * n, dtype=np.uint64)
        lane = np.arange(n, dtype=np.uint64)
        rt.mem_commit(
            pool, 0, 2, n, lane,
            np.zeros(n, dtype=np.uint8),
            np.zeros(n, dtype=np.uint64),
            np.ones(n, dtype=np.uint64),
        )
        assert not pool.any()


CONST_WRITE_V = """
module constwrite (
    input wire clk,
    input wire we,
    input wire [3:0] waddr,
    input wire [3:0] raddr,
    output wire [7:0] rdata
);
    reg [7:0] mem [0:15];
    always @(posedge clk) begin
        if (we) mem[waddr] <= 8'd42;
    end
    assign rdata = mem[raddr];
endmodule
"""


def test_constant_memory_write_matches_reference():
    """Differential check for the scalar-data commit path end to end."""
    from tests.helpers import assert_batch_matches_reference

    assert_batch_matches_reference(CONST_WRITE_V, "constwrite", n=8, cycles=30)
