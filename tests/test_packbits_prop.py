"""Property-style round-trip tests for repro.utils.packbits.

The packed-word helpers are the trust boundary between byte-per-lane
batch arrays and the fused executor's bit-per-lane storage; generated
code assumes their contracts (low-bit masking, little-endian lane
order, zeroed tail bits) without checking them.  These tests pound the
contracts with randomized lane counts — deliberately including
non-multiples of 64, 1, 63/64/65 and other word-boundary shims — and
value distributions, comparing every helper against its obvious
byte-per-lane model.
"""

import numpy as np
import pytest

from repro.utils import packbits as pb

# Lane counts straddling every interesting word boundary, plus a few
# random sizes drawn per test run from a fixed seed.
BOUNDARY_NS = [1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000]
_rng = np.random.default_rng(0xC0FFEE)
RANDOM_NS = sorted(int(x) for x in _rng.integers(1, 2048, size=8))
ALL_NS = sorted(set(BOUNDARY_NS + RANDOM_NS))


def _rand_lanes(rng, n, kind):
    """An (n,) lane array in one of the dtype regimes pack() accepts."""
    if kind == "bool":
        return rng.integers(0, 2, size=n).astype(np.bool_)
    if kind == "u8":
        return rng.integers(0, 2, size=n, dtype=np.uint8)
    # Arbitrary uint64 garbage: pack() must mask to the low bit.
    return rng.integers(0, np.iinfo(np.uint64).max, size=n,
                        dtype=np.uint64, endpoint=True)


def _tail_ok(words, n):
    """The canonical-form invariant: bits >= n in the last word are 0."""
    return int(words[-1]) & ~pb.tail_mask(n) == 0


@pytest.mark.parametrize("n", ALL_NS)
@pytest.mark.parametrize("kind", ["bool", "u8", "u64"])
def test_pack_unpack_roundtrip(n, kind):
    rng = np.random.default_rng(n * 31 + len(kind))
    v = _rand_lanes(rng, n, kind)
    expect = (np.asarray(v).astype(np.uint64) & 1).astype(np.uint8)
    words = pb.pack(v, n)
    assert words.shape == (pb.words_for(n),) and words.dtype == np.uint64
    assert _tail_ok(words, n)
    assert np.array_equal(pb.unpack_u8(words, n), expect)
    u64 = pb.unpack_u64(words, n)
    assert u64.dtype == np.uint64
    assert np.array_equal(u64, expect.astype(np.uint64))


@pytest.mark.parametrize("n", ALL_NS)
def test_lane_bit_position(n):
    # Lane t lives at bit t % 64 of word t // 64 — check a single set
    # lane lands exactly there, for every lane of small batches and a
    # random sample of large ones.
    rng = np.random.default_rng(n)
    lanes = range(n) if n <= 130 else map(int, rng.integers(0, n, size=32))
    for t in lanes:
        v = np.zeros(n, dtype=np.uint8)
        v[t] = 1
        words = pb.pack(v, n)
        assert int(words[t // 64]) == 1 << (t % 64)
        assert int(words.sum()) == 1 << (t % 64)


@pytest.mark.parametrize("n", ALL_NS)
@pytest.mark.parametrize("cycles", [1, 2, 7])
def test_pack_rows_matches_per_row_pack(n, cycles):
    rng = np.random.default_rng(n * 7 + cycles)
    mat = rng.integers(0, np.iinfo(np.uint64).max, size=(cycles, n),
                       dtype=np.uint64, endpoint=True)
    rows = pb.pack_rows(mat, n)
    assert rows.shape == (cycles, pb.words_for(n))
    for c in range(cycles):
        assert np.array_equal(rows[c], pb.pack(mat[c], n)), f"row {c}"
        assert _tail_ok(rows[c], n)


@pytest.mark.parametrize("n", ALL_NS)
def test_not_is_involution_and_canonical(n):
    rng = np.random.default_rng(n + 1)
    v = _rand_lanes(rng, n, "bool")
    words = pb.pack(v, n)
    inv = pb.not_(words, n)
    assert _tail_ok(inv, n)
    assert np.array_equal(pb.unpack_u8(inv, n), 1 - v.astype(np.uint8))
    assert np.array_equal(pb.not_(inv, n), words)


@pytest.mark.parametrize("n", ALL_NS)
def test_ones_zeros_fill(n):
    assert not pb.zeros(n).any()
    assert np.array_equal(pb.unpack_u8(pb.ones(n), n), np.ones(n, np.uint8))
    assert _tail_ok(pb.ones(n), n)
    for level in (0, 1, 2, 255):
        f = pb.fill(level, n)
        assert f.flags.writeable  # fill() must hand out a mutable copy
        assert np.array_equal(pb.unpack_u8(f, n),
                              np.full(n, level & 1, np.uint8))


@pytest.mark.parametrize("n", ALL_NS)
def test_blend_per_lane_select(n):
    rng = np.random.default_rng(n + 2)
    cur_l = _rand_lanes(rng, n, "bool")
    nxt_l = _rand_lanes(rng, n, "bool")
    mask_l = _rand_lanes(rng, n, "bool")
    out = pb.blend(pb.pack(cur_l, n), pb.pack(nxt_l, n), pb.pack(mask_l, n))
    assert np.array_equal(pb.unpack_u8(out, n),
                          np.where(mask_l, nxt_l, cur_l).astype(np.uint8))
    assert _tail_ok(out, n)


@pytest.mark.parametrize("n", ALL_NS)
def test_uniform_level(n):
    assert pb.uniform_level(pb.zeros(n), n) == 0
    assert pb.uniform_level(pb.ones(n).copy(), n) == 1
    if n >= 2:
        rng = np.random.default_rng(n + 3)
        v = np.zeros(n, dtype=np.uint8)
        v[rng.integers(0, n)] = 1  # one dissenting lane
        assert pb.uniform_level(pb.pack(v, n), n) is None
        assert pb.uniform_level(pb.not_(pb.pack(v, n), n), n) is None


def test_words_for_and_tail_mask_model():
    for n in ALL_NS:
        assert pb.words_for(n) == -(-n // 64)
        rem = n % 64
        want = (1 << rem) - 1 if rem else (1 << 64) - 1
        assert pb.tail_mask(n) == want


@pytest.mark.parametrize("n", [63, 64, 65, 257])
def test_packed_pool_boundary_shims(n):
    """DeviceArrays' P1 pool packs lanes at the write boundary and
    unpacks at the read boundary; round-trip both through a real layout."""
    from repro.core.flow import RTLFlow

    src = """
    module tb(input clk, input a, input b, output y);
      reg q;
      assign y = q ^ b;
      always @(posedge clk) q <= a & b;
    endmodule
    """
    model = RTLFlow.from_source(src, "tb", lint=False).compile()
    fused = model.fused()
    from repro.core.memory import DeviceArrays, PACKED_POOL

    arrays = DeviceArrays(fused.layout, n)
    rng = np.random.default_rng(n)
    lanes = rng.integers(0, 2, size=n, dtype=np.uint64)
    arrays.write("a", lanes)
    slot = fused.layout.slots["a"]
    assert slot.pool == PACKED_POOL
    got = np.asarray(arrays.read("a"))
    assert np.array_equal(got.astype(np.uint64), lanes)


@pytest.mark.parametrize("n", [1, 63, 64, 67])
def test_pack_broadcasts_a_scalar(n):
    # The emitter can prove a 1-bit store constant under its demanded
    # width and hand pack() a numpy scalar: every lane takes its low bit.
    for value in (np.uint8(255), np.uint64(2), 1):
        words = pb.pack(value, n)
        assert words.shape == (pb.words_for(n),)
        assert _tail_ok(words, n)
        want = np.full(n, int(value) & 1, dtype=np.uint8)
        assert np.array_equal(pb.unpack_u8(words, n), want)


@pytest.mark.parametrize("executor", ["graph-fused", "graph"])
def test_demand_constant_packed_store_sets_every_lane(executor):
    # ~((a + a) << 1) is all ones in its low bit, but is only proven
    # constant under the 1-bit target's demand.
    from tests.helpers import assert_batch_matches_reference

    src = """
    module fuzz(input [7:0] a, output y0);
      assign y0 = ~(((a + a) << 1) << 0);
    endmodule
    """
    assert_batch_matches_reference(src, "fuzz", n=16, cycles=4, seed=0,
                                   executor=executor)
