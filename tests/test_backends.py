"""Pluggable executor backends: kernel IR + cross-backend bit identity.

The backend contract (docs/backends.md): every backend lowers the same
task graph to a fused-program bundle that is **bit-identical** to the
reference executors at every store boundary, shares the packed
``MemoryLayout`` (so checkpoints transfer across backends), and covers
every sequential clock domain.  ``numpy`` is the default (the existing
fused flat-program emitter); ``tensor`` re-lowers through the
backend-neutral kernel IR.
"""

import numpy as np
import pytest

from repro.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    backend_report,
    build_kernel_ir,
    get_backend,
    validate_ir,
)
from repro.cluster import CampaignSpec, run_campaign
from repro.core.codegen import transpile
from repro.core.simulator import BatchSimulator
from repro.designs import get_design
from repro.resilience import FaultPlan, LaneFaultSpec
from repro.stimulus.generator import random_batch
from repro.utils.errors import ClusterError, SimulationError
from repro.verify import verify_model

from tests.conftest import ALU_V, COUNTER_V, HIER_V, MEMDUT_V, compile_graph
from tests.test_fusion import MEMOOB_V, WIDEACC_V

# Combinational soup over the opcodes the IR interpreter must mirror
# exactly: mul/div/mod (division-by-zero fault sink), shifts by a
# dynamic amount, reductions with inversion, concat with constant
# parts, part selects and a mux.
OPSOUP_V = """
module opsoup (
    input wire [7:0] a,
    input wire [7:0] b,
    input wire [2:0] s,
    output wire [7:0] y,
    output wire r,
    output wire [15:0] w
);
    wire [7:0] m = (a * b) + (a / (b | 8'h1)) - (a % (b | 8'h3));
    wire [7:0] sh = (a << s) | (b >> s);
    assign y = s[0] ? m ^ sh : m + sh;
    assign r = ^a & |b & ~&b[3:0];
    assign w = {a, b} + {8'd0, a[6:2], s};
endmodule
"""


def _model(src, top):
    return transpile(compile_graph(src, top))


def _run(model, n, stim, executor, backend=None, faults=None):
    sim = BatchSimulator(
        model, n, executor=executor, backend=backend,
        fault_isolation=bool(faults),
    )
    plan = (
        FaultPlan(lane_faults=[
            LaneFaultSpec(cycle=c, lane=l, reason=r) for c, l, r in faults
        ])
        if faults else None
    )
    outs = sim.run(stim, trace_every=1, fault_plan=plan)
    return {k: np.asarray(v).copy() for k, v in outs.items()}, sim


BACKEND_MATRIX = sorted(BACKENDS)

DESIGN_MATRIX = [
    pytest.param(COUNTER_V, "counter", id="counter"),
    pytest.param(ALU_V, "alu", id="alu-comb"),
    pytest.param(HIER_V, "adder4", id="hier-1bit"),
    pytest.param(MEMDUT_V, "memdut", id="memory"),
    pytest.param(MEMOOB_V, "memoob", id="memory-oob"),
    pytest.param(WIDEACC_V, "wideacc", id="wide-96bit"),
    pytest.param(OPSOUP_V, "opsoup", id="op-soup"),
]


# ---------------------------------------------------------------------------
# Registry


def test_registry_default_and_availability():
    assert DEFAULT_BACKEND == "numpy"
    assert list(BACKENDS) == ["numpy", "tensor"]
    assert get_backend("numpy").name == "numpy"


def test_registry_unknown_backend_raises():
    with pytest.raises(SimulationError, match="unknown backend"):
        get_backend("fortran")


def test_backend_report_shape():
    rows = backend_report()
    assert {r["name"] for r in rows} == set(BACKENDS)
    for r in rows:
        assert set(r) == {"name", "summary"} and r["summary"]


# ---------------------------------------------------------------------------
# Kernel IR: structural validity + rendering


@pytest.mark.parametrize("src,top", DESIGN_MATRIX)
def test_kernel_ir_validates(src, top):
    model = _model(src, top)
    ir = build_kernel_ir(model.taskgraph)
    assert validate_ir(ir) == []
    # Every sequential clock domain of the model has a unit.
    assert {u.domain for u in ir.seq_units()} == set(model.clock_domains())


def test_kernel_ir_render_is_readable():
    model = _model(COUNTER_V, "counter")
    ir = build_kernel_ir(model.taskgraph)
    text = ir.render()
    assert "fused_comb" in text
    assert "fused_seq_0" in text
    assert "signal q <-" in text


# ---------------------------------------------------------------------------
# Bundle contract


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
def test_bundle_contract(backend):
    model = _model(COUNTER_V, "counter")
    bundle = get_backend(backend).compile(model)
    assert bundle.backend == backend
    assert callable(bundle.comb.fn)
    assert set(bundle.seq) == set(model.clock_domains())
    # All backends share the packed layout => checkpoints transfer.
    ref = model.fused().layout
    assert bundle.layout.pool_sizes == ref.pool_sizes
    assert bundle.layout.packed_size == ref.packed_size


def test_numpy_backend_reuses_fused_bundle():
    model = _model(COUNTER_V, "counter")
    assert get_backend("numpy").compile(model) is model.fused()


def test_non_numpy_backend_requires_fused_executor():
    model = _model(COUNTER_V, "counter")
    with pytest.raises(SimulationError, match="fused"):
        BatchSimulator(model, 8, executor="graph", backend="tensor")


def test_simulator_reports_active_backend():
    model = _model(COUNTER_V, "counter")
    sim = BatchSimulator(model, 8, executor="graph-fused", backend="tensor")
    assert sim.backend == "tensor"
    assert BatchSimulator(model, 8).backend == "numpy"


# ---------------------------------------------------------------------------
# Differential matrix: per-node graph executor vs each backend's lowering


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
@pytest.mark.parametrize("src,top", DESIGN_MATRIX)
@pytest.mark.parametrize("n", [16, 67])  # 67: ragged tail word
def test_backend_bit_identical_to_graph(src, top, n, backend):
    model = _model(src, top)
    stim = random_batch(model.design, n, 30, seed=9)
    ref, _ = _run(model, n, stim, "graph")
    got, _ = _run(model, n, stim, "graph-fused", backend=backend)
    assert set(ref) == set(got)
    for name in ref:
        np.testing.assert_array_equal(ref[name], got[name], err_msg=name)


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
def test_backend_with_quarantined_lanes_matches_graph(backend):
    model = _model(COUNTER_V, "counter")
    n = 24
    stim = random_batch(model.design, n, 40, seed=7)
    faults = [(7, 13, "injected"), (15, 2, "injected")]
    ref, ref_sim = _run(model, n, stim, "graph", faults=faults)
    got, got_sim = _run(model, n, stim, "graph-fused", backend=backend,
                        faults=faults)
    for name in ref:
        np.testing.assert_array_equal(ref[name], got[name], err_msg=name)
    assert ref_sim.quarantine.faulted_lanes() == \
        got_sim.quarantine.faulted_lanes()


# ---------------------------------------------------------------------------
# Checkpoints: within a backend and across backends (shared layout)


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
def test_backend_midrun_checkpoint_restore(backend):
    model = _model(COUNTER_V, "counter")
    n = 16
    stim = random_batch(model.design, n, 50, seed=4)
    ref, _ = _run(model, n, stim, "graph-fused", backend=backend)

    sim = BatchSimulator(model, n, executor="graph-fused", backend=backend)
    sim.run(stim, cycles=23)
    ckpt = sim.save_checkpoint()

    fresh = BatchSimulator(model, n, executor="graph-fused", backend=backend)
    fresh.restore_checkpoint(ckpt)
    assert fresh.cycles_run == 23
    out = fresh.run(stim, trace_every=1, start_cycle=fresh.cycles_run)
    np.testing.assert_array_equal(out["count"][-1], ref["count"][-1])


def test_checkpoint_transfers_across_backends():
    # Save under the numpy lowering, resume under tensor: identical
    # MemoryLayout makes the snapshot backend-portable.
    model = _model(COUNTER_V, "counter")
    n = 16
    stim = random_batch(model.design, n, 50, seed=4)
    ref, _ = _run(model, n, stim, "graph-fused")

    sim = BatchSimulator(model, n, executor="graph-fused", backend="numpy")
    sim.run(stim, cycles=23)
    ckpt = sim.save_checkpoint()

    other = BatchSimulator(model, n, executor="graph-fused", backend="tensor")
    other.restore_checkpoint(ckpt)
    out = other.run(stim, trace_every=1, start_cycle=other.cycles_run)
    np.testing.assert_array_equal(out["count"][-1], ref["count"][-1])


# ---------------------------------------------------------------------------
# Campaigns: backend threads through the spec to every worker


def test_campaign_spec_rejects_unknown_backend():
    spec = CampaignSpec(n=8, cycles=4, design="counter", backend="fortran")
    with pytest.raises(ClusterError, match="unknown backend"):
        spec.validate()


def test_campaign_spec_rejects_backend_on_unfused_executor():
    spec = CampaignSpec(n=8, cycles=4, design="counter",
                        executor="graph", backend="tensor")
    with pytest.raises(ClusterError, match="graph-fused"):
        spec.validate()


def test_campaign_spec_signature_covers_backend():
    a = CampaignSpec(n=8, cycles=4, design="counter",
                     executor="graph-fused", backend="numpy")
    b = CampaignSpec(n=8, cycles=4, design="counter",
                     executor="graph-fused", backend="tensor")
    assert a.signature() != b.signature()


def test_campaign_tensor_backend_ragged_shards_bit_identical():
    # n=100 over shard_lanes=24 => shards [0,24)..[96,100), the last one
    # ragged.  The merged tensor-backend campaign must equal the numpy
    # one lane for lane.
    bundle = get_design("counter")
    n, cycles, seed = 100, 30, 2
    base = dict(n=n, cycles=cycles, design="counter", seed=seed,
                executor="graph-fused", watch=bundle.watch)
    ref = run_campaign(CampaignSpec(**base, backend="numpy"),
                       workers=0, shard_lanes=24)
    got = run_campaign(CampaignSpec(**base, backend="tensor"),
                       workers=0, shard_lanes=24)
    assert set(ref.outputs) == set(got.outputs)
    for name in ref.outputs:
        assert ref.outputs[name].shape[-1] == n
        np.testing.assert_array_equal(ref.outputs[name], got.outputs[name],
                                      err_msg=name)


# ---------------------------------------------------------------------------
# Verifier integration


def test_verify_model_backend_clean():
    model = _model(COUNTER_V, "counter")
    report = verify_model(model, backend="tensor")
    assert report.clean, report.format_text()


def test_verify_model_unknown_backend_reports_error():
    model = _model(COUNTER_V, "counter")
    report = verify_model(model, backend="fortran")
    assert any(d.rule_id == "verify-backend" for d in report.errors)
