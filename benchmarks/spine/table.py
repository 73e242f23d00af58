"""The one table of workloads and metric names.

Kept free of ``repro`` imports: the ``nvdla_cold`` child imports this module
before it starts its clock-sensitive work, and ``test_spine.py`` reads it to
compare against ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

# The engine every open ROADMAP hot-path item optimises.  The campaign
# workloads pass no executor on purpose: they measure the product default.
ENGINE = "graph-fused"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "engine" | "cold" | "miss" | "hit"
    design: str
    n: int
    cycles: int
    passes: int  # back-to-back run()s per sample; resubmissions per burst for "hit"
    samples: int  # timed samples in the all-workloads command
    setups: int  # set-up measurements per sample
    why: str
    params: Dict[str, int] = field(default_factory=dict)
    shard_lanes: int = 0

    @property
    def lane_cycles(self) -> int:
        """Lane-cycles one sample delivers to its user."""
        return self.n * self.cycles * self.passes

    @property
    def gate_lanes(self) -> Tuple[int, ...]:
        """Lanes replayed through the golden reference."""
        return (0, 1, self.n // 2, self.n - 1)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "counter_overhead", "engine", "counter", n=1024, cycles=2000, passes=8,
        samples=11, setups=5,
        why="tiny design: per-evaluation Python around the generated programs "
            "dominates, so hot-path bookkeeping work shows here and nowhere else",
    ),
    Workload(
        "spinal_comb", "engine", "spinal", n=8192, cycles=150, passes=5,
        samples=11, setups=3, params={"taps": 8},
        why="narrow 1-bit-heavy SoC: generated comb+seq programs and pack/unpack "
            "dominate; wide operators idle",
    ),
    Workload(
        "crypto_wide", "engine", "crypto", n=8192, cycles=24, passes=3,
        samples=11, setups=5, params={"rounds": 4},
        why="256-bit datapath: utils.widevec dominates and bookkeeping is under "
            "1 percent, so only wide-operator lowering moves it",
    ),
    Workload(
        "nvdla_cold", "cold", "nvdla", n=256, cycles=16, passes=1,
        samples=9, setups=1, params={"pes": 64},
        why="largest design, short run, fresh interpreter per sample: the only "
            "workload where parse/elaborate/partition/codegen/compile() decide the result",
    ),
    Workload(
        "campaign_miss", "miss", "riscv_mini", n=4096, cycles=128, passes=1,
        samples=6, setups=25, shard_lanes=512,
        why="product-default path into an empty store: per-shard rebuild, stimulus "
            "regeneration, memories, store writes and the exact-tiling merge",
    ),
    Workload(
        "campaign_hit", "hit", "riscv_mini", n=4096, cycles=128, passes=16,
        samples=11, setups=25, shard_lanes=512,
        why="the same campaign resubmitted against a filled store: store reads, "
            "signature hashing and merge only, zero simulation",
    ),
)

# (name, unit, better, bound): what a user of the flow sees.  The bounds are
# three times the run-to-run spread this shared two-core host shows on its
# noisier stretches (README.md, "Host noise and the bounds"), not a target.
END_TO_END = (
    ("lane_cycles_per_s", "1/s", "higher", 0.25),
    ("time_to_result_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

# Profile buckets in match order; the first eight also report calls per cycle.
BUCKETS = (
    "generated", "utils.widevec", "utils.packbits", "utils.bitvec",
    "core.kernels", "core.memory", "core.simulator", "gpu",
    "obs", "stimulus", "frontend", "python.compile", "cluster", "serve", "numpy",
    "other",
)
CALL_BUCKETS = BUCKETS[:8]

SETUP_SPANS = (
    "verilog.parse_s", "elaborate.elaborate_s", "elaborate.lower_s",
    "elaborate.optimize_s", "rtlir.build_graph_s", "lint.lint_s",
    "partition.partition_s", "core.codegen.compile_s",
    "core.codegen.fused_compile_s", "core.simulator.construct_s",
)

# (name, unit, better): single layers, named after this repo's modules.
PER_LAYER = (
    tuple((name, "s", "lower") for name in SETUP_SPANS)
    + (
        ("setup.traced_s", "s", "lower"),
        ("python.import_s", "s", "lower"),
        ("python.process_s", "s", "lower"),
        ("verilog.source_lines", "count", "lower"),
        ("rtlir.nodes", "count", "lower"),
        ("partition.tasks", "count", "lower"),
        ("core.codegen.generated_lines", "count", "lower"),
        ("core.memory.device_bytes", "B", "lower"),
        ("core.simulator.set_inputs_s", "s", "lower"),
        ("core.simulator.evaluate_s", "s", "lower"),
        ("core.simulator.loop_self_s", "s", "lower"),
        ("gpu.device.busy_s", "s", "lower"),
        ("core.simulator.bookkeeping_s", "s", "lower"),
        ("gpu.device.graph_launches_per_cycle", "1/cycle", "lower"),
    )
    + tuple((f"{b}.self_s", "s", "lower") for b in BUCKETS)
    + tuple((f"{b}.calls_per_cycle", "1/cycle", "lower") for b in CALL_BUCKETS)
    + (
        ("host_calls_per_cycle", "1/cycle", "lower"),
        ("cluster.spec.signature_s", "s", "lower"),
        ("cluster.plan_shards_s", "s", "lower"),
        ("cluster.shards", "count", "lower"),
        ("cluster.worker.run_shard_s", "s", "lower"),
        ("cluster.worker.run_shard_max_s", "s", "lower"),
        ("serve.store.put_s", "s", "lower"),
        ("serve.store.get_s", "s", "lower"),
        ("serve.store.hits", "count", "higher"),
        ("serve.store.misses", "count", "lower"),
        ("serve.store.bytes", "B", "lower"),
        ("cluster.merge.merge_s", "s", "lower"),
        ("host.calib_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)


def by_name(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


def digest_outputs(runs: Iterable[Dict[str, np.ndarray]]) -> str:
    """sha256 over the watched outputs of every run, in order (names, dtypes,
    shapes and bytes)."""
    h = hashlib.sha256()
    for outputs in runs:
        for name in sorted(outputs):
            arr = np.ascontiguousarray(outputs[name])
            h.update(f"{name}:{arr.dtype}:{arr.shape};".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def lane_values(w: Workload, outputs: Dict[str, np.ndarray]) -> Dict[str, list]:
    """The gate lanes' values as plain ints (JSON-safe, reference-comparable)."""
    return {k: [int(v[i]) for i in w.gate_lanes] for k, v in outputs.items()}
