"""Shared infrastructure for the benchmark suite.

Every table/figure bench builds on the same prepared designs, timing
helpers and the multi-core CPU model.

Host-substitution note (DESIGN.md §2): the paper's CPU baseline machine
has 40 cores / 80 threads; this environment exposes a single core, so CPU
worker counts beyond the physical cores are *modeled*: the per-lane
simulation time is measured for real on a sample of lanes, then the batch
time for W workers is ``lanes * t_lane / min(W, modeled_cores) * (1 +
imbalance)``, matching the embarrassingly parallel fork model of §2.3
("fork multiple Verilator processes and run independent stimulus in
parallel" — no cross-process communication).  RTLflow numbers are always
measured, never modeled.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import RTLFlow
from repro.baselines.essent import EssentSim
from repro.baselines.scalargen import generate_scalar_model
from repro.baselines.verilator import VerilatorSim
from repro.core.simulator import DEFAULT_EXECUTOR, BatchSimulator
from repro.designs import DesignBundle, get_design
from repro.gpu.device import SimulatedDevice
from repro.pipeline.scheduler import PipelineSimulator
from repro.resilience import atomic_write_json, atomic_write_text
from repro.stimulus.batch import StimulusBatch, TextStimulusBatch

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Scale presets: (stimulus counts, cycle counts) per experiment family.
# "quick" keeps `pytest benchmarks/ --benchmark-only` in CI territory;
# "default" is the harness default; "paper" stretches toward the paper's
# axes (hours on this host — use deliberately).
SCALES = {
    "quick": {"stim": [16, 64], "cycles": [50], "mcmc_iters": 6},
    "default": {"stim": [32, 128, 512], "cycles": [100, 400], "mcmc_iters": 20},
    "paper": {"stim": [256, 1024, 4096], "cycles": [1000, 10000], "mcmc_iters": 150},
}

# Fork-model parameters for the modeled multi-core CPU host.
FORK_STARTUP_S = 0.05  # per-worker process spawn + compile amortization
PARALLEL_IMBALANCE = 0.05  # straggler overhead of static lane chunking

# Device projection factor (DESIGN.md §2): our "GPU" kernels run on one
# CPU core, so absolute device-side times are projected by the bandwidth
# ratio of the paper's device to this host's single core.  RTL simulation
# kernels are memory-bound integer code; an RTX A6000 sustains ~768 GB/s
# of DRAM bandwidth versus ~15 GB/s for a single desktop core, so the
# projection is 768/15 ≈ 50x.  This is calibrated from hardware specs,
# NOT from the paper's reported speedups (no circularity).  Experiments
# always report the raw host-measured time alongside the projection.
DEVICE_COMPUTE_SCALE = 50.0


@dataclass
class PreparedDesign:
    name: str
    bundle: DesignBundle
    flow: RTLFlow
    memories: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def graph(self):
        return self.flow.graph


_CACHE: Dict[Tuple, PreparedDesign] = {}


def load_design(name: str, **params) -> PreparedDesign:
    """Prepare (and cache) one benchmark design."""
    key = (name, tuple(sorted(params.items())))
    if key in _CACHE:
        return _CACHE[key]
    bundle = get_design(name, **params)
    flow = RTLFlow.from_source(bundle.source, bundle.top)
    memories: Dict[str, List[int]] = {}

    class _Collector:
        def load_memory(self, mem_name, values, lane=None):
            memories[mem_name] = list(int(v) for v in np.asarray(values).ravel())

    bundle.preload(_Collector())
    prep = PreparedDesign(name=name, bundle=bundle, flow=flow, memories=memories)
    _CACHE[key] = prep
    return prep


# ---------------------------------------------------------------------------
# RTLflow timing (always measured)
# ---------------------------------------------------------------------------


def make_batch_sim(
    prep: PreparedDesign,
    n: int,
    executor: str = DEFAULT_EXECUTOR,
    use_mcmc: bool = False,
    device: Optional[SimulatedDevice] = None,
) -> BatchSimulator:
    model = prep.flow.compile(use_mcmc=use_mcmc)
    sim = BatchSimulator(model, n, executor=executor, device=device)
    for mem, vals in prep.memories.items():
        sim.load_memory(mem, vals)
    return sim


def time_rtlflow(
    prep: PreparedDesign,
    n: int,
    cycles: int,
    executor: str = DEFAULT_EXECUTOR,
    use_mcmc: bool = False,
    seed: int = 1,
    device: Optional[SimulatedDevice] = None,
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Wall seconds for one full RTLflow batch run (plus outputs)."""
    sim = make_batch_sim(prep, n, executor=executor, use_mcmc=use_mcmc, device=device)
    stim = prep.bundle.make_stimulus(n, cycles, seed)
    t0 = time.perf_counter()
    outs = sim.run(stim)
    return time.perf_counter() - t0, outs


def time_rtlflow_projected(
    prep: PreparedDesign,
    n: int,
    cycles: int,
    executor: str = DEFAULT_EXECUTOR,
    use_mcmc: bool = False,
    seed: int = 1,
    compute_scale: float = DEVICE_COMPUTE_SCALE,
) -> Tuple[float, float, Dict[str, np.ndarray]]:
    """(host_wall_seconds, projected_device_seconds, outputs).

    The projection replaces the kernel busy time (measured on this host's
    single core) with ``busy / compute_scale`` and adds the modeled CUDA
    launch overheads — the simulated-A6000 elapsed time of DESIGN.md §2.
    Host-side work (everything that is not kernel execution) stays at its
    measured cost.
    """
    device = SimulatedDevice()
    wall, outs = time_rtlflow(
        prep, n, cycles, executor=executor, use_mcmc=use_mcmc, seed=seed,
        device=device,
    )
    busy = device.stats.busy_seconds
    projected = (
        max(0.0, wall - busy)
        + busy / compute_scale
        + device.stats.overhead_seconds
    )
    return wall, projected, outs


def time_rtlflow_pipeline(
    prep: PreparedDesign,
    n: int,
    cycles: int,
    groups: int = 4,
    cpu_workers: int = 4,
    pipeline: bool = True,
    seed: int = 1,
    text_inputs: bool = True,
):
    """Virtual-time pipeline run; returns the PipelineSimulator report."""
    model = prep.flow.compile()
    pipe = PipelineSimulator(
        model, n, groups=groups, cpu_workers=cpu_workers, pipeline=pipeline
    )
    for mem, vals in prep.memories.items():
        pipe.load_memory(mem, vals)
    stim = prep.bundle.make_stimulus(n, cycles, seed)
    src = TextStimulusBatch(stim.to_texts()) if text_inputs else stim
    outs = pipe.run_virtual(src, cycles=cycles)
    return pipe.report, outs


# ---------------------------------------------------------------------------
# CPU baselines: measured per-lane, modeled across workers
# ---------------------------------------------------------------------------


_SPEC_CACHE: Dict[str, object] = {}


def _scalar_spec_ns(prep: PreparedDesign):
    """Generated scalar source compiled once per design (like one forked
    Verilator/ESSENT process compiling once and simulating many lanes)."""
    key = id(prep)
    if key not in _SPEC_CACHE:
        spec = generate_scalar_model(prep.graph)
        ns: Dict = {}
        exec(compile(spec.source, f"<scalar:{spec.top}>", "exec"), ns)
        _SPEC_CACHE[key] = (spec, ns)
    return _SPEC_CACHE[key]


def measure_lane_seconds(
    prep: PreparedDesign,
    cycles: int,
    engine: str = "verilator",
    sample_lanes: int = 2,
    seed: int = 1,
) -> float:
    """Measured wall seconds to simulate ONE stimulus for ``cycles``.

    Source compilation is amortized (a forked worker compiles once and
    runs its whole lane chunk); one warmup lane runs before timing.
    """
    stim = prep.bundle.make_stimulus(sample_lanes, cycles, seed)
    graph = prep.graph
    spec, ns = _scalar_spec_ns(prep)

    def run_lane(lane: int) -> None:
        if engine == "verilator":
            sim = VerilatorSim(spec, dict(ns))
        elif engine == "essent":
            sim = EssentSim(graph, spec, dict(ns))
        else:
            raise ValueError(engine)
        for mem, vals in prep.memories.items():
            sim.load_memory(mem, vals)
        for step in stim.lane(lane):
            sim.cycle(step)

    run_lane(0)  # warmup
    t0 = time.perf_counter()
    for lane in range(sample_lanes):
        run_lane(lane)
    return (time.perf_counter() - t0) / sample_lanes


def modeled_cpu_batch_seconds(
    lane_seconds: float, n: int, workers: int, modeled_cores: Optional[int] = None
) -> float:
    """Fork-model batch time for ``n`` lanes on ``workers`` processes."""
    if workers <= 0:
        raise ValueError("workers must be positive")
    effective = workers if modeled_cores is None else min(workers, modeled_cores)
    per_worker = lane_seconds * n / effective
    return per_worker * (1.0 + PARALLEL_IMBALANCE) + FORK_STARTUP_S * min(
        workers, n
    ) / max(1, workers)


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------


def save_result(name: str, payload: Dict) -> str:
    """Atomic write (temp + fsync + rename): a crash mid-run never leaves
    a truncated result file clobbering a previous good one."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    return atomic_write_json(path, payload, default=str)


def save_text(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    return atomic_write_text(path, text + "\n")
