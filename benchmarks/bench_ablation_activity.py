"""Ablation: activity factor vs engine choice (§2.2-2.3).

The paper's §2.3 trade-off, measured on the counter design:

* the event-driven (ESSENT-like) engine wins at LOW activity (it skips
  quiescent logic),
* the full-cycle engine wins at HIGH activity (no bookkeeping),
* the batch engine is activity-insensitive: it evaluates every task on
  every cycle, for all stimulus at once, and gets its speed from the
  lane axis rather than from skipping work.
"""

import time

import numpy as np
import pytest

from benchmarks.common import load_design
from repro.baselines.essent import EssentSim
from repro.baselines.verilator import VerilatorSim
from repro.baselines.scalargen import generate_scalar_model
from repro.stimulus.batch import StimulusBatch

CYCLES = 300


def _stim_with_activity(design, activity: float, cycles: int, seed: int = 0):
    """Counter stimulus whose enable toggles with probability ``activity``."""
    rng = np.random.default_rng(seed)
    en = (rng.random((cycles, 1)) < activity).astype(np.uint64)
    rst = np.zeros((cycles, 1), dtype=np.uint64)
    rst[0, 0] = 1
    return StimulusBatch({"rst": rst, "en": en})


@pytest.fixture(scope="module")
def counter():
    return load_design("counter")


def _lane_time(engine_factory, prep, stim) -> float:
    best = None
    for _ in range(3):
        sim = engine_factory()
        t0 = time.perf_counter()
        for step in stim.lane(0):
            sim.cycle(step)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def test_essent_skip_rate_tracks_activity(counter):
    graph = counter.graph
    spec = generate_scalar_model(graph)
    rates = {}
    for activity in (0.02, 0.98):
        sim = EssentSim(graph, spec)
        stim = _stim_with_activity(counter.graph.design, activity, CYCLES)
        for step in stim.lane(0):
            sim.cycle(step)
        rates[activity] = sim.activity_factor
    assert rates[0.02] < rates[0.98], rates


def test_event_driven_wins_at_low_activity(counter):
    graph = counter.graph
    spec = generate_scalar_model(graph)
    stim = _stim_with_activity(counter.graph.design, 0.01, CYCLES)
    t_essent = _lane_time(lambda: EssentSim(graph, spec), counter, stim)
    t_veril = _lane_time(lambda: VerilatorSim(spec), counter, stim)
    # At 1% activity the event-driven engine must not lose badly; on this
    # tiny design constant costs dominate, so require parity within 2x.
    assert t_essent < t_veril * 2.0, (t_essent, t_veril)


def test_full_cycle_wins_at_high_activity(counter):
    graph = counter.graph
    spec = generate_scalar_model(graph)
    stim = _stim_with_activity(counter.graph.design, 1.0, CYCLES)
    t_essent = _lane_time(lambda: EssentSim(graph, spec), counter, stim)
    t_veril = _lane_time(lambda: VerilatorSim(spec), counter, stim)
    # Full activity: skipping never pays, bookkeeping always costs.
    assert t_veril < t_essent, (t_veril, t_essent)


def test_batch_engine_activity_insensitive(counter):
    from repro.core.simulator import BatchSimulator

    # Runs of ~0.1 s each, one untimed warm-up per activity, then
    # alternating rounds compared by their medians: host noise moves
    # millisecond runs by more than the bound.
    model = counter.flow.compile()
    n, cycles, rounds = 1024, 2000, 5
    stims = {}
    for activity in (0.02, 0.98):
        rng = np.random.default_rng(1)
        en = (rng.random((cycles, n)) < activity).astype(np.uint64)
        rst = np.zeros((cycles, n), dtype=np.uint64)
        rst[0] = 1
        stims[activity] = StimulusBatch({"rst": rst, "en": en})
        BatchSimulator(model, n).run(stims[activity])
    samples = {activity: [] for activity in stims}
    for r in range(rounds):
        for activity in (stims if r % 2 == 0 else reversed(stims)):
            sim = BatchSimulator(model, n)
            t0 = time.perf_counter()
            sim.run(stims[activity])
            samples[activity].append(time.perf_counter() - t0)
    times = {a: float(np.median(v)) for a, v in samples.items()}
    lo, hi = sorted(times.values())
    assert hi / lo < 1.5, times  # full-cycle: work independent of activity


def test_activity_sweep_benchmark(benchmark, counter):
    graph = counter.graph
    spec = generate_scalar_model(graph)
    stim = _stim_with_activity(counter.graph.design, 0.5, CYCLES)

    def run():
        sim = EssentSim(graph, spec)
        for step in stim.lane(0):
            sim.cycle(step)
        return sim.activity_factor

    benchmark.pedantic(run, rounds=3, iterations=1)
