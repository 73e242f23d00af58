"""Table 5 + Fig 16: pipeline scheduling vs per-cycle input barrier.

Paper claims checked here:

* the pipelined schedule is never slower than RTLflow^-p (the barrier
  schedule), and the gap grows with the number of stimulus;
* GPU idle time (waiting for set_inputs) shrinks under pipelining.
"""

import numpy as np
import pytest

from benchmarks.common import load_design, time_rtlflow, time_rtlflow_pipeline
from benchmarks.harness import run_table5, run_timelines

CYCLES = 40


@pytest.fixture(scope="module")
def spinal():
    return load_design("spinal", taps=4)


def test_pipeline_run(benchmark, spinal):
    benchmark.pedantic(
        lambda: time_rtlflow_pipeline(spinal, 128, CYCLES, groups=4),
        rounds=3, iterations=1,
    )


def test_pipeline_not_slower(spinal):
    report, _ = time_rtlflow_pipeline(spinal, 256, CYCLES, groups=4)
    assert report.pipelined_makespan <= report.sequential_makespan * 1.001


def test_gap_grows_with_stimulus(spinal):
    small, _ = time_rtlflow_pipeline(spinal, 64, CYCLES, groups=4)
    large, _ = time_rtlflow_pipeline(spinal, 1024, CYCLES, groups=4)

    def gain(r):
        return (r.sequential_makespan - r.pipelined_makespan) / r.sequential_makespan

    # More stimulus -> more CPU-side decode to hide -> larger gain
    # (Table 5's 11% -> 79% trend).  Allow equality within noise.
    assert gain(large) >= gain(small) - 0.02, (gain(small), gain(large))


def test_results_identical_to_one_batch_simulator(spinal):
    _, grouped = time_rtlflow_pipeline(spinal, 64, CYCLES, groups=4)
    _, whole = time_rtlflow(spinal, 64, CYCLES)
    assert grouped.keys() == whole.keys()
    for k in whole:
        assert np.array_equal(grouped[k], whole[k]), k


def test_table5_harness():
    out = run_table5("quick")
    assert "Table 5" in out


def test_timelines_harness():
    out = run_timelines("quick")
    assert "Fig 16" in out
    assert "#" in out  # rendered swimlanes
