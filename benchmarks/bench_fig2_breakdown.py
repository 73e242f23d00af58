"""Figure 2: set_inputs vs evaluate breakdown and GPU utilization.

Paper claim: without pipelining, the CPU-side set_inputs share grows with
the number of stimulus and GPU utilization falls.
"""

import pytest

from benchmarks.common import load_design, time_rtlflow_pipeline
from benchmarks.harness import run_fig2

CYCLES = 30


@pytest.fixture(scope="module")
def nvdla():
    return load_design("nvdla", pes=4)


def test_breakdown_capture(benchmark, nvdla):
    benchmark.pedantic(
        lambda: time_rtlflow_pipeline(nvdla, 128, CYCLES),
        rounds=3, iterations=1,
    )


def test_set_inputs_grows_with_stimulus(nvdla):
    r_small, _ = time_rtlflow_pipeline(nvdla, 64, CYCLES)
    r_large, _ = time_rtlflow_pipeline(nvdla, 1024, CYCLES)
    assert r_large.set_inputs_seconds > r_small.set_inputs_seconds * 4


def test_utilization_declines_with_stimulus(nvdla):
    r_small, _ = time_rtlflow_pipeline(nvdla, 64, CYCLES)
    r_large, _ = time_rtlflow_pipeline(nvdla, 2048, CYCLES)
    assert (
        r_large.sequential_utilization <= r_small.sequential_utilization + 0.01
    )


def test_fig2_harness():
    out = run_fig2("quick")
    assert "Figure 2" in out
    assert "GPU utilization" in out
