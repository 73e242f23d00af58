"""The fused engine's numpy lowering against the per-node graph executor.

The fused program is generated numpy code, and numpy is the one lowering
the engine ships; the ``numpy`` case id names it.  Each case must stay
bit-identical to ``graph`` at every store boundary, keep quarantined
lanes in step, and resume exactly from a mid-run checkpoint.  The seeds
differ from ``tests/test_fusion.py`` so the two files draw different
stimulus over the same designs.
"""

import numpy as np
import pytest

from repro.core.simulator import BatchSimulator
from repro.stimulus.generator import random_batch

from tests.conftest import COUNTER_V
from tests.test_fusion import DIFFERENTIAL_MATRIX, _model, _run

LOWERINGS = [pytest.param("graph-fused", id="numpy")]


@pytest.mark.parametrize("executor", LOWERINGS)
@pytest.mark.parametrize("src,top", DIFFERENTIAL_MATRIX)
@pytest.mark.parametrize("n", [16, 67])  # 67: ragged tail word
def test_backend_bit_identical_to_graph(src, top, n, executor):
    model = _model(src, top)
    stim = random_batch(model.design, n, 30, seed=21)
    ref, _ = _run(model, n, stim, "graph")
    got, _ = _run(model, n, stim, executor)
    assert set(ref) == set(got)
    for name in ref:
        np.testing.assert_array_equal(ref[name], got[name], err_msg=name)


@pytest.mark.parametrize("executor", LOWERINGS)
def test_backend_with_quarantined_lanes_matches_graph(executor):
    model = _model(COUNTER_V, "counter")
    n = 24
    stim = random_batch(model.design, n, 40, seed=11)
    faults = [(5, 0, "injected"), (18, 23, "injected")]
    ref, ref_sim = _run(model, n, stim, "graph", faults=faults)
    got, got_sim = _run(model, n, stim, executor, faults=faults)
    for name in ref:
        np.testing.assert_array_equal(ref[name], got[name], err_msg=name)
    assert ref_sim.quarantine.faulted_lanes() == \
        got_sim.quarantine.faulted_lanes()


@pytest.mark.parametrize("executor", LOWERINGS)
def test_backend_midrun_checkpoint_restore(executor):
    model = _model(COUNTER_V, "counter")
    n = 16
    stim = random_batch(model.design, n, 50, seed=13)
    ref, _ = _run(model, n, stim, executor)

    sim = BatchSimulator(model, n, executor=executor)
    sim.run(stim, cycles=31)
    ckpt = sim.save_checkpoint()

    fresh = BatchSimulator(model, n, executor=executor)
    fresh.restore_checkpoint(ckpt)
    assert fresh.cycles_run == 31
    out = fresh.run(stim, trace_every=1, start_cycle=fresh.cycles_run)
    np.testing.assert_array_equal(out["count"][-1], ref["count"][-1])
