"""Checkpoints and the memory layout they are tied to.

A checkpoint carries a fingerprint of the memory layout it was taken
on (``BatchSimulator._layout_signature``).  The product engine's
fingerprints of the bundled designs are pinned here, so a checkpoint
written by an older build of ``graph-fused`` keeps restoring.  Every
engine runs on the model's one layout, so a checkpoint taken on any
engine restores on any other.
"""

import pickle

import numpy as np
import pytest

from repro import RTLFlow
from repro.core.simulator import DEFAULT_EXECUTOR, BatchSimulator
from repro.designs import get_design

FUSED_LAYOUT_SIGNATURES = {
    "counter": "4a80ff030b0bf3ce24562af329dfee25"
               "ad8326ef63761b270250490f6532341a",
    "riscv_mini": "853e6dda958589f547fb186cfda35189"
                  "caf5bb7e2bee83fde5eb8d3fbb72dded",
    "spinal": "6c0032ce88242f7fb882581b5bebc270"
              "5bf10ee92111bcfb66e7a98eb9e31e7f",
    "nvdla": "79fbb96860cf0fc803e7c4a5c15d0bc4"
             "84cd08a799ad104ad2388902cb34b4e5",
    "crypto": "2e00c67cc6d2706af7dffa63d750bd6a"
              "fa1cb9fca095ffccba398ac8091cf6f1",
}


def _model(design):
    bundle = get_design(design)
    return bundle, RTLFlow.from_source(bundle.source, bundle.top).compile()


@pytest.mark.parametrize("design", sorted(FUSED_LAYOUT_SIGNATURES))
def test_fused_layout_signature_is_pinned(design):
    _, model = _model(design)
    sim = BatchSimulator(model, 4, executor=DEFAULT_EXECUTOR)
    assert sim._layout_signature() == FUSED_LAYOUT_SIGNATURES[design]


# Restore matrix: a checkpoint taken mid-run on one engine finishes on
# another exactly like an uninterrupted product run.  n = 67 leaves a
# ragged tail in the last word of every packed 1-bit signal.
N, CYCLES, MID = 67, 24, 11
RESTORE_PAIRS = [
    (DEFAULT_EXECUTOR, "graph"),
    (DEFAULT_EXECUTOR, "stream"),
    (DEFAULT_EXECUTOR, "graph-conditional"),
    (DEFAULT_EXECUTOR, "sanitize"),
    ("graph", DEFAULT_EXECUTOR),
    ("graph-conditional", DEFAULT_EXECUTOR),
]
_UNINTERRUPTED = {}


def _uninterrupted(design):
    """Bundle, model, stimulus, watched traces and final pools of one
    uninterrupted product run (cached per design)."""
    if design not in _UNINTERRUPTED:
        bundle, model = _model(design)
        stim = bundle.make_stimulus(N, CYCLES, 5)
        sim = BatchSimulator(model, N, executor=DEFAULT_EXECUTOR)
        bundle.preload(sim)
        traces = sim.run(stim, CYCLES, watch=bundle.watch, trace_every=1)
        _UNINTERRUPTED[design] = (bundle, model, stim, traces,
                                  sim.arrays.snapshot())
    return _UNINTERRUPTED[design]


@pytest.mark.parametrize("src,dst", RESTORE_PAIRS)
@pytest.mark.parametrize("design", sorted(FUSED_LAYOUT_SIGNATURES))
def test_checkpoint_restores_across_engines(design, src, dst):
    bundle, model, stim, want, want_pools = _uninterrupted(design)
    first = BatchSimulator(model, N, executor=src)
    bundle.preload(first)
    first.run(stim, MID, watch=bundle.watch)
    ckpt = pickle.loads(pickle.dumps(first.save_checkpoint()))

    second = BatchSimulator(model, N, executor=dst)
    second.restore_checkpoint(ckpt)
    assert second.cycles_run == MID
    got = second.run(stim, CYCLES, watch=bundle.watch, trace_every=1,
                     start_cycle=MID)
    for name in bundle.watch:
        np.testing.assert_array_equal(got[name], want[name][MID:],
                                      err_msg=name)
    for pool, (a, b) in enumerate(zip(second.arrays.pools, want_pools)):
        np.testing.assert_array_equal(a, b, err_msg=f"pool {pool}")
