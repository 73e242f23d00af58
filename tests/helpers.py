"""Differential-testing helpers shared across the suite.

The paper validates RTLflow outputs against Verilator's golden reference;
here every engine is validated against :class:`ReferenceSimulator`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.baselines.reference import ReferenceSimulator
from repro.core.codegen import KernelCodegen
from repro.core.simulator import DEFAULT_EXECUTOR, BatchSimulator
from repro.partition.merge import partition
from repro.stimulus.batch import StimulusBatch
from repro.stimulus.generator import random_batch

from tests.conftest import compile_graph


def reference_traces(
    graph,
    stim: StimulusBatch,
    watch: Sequence[str],
    memories: Optional[Dict[str, Sequence[int]]] = None,
) -> Dict[str, np.ndarray]:
    """Per-cycle traces (cycles, N) from the golden model, lane by lane.

    Object dtype: traces hold Python ints so wide (>64-bit) signals
    compare exactly.
    """
    out = {w: np.zeros((stim.cycles, stim.n), dtype=object) for w in watch}
    for lane in range(stim.n):
        sim = ReferenceSimulator(graph)
        if memories:
            for name, vals in memories.items():
                sim.load_memory(name, vals)
        steps = stim.lane(lane)
        for c, step in enumerate(steps):
            sim.cycle(step)
            for w in watch:
                out[w][c, lane] = int(sim.get(w))
    return out


def batch_traces(
    graph,
    stim: StimulusBatch,
    watch: Sequence[str],
    executor: str = DEFAULT_EXECUTOR,
    target_weight: float = 64.0,
    strategy: str = "levelpack",
    memories: Optional[Dict[str, Sequence[int]]] = None,
) -> Dict[str, np.ndarray]:
    """Per-cycle traces from the RTLflow batch simulator."""
    tg = partition(graph, target_weight=target_weight, strategy=strategy)
    model = KernelCodegen(tg).compile()
    sim = BatchSimulator(model, stim.n, executor=executor)
    if memories:
        for name, vals in memories.items():
            sim.load_memory(name, vals)
    out = {w: np.zeros((stim.cycles, stim.n), dtype=object) for w in watch}
    for c in range(stim.cycles):
        sim.cycle(stim.inputs_at(c))
        for w in watch:
            out[w][c] = [int(v) for v in sim.get(w)]
    return out


def assert_batch_matches_reference(
    source: str,
    top: str,
    n: int = 8,
    cycles: int = 20,
    seed: int = 0,
    watch: Optional[Sequence[str]] = None,
    executor: str = DEFAULT_EXECUTOR,
    memories: Optional[Dict[str, Sequence[int]]] = None,
    target_weight: float = 64.0,
    strategy: str = "levelpack",
):
    """Run random stimulus through reference and batch engines; compare."""
    graph = compile_graph(source, top)
    if watch is None:
        watch = [s.name for s in graph.design.outputs]
    stim = random_batch(graph.design, n, cycles, seed=seed)
    ref = reference_traces(graph, stim, watch, memories)
    got = batch_traces(
        graph, stim, watch, executor=executor,
        target_weight=target_weight, strategy=strategy, memories=memories,
    )
    for w in watch:
        mism = np.nonzero(ref[w] != got[w])
        if mism[0].size:
            c, lane = int(mism[0][0]), int(mism[1][0])
            raise AssertionError(
                f"signal {w!r} mismatch at cycle {c} lane {lane}: "
                f"reference={ref[w][c, lane]:#x} batch={got[w][c, lane]:#x}"
            )
    return graph
