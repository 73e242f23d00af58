"""Verilator-like CPU baseline (§2.1, §4.1).

Full-cycle, compiled, single-stimulus simulation.  The de-facto batch
strategy the paper describes, "fork multiple Verilator processes and run
independent stimulus in parallel", is modelled from measured
single-process time by the paper benches (``benchmarks/common.py``),
not run.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.baselines.scalargen import ScalarModelSpec
from repro.utils import bitvec as bv
from repro.utils.errors import SimulationError


class VerilatorSim:
    """One compiled scalar simulator instance (one stimulus)."""

    def __init__(self, spec: ScalarModelSpec, namespace: Optional[dict] = None):
        self.spec = spec
        if namespace is None:
            namespace = {}
            exec(compile(spec.source, f"<verilator:{spec.top}>", "exec"), namespace)
        self.ns = namespace
        self._comb = namespace["comb_all"]
        self._seq = [namespace[f"seq_all_{k}"] for k in range(len(spec.domains))]
        self.S: List[int] = [0] * spec.n_slots
        self.M: List[List[int]] = [[0] * d for d in spec.mem_depths]
        self._prev_clock: Dict[str, int] = {c: 0 for c, _ in spec.domains if c}
        self._input_set = set(spec.input_names)

    # -- state ------------------------------------------------------------------

    def set_input(self, name: str, value: int) -> None:
        if name not in self._input_set:
            raise SimulationError(f"{name!r} is not an input")
        self.S[self.spec.slot_of[name]] = value & bv.mask(self.spec.widths[name])

    def get(self, name: str) -> int:
        return self.S[self.spec.slot_of[name]]

    def load_memory(self, name: str, values: Sequence[int]) -> None:
        mi = self.spec.mem_index[name]
        m = bv.mask(self.spec.mem_widths[mi])
        mem = self.M[mi]
        for i, v in enumerate(values):
            if i >= len(mem):
                break
            mem[i] = int(v) & m

    def set_clock(self, value: int) -> None:
        if self.spec.clock is not None:
            self.S[self.spec.slot_of[self.spec.clock]] = value & 1

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self) -> None:
        S = self.S
        spec = self.spec
        fired = []
        for k, (clock, edge) in enumerate(spec.domains):
            prev = self._prev_clock.get(clock, 0)
            now = S[spec.slot_of[clock]] & 1 if clock else 0
            if (edge == "posedge" and prev == 0 and now == 1) or (
                edge == "negedge" and prev == 1 and now == 0
            ):
                fired.append(k)
        if len(fired) == 1:
            # Fast path: the fused compute+commit function.
            self._seq[fired[0]](S, self.M)
        elif fired:
            # Simultaneous edges on several domains: non-blocking semantics
            # require computing every domain's next state from the pre-edge
            # state before committing any of them; use the per-node fns.
            ns = self.ns
            pending = []
            writes = []
            for k in fired:
                for nid in spec.seq_nodes_by_domain[k]:
                    pending.append((spec.node_target_slot[nid],
                                    ns[f"s{nid}"](S, self.M)))
                for nid in spec.memw_nodes_by_domain[k]:
                    writes.append((nid, ns[f"w{nid}"](S, self.M)))
            for slot, value in pending:
                S[slot] = value
            for nid, (cond, addr, data) in writes:
                mi = spec.node_mem_index[nid]
                if cond and addr < spec.mem_depths[mi]:
                    self.M[mi][addr] = data
        self._comb(S, self.M)
        for clock in self._prev_clock:
            self._prev_clock[clock] = S[spec.slot_of[clock]] & 1

    def cycle(self, inputs: Optional[Mapping[str, int]] = None) -> None:
        if inputs:
            for k, v in inputs.items():
                self.set_input(k, v)
        self.set_clock(0)
        self.evaluate()
        self.set_clock(1)
        self.evaluate()

    def run(
        self,
        stimulus: Sequence[Mapping[str, int]],
        watch: Optional[Sequence[str]] = None,
    ) -> Dict[str, List[int]]:
        names = list(watch) if watch is not None else list(self.spec.output_names)
        traces: Dict[str, List[int]] = {n: [] for n in names}
        for step in stimulus:
            self.cycle(step)
            for n in names:
                traces[n].append(self.get(n))
        return traces

