"""ESSENT-like event-driven baseline (§2.2–2.3).

Uses the same compiled per-node functions as the Verilator-like engine
but schedules them conditionally: a combinational node re-evaluates only
when one of its inputs changed, and a register's fanout is only marked
active when its committed value actually changed — "conditional execution
to skip over unnecessary simulation work" (Beamer & Donofrio, DAC'20).

On low-activity workloads this skips most of the design per cycle; on
high-activity workloads the bookkeeping makes it slower than the
straight-line full-cycle engine — the trade-off §2.3 describes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.baselines.scalargen import ScalarModelSpec, generate_scalar_model
from repro.rtlir.graph import RtlGraph
from repro.utils import bitvec as bv
from repro.utils.errors import SimulationError


class EssentSim:
    """Event-driven single-stimulus simulator."""

    def __init__(
        self,
        graph: RtlGraph,
        spec: Optional[ScalarModelSpec] = None,
        namespace: Optional[dict] = None,
    ):
        self.graph = graph
        self.spec = spec or generate_scalar_model(graph)
        if namespace is None:
            namespace = {}
            exec(
                compile(self.spec.source, f"<essent:{self.spec.top}>", "exec"),
                namespace,
            )
        ns = namespace
        self.ns = ns
        s = self.spec
        self.S: List[int] = [0] * s.n_slots
        self.M: List[List[int]] = [[0] * d for d in s.mem_depths]
        self._prev_clock: Dict[str, int] = {c: 0 for c, _ in s.domains if c}
        self._input_set = set(s.input_names)

        # Fanout: signal name -> comb node ids that read it.
        self.fanout: Dict[str, List[int]] = {}
        for node in graph.comb_nodes:
            for r in node.reads:
                self.fanout.setdefault(r, []).append(node.nid)
        self._comb_fns = {n.nid: ns[f"c{n.nid}"] for n in graph.comb_nodes}
        self._seq_fns = {n.nid: ns[f"s{n.nid}"] for n in graph.seq_nodes}
        self._memw_fns = {n.nid: ns[f"w{n.nid}"] for n in graph.memw_nodes}
        self._order_index = {nid: i for i, nid in enumerate(graph.comb_order)}
        self._dirty: Set[int] = set(graph.comb_order)  # first settle runs all
        # Signals read by each seq/memw node, to skip edge work when the
        # register's inputs did not change since the last edge.
        self._seq_inputs_dirty: Set[int] = {
            n.nid for n in graph.seq_nodes + graph.memw_nodes
        }
        # Activity statistics (ESSENT's raison d'être).
        self.nodes_evaluated = 0
        self.nodes_skipped = 0

        self._seq_readers: Dict[str, List[int]] = {}
        for node in graph.seq_nodes + graph.memw_nodes:
            for r in node.reads:
                self._seq_readers.setdefault(r, []).append(node.nid)

    # -- state ------------------------------------------------------------------

    def set_input(self, name: str, value: int) -> None:
        if name not in self._input_set:
            raise SimulationError(f"{name!r} is not an input")
        slot = self.spec.slot_of[name]
        new = value & bv.mask(self.spec.widths[name])
        if self.S[slot] != new:
            self.S[slot] = new
            self._mark_changed(name)

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
        self._mark_changed(name)

    def set_clock(self, value: int) -> None:
        if self.spec.clock is not None:
            self.S[self.spec.slot_of[self.spec.clock]] = value & 1

    def _mark_changed(self, name: str) -> None:
        for nid in self.fanout.get(name, ()):
            self._dirty.add(nid)
        for nid in self._seq_readers.get(name, ()):
            self._seq_inputs_dirty.add(nid)

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self) -> None:
        S, M = self.S, self.M
        g = self.graph
        spec = self.spec

        # Compute next values for every fired domain first (non-blocking
        # semantics across simultaneous edges), then commit all of them.
        pending: List = []
        writes: List = []
        for k, (clock, edge) in enumerate(spec.domains):
            prev = self._prev_clock.get(clock, 0)
            now = S[spec.slot_of[clock]] & 1 if clock else 0
            fire = (edge == "posedge" and prev == 0 and now == 1) or (
                edge == "negedge" and prev == 1 and now == 0
            )
            if not fire:
                continue
            for nid in spec.seq_nodes_by_domain[k]:
                if nid in self._seq_inputs_dirty:
                    self.nodes_evaluated += 1
                    pending.append((nid, self._seq_fns[nid](S, M)))
                    self._seq_inputs_dirty.discard(nid)
                else:
                    self.nodes_skipped += 1
            for nid in spec.memw_nodes_by_domain[k]:
                self.nodes_evaluated += 1
                writes.append((nid, self._memw_fns[nid](S, M)))
                self._seq_inputs_dirty.discard(nid)
        for nid, value in pending:
            node = g.nodes[nid]
            slot = spec.node_target_slot[nid]
            if S[slot] != value:
                S[slot] = value
                self._mark_changed(node.target)
        for nid, (cond, addr, data) in writes:
            node = g.nodes[nid]
            mi = spec.mem_index[node.target]
            depth = spec.mem_depths[mi]
            if cond and addr < depth and M[mi][addr] != data:
                M[mi][addr] = data
                self._mark_changed(node.target)

        # Event-driven comb settle: visit dirty nodes in topo order.
        while self._dirty:
            for nid in sorted(self._dirty, key=self._order_index.__getitem__):
                if nid not in self._dirty:
                    continue
                self._dirty.discard(nid)
                node = g.nodes[nid]
                slot = spec.node_target_slot[nid]
                old = S[slot]
                self.nodes_evaluated += 1
                self._comb_fns[nid](S, M)
                if S[slot] != old:
                    self._mark_changed(node.target)
            # _mark_changed only adds strictly later nodes (topo order), so
            # one sweep converges; loop guards pathological orderings.

        for clock in self._prev_clock:
            self._prev_clock[clock] = S[spec.slot_of[clock]] & 1

    def cycle(self, inputs: Optional[Mapping[str, int]] = None) -> None:
        if inputs:
            for key, v in inputs.items():
                self.set_input(key, v)
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

    @property
    def activity_factor(self) -> float:
        total = self.nodes_evaluated + self.nodes_skipped
        return self.nodes_evaluated / total if total else 0.0

