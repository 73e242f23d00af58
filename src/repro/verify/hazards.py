"""Scheduling-hazard detection: static analysis + runtime write-set checks.

Two halves of one guarantee — that no step of an evaluation stores
where the schedule does not expect it:

* :func:`check_hazards` proves it statically over the task graph.  Any
  two tasks the schedule treats as order-free (unordered combinational
  tasks, or sequential tasks sharing a clock domain) must have disjoint
  write footprints, and an unordered task must not read what its peer
  writes.  The builders *should* make this impossible (edges are
  derived from reads x producer), so any finding means a builder bug or
  a corrupted graph (see :mod:`repro.verify.mutate`).

* :class:`CheckedFusedExecutor` checks it at run time, on the programs
  the product ships (the opt-in ``sanitize`` executor behind ``repro
  run --verify``): every pool offset a step changes must lie in the
  step's static write set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.memory import PACKED_POOL
from repro.gpu.graphexec import FusedProgramExecutor
from repro.lint.diagnostics import Diagnostic, Severity
from repro.partition.taskgraph import TaskGraph
from repro.rtlir.graph import NodeKind
from repro.utils.errors import SanitizerError
from repro.verify.ir_checks import _write_ranges

__all__ = ["check_hazards", "CheckedFusedExecutor"]


def _err(msg: str, subject: Optional[str] = None) -> Diagnostic:
    return Diagnostic(rule_id="verify-hazard", severity=Severity.ERROR,
                      message=msg, subject=subject)


def check_hazards(tg: TaskGraph) -> List[Diagnostic]:
    """Static read-write conflict analysis over the task graph."""
    out: List[Diagnostic] = []

    # Ancestor bitsets over the comb topo order: anc[t] has bit p set
    # when p must run before t.  Any pair with neither relation is
    # order-free and must not conflict.
    comb = [t for t in tg.comb_topo
            if 0 <= t < len(tg.tasks) and tg.tasks[t].kind is NodeKind.COMB]
    anc: Dict[int, int] = {}
    for tid in comb:
        a = 0
        for p in tg.preds.get(tid, ()):
            a |= anc.get(p, 0) | (1 << p)
        anc[tid] = a
    reads = {t: tg.task_reads(t) for t in comb}
    writes = {t: tg.task_writes(t) for t in comb}
    for i, a in enumerate(comb):
        for b in comb[i + 1:]:
            if (anc[b] >> a) & 1 or (anc[a] >> b) & 1:
                continue  # ordered: the schedule serializes them
            ww = writes[a] & writes[b]
            if ww:
                out.append(_err(
                    f"unordered comb tasks {a} and {b} both write "
                    f"{sorted(ww)[:3]}", subject=sorted(ww)[0]))
            for x, y in ((a, b), (b, a)):
                rw = writes[x] & reads[y]
                if rw:
                    out.append(_err(
                        f"comb task {y} reads {sorted(rw)[:3]} written by "
                        f"task {x}, but no edge orders them",
                        subject=sorted(rw)[0]))

    # Sequential tasks within one clock domain all fire on the same edge
    # (mutually order-free by design): their register/scratch writes
    # must be pairwise disjoint.
    domains: Dict[Tuple[str, str], List[int]] = {}
    for t in tg.tasks:
        if t.kind is NodeKind.SEQ:
            domains.setdefault((t.clock or "", t.edge), []).append(t.tid)
    for dom, tids in sorted(domains.items()):
        owner: Dict[str, int] = {}
        for tid in tids:
            for nid in tg.tasks[tid].nodes:
                if nid < 0 or nid >= len(tg.graph.nodes):
                    continue
                node = tg.graph.nodes[nid]
                # MEMW nodes write private scratch; two write ports on
                # one memory are legal (commit applies them in order).
                if node.kind is not NodeKind.SEQ:
                    continue
                prev = owner.get(node.target)
                if prev is not None and prev != tid:
                    out.append(_err(
                        f"seq tasks {prev} and {tid} in domain {dom} both "
                        f"write register {node.target!r}",
                        subject=node.target))
                owner[node.target] = tid
    return out


def _owner(layout, pool: int, off: int) -> str:
    """The signal (or shadow, scratch slot, memory word) at ``off``."""
    for name, s in layout.slots.items():
        for lo, label in ((s.offset, name), (s.next_offset, f"{name}.next")):
            if s.pool == pool and lo is not None and lo <= off < lo + s.limbs:
                return label
    for nid, sc in layout.scratch.items():
        for label, s in (("cond", sc.cond), ("addr", sc.addr),
                         ("data", sc.data)):
            if (s.pool, s.offset) == (pool, off):
                return f"memw{nid}.{label}"
    for name, m in layout.mems.items():
        if m.pool == pool and m.base <= off < m.base + m.depth:
            return f"{name}[{off - m.base}]"
    return "?"


def _commit_range(node, layout) -> Tuple[int, int, int]:
    """What a domain's commit stores for ``node``: a register's live
    slot, or a memory write's whole memory."""
    if node.kind is NodeKind.MEMW:
        m = layout.mems[node.target]
        return (m.pool, m.base, m.base + m.depth)
    slot = layout.slots[node.target]
    return (slot.pool, slot.offset, slot.offset + slot.limbs)


class CheckedFusedExecutor(FusedProgramExecutor):
    """The product's evaluation, one step at a time, each step held to
    its static write set.

    The steps are the product's (CCSS's sequential compute, synchronise,
    comb settle): every triggered ``fused_seq_*`` program, every
    triggered domain's commit (the simulator's own, so quarantine masks
    apply), then ``fused_comb``.  Around each step the five pools are
    diffed; a changed offset (in ``P1``, one signal's word block) outside
    the step's set in ``write_sets`` raises
    :class:`~repro.utils.errors.SanitizerError`.  The sets follow the
    verifier's node rule (:func:`repro.verify.ir_checks._write_ranges`):
    the comb slots; a domain's shadows and ``MEMW`` scratch; its live
    registers and memories.
    """

    name = "sanitize"

    def __init__(self, model, device):
        super().__init__(model, device)
        layout, graph = model.layout, model.graph
        sizes = [max(1, s) for s in layout.pool_sizes] + [layout.packed_size]
        #: Step name -> per pool, a bool mask of the offsets it may change.
        self.write_sets: Dict[str, List[np.ndarray]] = {}

        def allow(step: str, ranges) -> None:
            masks = self.write_sets[step] = [np.zeros(s, bool) for s in sizes]
            for pool, lo, hi in ranges:
                masks[pool][lo:hi] = True

        allow(self.programs.comb.name, [
            r for n in graph.nodes if n.kind is NodeKind.COMB
            for r in _write_ranges(n, layout)])
        for dom, nids in graph.clock_domains().items():
            nodes = [graph.nodes[nid] for nid in nids]
            if dom in self.programs.seq:
                allow(self.programs.seq[dom].name,
                      [r for n in nodes for r in _write_ranges(n, layout)])
            allow(f"commit_{dom[0]}_{dom[1]}",
                  [_commit_range(n, layout) for n in nodes])

    def run_eval(self, arrays, triggered, commit) -> None:
        args = self._args(arrays)
        for prog in [self.programs.seq.get(dom) for dom in triggered]:
            if prog is not None:
                self._step(arrays, prog.name, self.device.launch_graph,
                           [prog.fn], args)
        for dom in triggered:
            self._step(arrays, f"commit_{dom[0]}_{dom[1]}", commit, dom)
        comb = self.programs.comb
        self._step(arrays, comb.name, self.device.launch_graph,
                   [comb.fn], args)

    def _step(self, arrays, step: str, fn, *args) -> None:
        before = [pool.copy() for pool in arrays.pools]
        fn(*args)
        # Elements per offset: N lanes, or W words in the packed pool.
        block = [arrays.n] * PACKED_POOL + [arrays.words]
        for pool, allowed in enumerate(self.write_sets[step]):
            diff = np.flatnonzero(before[pool] != arrays.pools[pool])
            offs = np.unique(diff // block[pool])
            bad = offs[~allowed[offs]]
            if bad.size:
                off = int(bad[0])
                raise SanitizerError(
                    f"{step} wrote pool {pool} offset {off} "
                    f"({_owner(self.layout, pool, off)}) outside its "
                    "write set")
