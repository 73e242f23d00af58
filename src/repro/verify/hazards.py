"""Scheduling-hazard detection: static analysis + runtime sanitizer.

Two halves of one guarantee — that the task schedule can never race:

* :func:`check_hazards` proves it statically.  Any two tasks the
  schedule treats as order-free (unordered combinational tasks, or
  sequential tasks sharing a clock domain) must have disjoint write
  footprints, and an unordered task must not read what its peer writes.
  The builders *should* make this impossible (edges are derived from
  reads x producer), so any finding means a builder bug or a corrupted
  graph (see :mod:`repro.verify.mutate`).

* :class:`RuntimeSanitizer` checks it dynamically.  An opt-in executor
  (``repro run --verify``, or ``executor='sanitize'``) that replays the
  per-task programs — emitted by the product's emitter, on the layout
  the product runs — while diffing all five device pools around every
  task launch:
  each task may only change offsets inside its declared
  :class:`~repro.core.codegen.TaskAccess` write footprint, no two tasks
  in one phase may write the same offset, and the device write-epoch
  counters must stay monotone and bounded by the global epoch.  A
  violation raises :class:`~repro.utils.errors.SanitizerError` naming
  the task, pool, offset and signal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.memory import PACKED_POOL
from repro.gpu.executor import Executor
from repro.lint.diagnostics import Diagnostic, Severity
from repro.partition.taskgraph import TaskGraph
from repro.rtlir.graph import NodeKind
from repro.utils.errors import SanitizerError

__all__ = ["check_hazards", "RuntimeSanitizer"]


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


class RuntimeSanitizer(Executor):
    """Per-task replay executor that asserts the declared footprints.

    Drop-in for the ``graph`` executor (same layout and task programs),
    at a large constant cost per task — this is a debugging mode, not a
    performance path.  ``wants_epochs`` opts the simulator
    into write-epoch tracking so epoch monotonicity is checkable too.
    """

    name = "sanitize"
    wants_epochs = True

    def __init__(self, model, device):
        super().__init__(model, device)
        self._accesses = model.task_accesses()
        self._comb_plan = list(model.comb_schedule())
        self._seq_plans = {
            dom: model.seq_schedule(*dom) for dom in model.clock_domains()
        }
        self._names = self._offset_names(model.layout)
        self._last_epoch = -1
        self.tasks_checked = 0

    @staticmethod
    def _offset_names(layout) -> List[Dict[int, str]]:
        """Per pool: offset -> human-readable owner, for error messages."""
        names: List[Dict[int, str]] = [dict() for _ in range(5)]
        for name, s in layout.slots.items():
            for i in range(s.limbs):
                names[s.pool][s.offset + i] = name
                if s.next_offset is not None:
                    names[s.pool][s.next_offset + i] = f"{name}.next"
        for nid, sc in layout.scratch.items():
            for label, s in (("cond", sc.cond), ("addr", sc.addr),
                             ("data", sc.data)):
                names[s.pool][s.offset] = f"memw{nid}.{label}"
        for name, m in layout.mems.items():
            for i in range(m.depth):
                names[m.pool][m.base + i] = f"{name}[{i}]"
        return names

    def reset_activity(self) -> None:
        """Forget epoch history (checkpoint restore rewinds epochs)."""
        self._last_epoch = -1

    # -- executor interface ----------------------------------------------------

    def run_comb(self, arrays) -> None:
        self._run_phase(arrays, self._comb_plan, "comb")

    def run_seq(self, arrays, clock: str, edge: str) -> None:
        plan = self._seq_plans.get((clock, edge))
        if plan:
            self._run_phase(arrays, plan, f"seq {edge} {clock}")

    def _run_phase(self, arrays, plan: List[int], phase: str) -> None:
        self._check_epochs(arrays, phase)
        base = [pool.copy() for pool in arrays.pools]
        owners: List[Dict[int, int]] = [dict() for _ in base]
        args = self._args(arrays)
        # Elements per offset: N lanes, or W words in the packed pool.
        block = [arrays.n] * PACKED_POOL + [arrays.words]
        for tid in plan:
            self.device.launch_graph([self.model.task_fns[tid]], args)
            self.tasks_checked += 1
            acc = self._accesses[tid]
            allowed = {pool: set(offs.tolist())
                       for pool, offs in acc.write_offsets}
            for pool in range(len(base)):
                diff = np.nonzero(arrays.pools[pool] != base[pool])[0]
                if diff.size == 0:
                    continue
                changed = np.unique(diff // block[pool])
                for off in changed.tolist():
                    if off not in allowed.get(pool, ()):
                        raise SanitizerError(
                            f"task {tid} wrote pool {pool} offset {off} "
                            f"({self._name(pool, off)}) outside its "
                            f"declared write footprint during the {phase} "
                            "phase"
                        )
                    prev = owners[pool].get(off)
                    if prev is not None and prev != tid:
                        raise SanitizerError(
                            f"tasks {prev} and {tid} both wrote pool "
                            f"{pool} offset {off} ({self._name(pool, off)}) "
                            f"in one {phase} phase"
                        )
                    owners[pool][off] = tid
                base[pool][diff] = arrays.pools[pool][diff]
        self._check_epochs(arrays, phase)

    def _name(self, pool: int, off: int) -> str:
        return self._names[pool].get(off, "?")

    def _check_epochs(self, arrays, phase: str) -> None:
        """Write epochs must stay monotone and below the global epoch."""
        if arrays.epoch < self._last_epoch:
            raise SanitizerError(
                f"global write epoch moved backwards ({self._last_epoch} "
                f"-> {arrays.epoch}) entering the {phase} phase"
            )
        self._last_epoch = arrays.epoch
        if not arrays.track_epochs or arrays.write_epochs is None:
            return
        for pool, col in enumerate(arrays.write_epochs):
            if col.size and int(col.max()) > arrays.epoch:
                off = int(col.argmax())
                raise SanitizerError(
                    f"pool {pool} offset {off} ({self._name(pool, off)}) "
                    f"carries write epoch {int(col.max())} beyond the "
                    f"global epoch {arrays.epoch}"
                )


def _unordered_pairs(tg: TaskGraph) -> Set[Tuple[int, int]]:
    """Exposed for tests: order-free comb task pairs."""
    comb = [t for t in tg.comb_topo]
    anc: Dict[int, int] = {}
    for tid in comb:
        a = 0
        for p in tg.preds.get(tid, ()):
            a |= anc.get(p, 0) | (1 << p)
        anc[tid] = a
    out: Set[Tuple[int, int]] = set()
    for i, a in enumerate(comb):
        for b in comb[i + 1:]:
            if not ((anc[b] >> a) & 1 or (anc[a] >> b) & 1):
                out.add((min(a, b), max(a, b)))
    return out
