"""Macro-task graph: the unit of kernel generation and GPU scheduling.

A :class:`Task` is a set of RTL nodes that becomes one generated kernel
(the paper's ``__global__`` macro task); the :class:`TaskGraph` records the
dependency DAG among combinational tasks plus the (mutually independent)
sequential tasks per clock domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.rtlir.graph import NodeKind, RtlGraph
from repro.utils.errors import SimulationError


@dataclass
class Task:
    tid: int
    kind: NodeKind  # COMB, or SEQ (covers SEQ+MEMW compute nodes)
    nodes: List[int]
    clock: Optional[str] = None
    edge: str = "posedge"
    level: int = 0
    weight: float = 0.0


@dataclass
class TaskGraph:
    graph: RtlGraph
    tasks: List[Task] = field(default_factory=list)
    preds: Dict[int, Set[int]] = field(default_factory=dict)
    succs: Dict[int, Set[int]] = field(default_factory=dict)
    comb_topo: List[int] = field(default_factory=list)
    comb_levels: List[List[int]] = field(default_factory=list)
    seq_tasks: List[int] = field(default_factory=list)
    node_task: Dict[int, int] = field(default_factory=dict)

    # -- construction helpers -------------------------------------------------

    def add_task(self, task: Task) -> Task:
        task.tid = len(self.tasks)
        self.tasks.append(task)
        for nid in task.nodes:
            self.node_task[nid] = task.tid
        return task

    def finalize(self) -> None:
        """Derive task-level edges and a level-ordered topo schedule."""
        comb_tids = [t.tid for t in self.tasks if t.kind is NodeKind.COMB]
        self.preds = {t: set() for t in comb_tids}
        self.succs = {t: set() for t in comb_tids}
        g = self.graph
        for t in self.tasks:
            if t.kind is not NodeKind.COMB:
                continue
            for nid in t.nodes:
                for p in g.preds.get(nid, ()):
                    pt = self.node_task[p]
                    if pt != t.tid:
                        self.preds[t.tid].add(pt)
                        self.succs[pt].add(t.tid)

        # Levelize the task DAG (it must be acyclic by construction).
        indeg = {t: len(self.preds[t]) for t in comb_tids}
        level: Dict[int, int] = {}
        ready = [t for t in comb_tids if indeg[t] == 0]
        for t in ready:
            level[t] = 0
        order: List[int] = []
        queue = list(ready)
        while queue:
            t = queue.pop()
            order.append(t)
            for s in self.succs[t]:
                indeg[s] -= 1
                level[s] = max(level.get(s, 0), level[t] + 1)
                if indeg[s] == 0:
                    queue.append(s)
        if len(order) != len(comb_tids):
            raise SimulationError(
                "internal: task merge produced a cyclic task graph"
            )
        order.sort(key=lambda t: level[t])
        self.comb_topo = order
        nlv = max(level.values()) + 1 if level else 0
        self.comb_levels = [[] for _ in range(nlv)]
        for t in order:
            self.tasks[t].level = level[t]
            self.comb_levels[level[t]].append(t)
        self.seq_tasks = [t.tid for t in self.tasks if t.kind is NodeKind.SEQ]

    # -- introspection ---------------------------------------------------------

    def task_reads(self, tid: int) -> Set[str]:
        """Signal/memory names task ``tid`` reads (its activity trigger set).

        A SEQ/MEMW task's clock is *not* a read: edge detection is the
        simulator's job, and including it would mark every sequential
        task dirty on each toggle, defeating conditional replay.
        """
        task = self.tasks[tid]
        out: Set[str] = set()
        for nid in task.nodes:
            node = self.graph.nodes[nid]
            out.update(node.reads)
            if node.clock is not None:
                out.discard(node.clock)
        return out

    def task_writes(self, tid: int) -> Set[str]:
        """Signal/memory names task ``tid`` drives."""
        return {self.graph.nodes[nid].target for nid in self.tasks[tid].nodes}

    @property
    def n_comb_tasks(self) -> int:
        return len(self.comb_topo)

    def validate_cover(self) -> None:
        """Check every RTL node belongs to exactly one task."""
        seen: Set[int] = set()
        for t in self.tasks:
            for nid in t.nodes:
                if nid in seen:
                    raise SimulationError(f"node {nid} assigned to two tasks")
                seen.add(nid)
        expected = {n.nid for n in self.graph.nodes}
        if seen != expected:
            missing = sorted(expected - seen)[:5]
            raise SimulationError(f"nodes not covered by any task: {missing}")

    def level_widths(self) -> List[int]:
        """Concurrent kernels available per level (Fig. 14's parallelism)."""
        return [len(lv) for lv in self.comb_levels]

    def max_concurrency(self) -> int:
        return max(self.level_widths(), default=0)

    def stats(self) -> Dict[str, float]:
        widths = self.level_widths()
        comb = [self.tasks[t] for t in self.comb_topo]
        return {
            "comb_tasks": len(comb),
            "seq_tasks": len(self.seq_tasks),
            "levels": len(self.comb_levels),
            "max_width": max(widths, default=0),
            "avg_width": (sum(widths) / len(widths)) if widths else 0.0,
            "avg_task_nodes": (
                sum(len(t.nodes) for t in comb) / len(comb) if comb else 0.0
            ),
        }

    def to_dot(self, max_tasks: int = 60) -> str:
        """Render the comb task DAG as Graphviz DOT (Fig. 14 style)."""
        lines = ["digraph taskgraph {", "  rankdir=TB;", "  node [shape=box];"]
        shown = set(self.comb_topo[:max_tasks])
        for t in self.comb_topo:
            if t not in shown:
                continue
            task = self.tasks[t]
            lines.append(
                f'  t{t} [label="task_{t}\\n{len(task.nodes)} nodes, '
                f'w={task.weight:.0f}"];'
            )
        for t in shown:
            for s in self.succs.get(t, ()):
                if s in shown:
                    lines.append(f"  t{t} -> t{s};")
        lines.append("}")
        return "\n".join(lines)
