"""Scalar (single-stimulus) code generation — the "Verilator column".

Transpiles the RTL graph into straight-line scalar Python (one statement
per node, Python ints, masks at stores) exactly the way Verilator
transpiles to C++ (Listing 2).  The generated module provides:

* ``comb_all(S, M)`` — the fully inlined combinational settle,
* ``seq_all_<k>(S, M)`` — next-state compute + commit + memory writes for
  clock domain k,
* per-node functions ``c<nid>``/``s<nid>``/``w<nid>`` used by the
  event-driven (ESSENT-like) engine so both baselines pay identical
  per-statement costs and differ only in scheduling.

The emitted source doubles as the Verilator-side artifact for the Table 1
transpilation metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.rtlir.graph import NodeKind, RtlGraph
from repro.utils import bitvec as bv
from repro.utils.errors import SimulationError
from repro.verilog import ast_nodes as A


class ScalarExprCodegen:
    """Expression -> scalar Python source (mirrors reference.eval_expr)."""

    def __init__(self, graph: RtlGraph, slot_of: Dict[str, int], mem_index: Dict[str, int]):
        self.graph = graph
        self.design = graph.design
        self.slot_of = slot_of
        self.mem_index = mem_index

    def emit(self, e: A.Expr) -> str:
        if isinstance(e, A.Number):
            return str(e.value)
        if isinstance(e, A.Ident):
            return f"S[{self.slot_of[e.name]}]"
        if isinstance(e, A.Unary):
            x = self.emit(e.operand)
            op = e.op
            if op == "!":
                return f"(0 if {x} else 1)"
            if op == "~":
                return f"((~{x}) & {bv.mask(e.ctx_width)})"
            if op == "-":
                return f"((-{x}) & {bv.mask(e.ctx_width)})"
            if op == "+":
                return x
            w = e.operand.width
            full = bv.mask(w)
            if op == "&":
                return f"(1 if ({x}) == {full} else 0)"
            if op == "|":
                return f"(1 if ({x}) != 0 else 0)"
            if op == "^":
                return f"(bin({x}).count('1') & 1)"
            if op == "~&":
                return f"(0 if ({x}) == {full} else 1)"
            if op == "~|":
                return f"(0 if ({x}) != 0 else 1)"
            if op == "~^":
                return f"(1 - (bin({x}).count('1') & 1))"
            raise SimulationError(f"unknown unary {op!r}")
        if isinstance(e, A.Binary):
            op = e.op
            l = self.emit(e.left)
            r = self.emit(e.right)
            m = bv.mask(e.ctx_width)
            if op == "+":
                return f"((({l}) + ({r})) & {m})"
            if op == "-":
                return f"((({l}) - ({r})) & {m})"
            if op == "*":
                return f"((({l}) * ({r})) & {m})"
            if op == "/":
                return f"(0 if ({r}) == 0 else ({l}) // ({r}))"
            if op == "%":
                return f"(0 if ({r}) == 0 else ({l}) % ({r}))"
            if op == "**":
                return f"pow({l}, {r}, {m + 1})"
            if op in ("<<", "<<<"):
                # Amounts at/past the context width flush (wide-safe bound).
                return (
                    f"((0 if ({r}) >= {e.ctx_width} else (({l}) << ({r}))) & {m})"
                )
            if op in (">>", ">>>"):
                return f"(0 if ({r}) >= {e.ctx_width} else (({l}) >> ({r})))"
            if op == "&":
                return f"(({l}) & ({r}))"
            if op == "|":
                return f"(({l}) | ({r}))"
            if op == "^":
                return f"(({l}) ^ ({r}))"
            if op in ("~^", "^~"):
                return f"((~(({l}) ^ ({r}))) & {m})"
            if op in ("==", "==="):
                return f"(1 if ({l}) == ({r}) else 0)"
            if op in ("!=", "!=="):
                return f"(1 if ({l}) != ({r}) else 0)"
            if op in ("<", "<=", ">", ">="):
                pyop = op
                return f"(1 if ({l}) {pyop} ({r}) else 0)"
            if op == "&&":
                return f"(1 if (({l}) and ({r})) else 0)"
            if op == "||":
                return f"(1 if (({l}) or ({r})) else 0)"
            raise SimulationError(f"unknown binary {op!r}")
        if isinstance(e, A.Ternary):
            return (
                f"(({self.emit(e.then)}) if ({self.emit(e.cond)}) "
                f"else ({self.emit(e.other)}))"
            )
        if isinstance(e, A.Concat):
            # Parts are canonical: the result is bounded by the concat's
            # self width, so no modulo is needed (wide-safe).
            acc = self.emit(e.parts[0])
            for p in e.parts[1:]:
                acc = f"((({acc}) << {p.width}) | ({self.emit(p)}))"
            return acc
        if isinstance(e, A.Repeat):
            count = getattr(e, "_count_i")
            w = e.value.width
            inner = self.emit(e.value)
            acc = f"({inner})"
            for _ in range(count - 1):
                acc = f"((({acc}) << {w}) | ({inner}))"
            return acc
        if isinstance(e, A.Index):
            idx = self.emit(e.index)
            if e.is_memory:
                mi = self.mem_index[e.base]
                depth = self.design.memories[e.base].depth
                return f"(M[{mi}][{idx}] if ({idx}) < {depth} else 0)"
            x = f"S[{self.slot_of[e.base]}]"
            bw = self.design.signals[e.base].width
            return f"((({x}) >> ({idx})) & 1 if ({idx}) < {bw} else 0)"
        if isinstance(e, A.PartSelect):
            lsb = getattr(e, "_lsb_i")
            x = f"S[{self.slot_of[e.base]}]"
            return f"((({x}) >> {lsb}) & {bv.mask(e.width)})"
        if isinstance(e, A.IndexedPartSelect):
            w = getattr(e, "_width_i")
            sig_lsb = getattr(e, "_base_lsb_i", 0)
            back = (w - 1 if e.descending else 0) + sig_lsb
            x = f"S[{self.slot_of[e.base]}]"
            bw = self.design.signals[e.base].width
            pos = f"(({self.emit(e.start)}) - {back})" if back else f"({self.emit(e.start)})"
            return (
                f"(((({x}) >> ({pos})) & {bv.mask(w)}) "
                f"if 0 <= ({pos}) < {bw} else 0)"
            )
        raise SimulationError(f"cannot generate scalar code for {type(e).__name__}")


@dataclass
class ScalarModelSpec:
    """Everything needed to rebuild the scalar simulator (all fields
    are picklable)."""

    top: str
    source: str
    slot_of: Dict[str, int]
    widths: Dict[str, int]
    mem_index: Dict[str, int]
    mem_depths: List[int]
    mem_widths: List[int]
    mem_names: List[str]
    input_names: List[str]
    output_names: List[str]
    clock: Optional[str]
    # (clock, edge) per sequential domain index.
    domains: List[Tuple[str, str]]
    n_slots: int
    transpile_seconds: float = 0.0
    # Node-level metadata for the event-driven engine.
    comb_order: List[int] = field(default_factory=list)
    node_target_slot: Dict[int, int] = field(default_factory=dict)
    node_reads: Dict[int, List[str]] = field(default_factory=dict)
    seq_nodes_by_domain: Dict[int, List[int]] = field(default_factory=dict)
    memw_nodes_by_domain: Dict[int, List[int]] = field(default_factory=dict)
    # Memory-write node -> index of its memory in the M list.
    node_mem_index: Dict[int, int] = field(default_factory=dict)


def generate_scalar_model(graph: RtlGraph) -> ScalarModelSpec:
    """Transpile ``graph`` to the scalar simulation module."""
    t0 = time.perf_counter()
    design = graph.design
    slot_of = {name: i for i, name in enumerate(design.signals)}
    mem_names = list(design.memories)
    mem_index = {name: i for i, name in enumerate(mem_names)}
    gen = ScalarExprCodegen(graph, slot_of, mem_index)

    lines: List[str] = [
        '"""Scalar RTL simulation code transpiled by repro.baselines.',
        "",
        "Straight-line full-cycle evaluation for a single stimulus",
        '(the Verilator-style C++ analog; see Listing 2 of the paper)."""',
        "",
    ]

    # Per-node functions (for the event-driven engine).
    for node in graph.comb_nodes:
        slot = slot_of[node.target]
        m = bv.mask(design.signals[node.target].width)
        lines.append(f"def c{node.nid}(S, M):")
        lines.append(f"    S[{slot}] = ({gen.emit(node.expr)}) & {m}")
        lines.append("")
    for node in graph.seq_nodes:
        m = bv.mask(design.signals[node.target].width)
        lines.append(f"def s{node.nid}(S, M):")
        lines.append(f"    return ({gen.emit(node.expr)}) & {m}")
        lines.append("")
    for node in graph.memw_nodes:
        mw = design.memories[node.target]
        lines.append(f"def w{node.nid}(S, M):")
        lines.append(
            f"    return (({gen.emit(node.cond)}), ({gen.emit(node.addr)}), "
            f"(({gen.emit(node.expr)}) & {bv.mask(mw.width)}))"
        )
        lines.append("")

    # Fully inlined comb settle.
    lines.append("def comb_all(S, M):")
    if graph.comb_order:
        for nid in graph.comb_order:
            node = graph.nodes[nid]
            slot = slot_of[node.target]
            m = bv.mask(design.signals[node.target].width)
            lines.append(f"    S[{slot}] = ({gen.emit(node.expr)}) & {m}")
    else:
        lines.append("    pass")
    lines.append("")

    # Per-domain sequential evaluation: NBA temporaries, then commit.
    domains: List[Tuple[str, str]] = []
    seq_by_domain: Dict[int, List[int]] = {}
    memw_by_domain: Dict[int, List[int]] = {}
    for node in graph.seq_nodes + graph.memw_nodes:
        key = (node.clock or "", node.edge)
        if key not in domains:
            domains.append(key)
    for k, key in enumerate(domains):
        seq_by_domain[k] = [
            n.nid for n in graph.seq_nodes if (n.clock or "", n.edge) == key
        ]
        memw_by_domain[k] = [
            n.nid for n in graph.memw_nodes if (n.clock or "", n.edge) == key
        ]
        lines.append(f"def seq_all_{k}(S, M):")
        body_emitted = False
        for i, nid in enumerate(seq_by_domain[k]):
            node = graph.nodes[nid]
            m = bv.mask(design.signals[node.target].width)
            lines.append(f"    t{i} = ({gen.emit(node.expr)}) & {m}")
            body_emitted = True
        for j, nid in enumerate(memw_by_domain[k]):
            node = graph.nodes[nid]
            mw = design.memories[node.target]
            lines.append(f"    mw{j} = w{nid}(S, M)")
            body_emitted = True
        for i, nid in enumerate(seq_by_domain[k]):
            node = graph.nodes[nid]
            lines.append(f"    S[{slot_of[node.target]}] = t{i}")
        for j, nid in enumerate(memw_by_domain[k]):
            node = graph.nodes[nid]
            mi = mem_index[node.target]
            depth = design.memories[node.target].depth
            lines.append(
                f"    if mw{j}[0] and mw{j}[1] < {depth}: "
                f"M[{mi}][mw{j}[1]] = mw{j}[2]"
            )
        if not body_emitted:
            lines.append("    pass")
        lines.append("")

    source = "\n".join(lines)
    elapsed = time.perf_counter() - t0

    return ScalarModelSpec(
        top=design.top,
        source=source,
        slot_of=slot_of,
        widths={s.name: s.width for s in design.signals.values()},
        mem_index=mem_index,
        mem_depths=[design.memories[n].depth for n in mem_names],
        mem_widths=[design.memories[n].width for n in mem_names],
        mem_names=mem_names,
        input_names=[s.name for s in design.inputs],
        output_names=[s.name for s in design.outputs],
        clock=(design.clocks() or [None])[0],
        domains=domains,
        n_slots=len(slot_of),
        transpile_seconds=elapsed,
        comb_order=list(graph.comb_order),
        node_target_slot={
            n.nid: slot_of[n.target]
            for n in graph.nodes
            if n.kind in (NodeKind.COMB, NodeKind.SEQ)
        },
        node_reads={n.nid: list(n.reads) for n in graph.nodes},
        seq_nodes_by_domain=seq_by_domain,
        memw_nodes_by_domain=memw_by_domain,
        node_mem_index={n.nid: mem_index[n.target] for n in graph.memw_nodes},
    )
