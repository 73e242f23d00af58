"""The partitioning weight function (Eq. 1).

``weight_sum(task) = sum_{t in T} w_t * N_t`` where T is the set of the
top-k most frequently appearing RTL node types in the design, ``w_t`` the
(sampled) weight of type t and ``N_t`` the number of such nodes in the
task.  Node types not in T count with weight 1, so a task's weight never
collapses to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.rtlir.graph import RtlGraph, RtlNode

DEFAULT_TOP_K = 30

# Hard-coded per-op costs in the spirit of Verilator's static instruction
# estimates (§3.2.1: "hard-coded parameters to estimate the cost of
# clustering nodes in terms of CPU instructions").  Used by the default
# (non-MCMC) partitioner.
VERILATOR_STYLE_COSTS: Dict[str, float] = {
    "bin:*": 3.0,
    "bin:/": 16.0,
    "bin:%": 16.0,
    "bin:**": 20.0,
    "arrsel": 4.0,
    "mux": 2.0,
    "concat": 2.0,
    "repeat": 2.0,
    "const": 0.0,
    "varref": 0.5,
}


@dataclass
class WeightVector:
    """A sampled weight assignment over the top-k op types."""

    types: List[str]
    values: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def ones(cls, graph: RtlGraph, k: int = DEFAULT_TOP_K) -> "WeightVector":
        """Algorithm 1 line 5: initialize every weight to one."""
        types = graph.top_op_types(k)
        return cls(types, {t: 1.0 for t in types})

    @classmethod
    def verilator_default(cls, graph: RtlGraph, k: int = DEFAULT_TOP_K) -> "WeightVector":
        """The hard-coded baseline (RTLflow^-g in Table 3)."""
        types = graph.top_op_types(k)
        return cls(
            types, {t: VERILATOR_STYLE_COSTS.get(t, 1.0) for t in types}
        )

    def copy(self) -> "WeightVector":
        return WeightVector(list(self.types), dict(self.values))

    def random_increase(self, rng: np.random.Generator, step: float = 1.0) -> str:
        """Algorithm 1 line 7: randomly increase one weight.

        Returns the op type whose weight changed (useful for logging).
        """
        t = self.types[int(rng.integers(len(self.types)))]
        self.values[t] = self.values.get(t, 1.0) + step
        return t

    def node_weight(self, node: RtlNode) -> float:
        total = 0.0
        for t, cnt in node.op_hist.items():
            total += self.values.get(t, 1.0) * cnt
        return max(1.0, total)

    def weight_sum(self, nodes: List[RtlNode]) -> float:
        """Eq. 1 over a merged task."""
        return sum(self.node_weight(n) for n in nodes)
