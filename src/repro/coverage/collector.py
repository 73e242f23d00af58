"""Coverage collector bound to a batch simulator.

Wraps a :class:`~repro.core.simulator.BatchSimulator` (or the pipeline
simulator's per-group simulators) and samples toggle coverage each cycle::

    sim = flow.simulator(n=4096)
    cov = CoverageCollector(sim)                   # all non-clock signals
    for c in range(cycles):
        sim.cycle(stim.inputs_at(c))
        cov.sample()
    print(cov.report().summary())
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from repro.coverage.toggle import CoverageReport, ToggleCoverage
from repro.utils.errors import SimulationError

_CLOCK_RE = re.compile(r"(^|[._])(clk|clock|ck)\w*$", re.IGNORECASE)


class CoverageCollector:
    """Samples toggle coverage from a batch simulator each cycle."""
    def __init__(
        self,
        sim,
        signals: Optional[Iterable[str]] = None,
        include_internal: bool = True,
    ):
        """``sim`` is any simulator with ``.get(name)`` and a ``.model``.

        ``signals`` restricts collection; by default every non-clock
        signal (optionally only ports with ``include_internal=False``).
        """
        design = sim.model.design
        if signals is None:
            pool = design.signals.values()
            names = [
                s.name
                for s in pool
                if not _CLOCK_RE.search(s.name)
                and (include_internal or s.kind in ("input", "output"))
            ]
        else:
            names = list(signals)
            unknown = [n for n in names if n not in design.signals]
            if unknown:
                raise SimulationError(f"unknown signals for coverage: {unknown}")
        widths = {n: design.signals[n].width for n in names}
        self.sim = sim
        self.toggle = ToggleCoverage(widths)

    def sample(self) -> None:
        self.toggle.sample({n: self.sim.get(n) for n in self.toggle.widths})

    def merge(self, other: "CoverageCollector") -> "CoverageCollector":
        """Fold another collector's coverage in (cross-shard merge).

        The collectors must watch the same signal set (e.g. two shards of
        one campaign, built from the same design with the same options).
        Lane counts add and cycles take the max, so merging every shard's
        collector equals the whole-batch collector — see
        :meth:`ToggleCoverage.merge`.
        """
        self.toggle.merge(other.toggle)
        return self

    def report(self) -> CoverageReport:
        return self.toggle.report()

    def run(self, stim, cycles: Optional[int] = None) -> CoverageReport:
        """Convenience: drive the simulator's ``run`` and sample after
        every cycle from its ``progress`` hook."""
        self.sim.run(stim, cycles=cycles, progress=lambda c: self.sample())
        return self.report()
