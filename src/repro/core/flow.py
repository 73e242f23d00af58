"""The end-to-end RTLflow pipeline (Fig. 3).

``RTLFlow`` chains every stage: preprocess/parse → elaborate (module
inlining, constant propagation) → lower → RTL graph → partition (default
weights or MCMC) → a compiled model whose lowerings (fused programs,
per-task kernels) are generated on first use, and hands out batch
simulators and stimulus generators.

Typical use::

    flow = RTLFlow.from_source(verilog_text, top="counter")
    sim = flow.simulator(n=1024)                    # fused CUDA-Graph engine
    stim = flow.random_stimulus(n=1024, cycles=10_000, seed=1)
    outs = sim.run(stim)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from repro.core.codegen import CompiledModel
from repro.core.simulator import DEFAULT_EXECUTOR, BatchSimulator
from repro.elaborate.elaborator import elaborate
from repro.elaborate.symexec import LoweredDesign, lower
from repro.gpu.device import SimulatedDevice
from repro.partition.merge import DEFAULT_TARGET_WEIGHT, partition
from repro.partition.taskgraph import TaskGraph
from repro.partition.weights import WeightVector
from repro.rtlir.build import build_graph
from repro.rtlir.graph import RtlGraph
from repro.stimulus.batch import StimulusBatch
from repro.stimulus.generator import directed_batch, random_batch
from repro.verilog.parser import parse_source

if TYPE_CHECKING:  # lint and the MCMC sampler are imported by their first user
    from repro.lint import LintReport
    from repro.partition.mcmc import MCMCResult


class RTLFlow:
    """One design, transpiled once, simulated many ways."""

    def __init__(self, graph: RtlGraph):
        self.graph = graph
        self._models: Dict[tuple, CompiledModel] = {}
        self.mcmc_result: Optional["MCMCResult"] = None
        self._mcmc_weights: Optional[WeightVector] = None
        # Set by from_source when the embedded lint pass runs (see
        # ``lint_report``); both stay None when the flow was built
        # directly from a graph or with lint=False.
        self._lint_report: Optional["LintReport"] = None
        self._lint_pending: Optional[tuple] = None

    @property
    def lint_report(self) -> Optional["LintReport"]:
        """The embedded lint pass's report: error-severity rules ran in
        ``from_source``; the warning and info rules run on first read,
        over the artifacts ``from_source`` kept."""
        if self._lint_pending is not None:
            from repro.lint import lint_artifacts

            ctx, text = self._lint_pending
            self._lint_pending = None
            lint_artifacts(ctx, text=text, errors=False, into=self._lint_report)
        return self._lint_report

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_source(
        cls,
        text: str,
        top: str,
        defines: Optional[Mapping[str, str]] = None,
        optimize: bool = True,
        filename: str = "<input>",
        lint: bool = True,
    ) -> "RTLFlow":
        """Parse + elaborate ``text``.

        ``optimize`` enables the inherited Verilator-style passes (copy
        propagation, dead-code elimination, inverter pushing); disable it
        to keep every named signal observable via ``sim.get``.

        ``lint`` runs the static-analysis rule pack over the build
        artifacts: error-severity findings raise
        :class:`~repro.utils.errors.LintError` (a structurally bad design
        is never silently simulated); warnings collect on
        ``flow.lint_report``, computed on its first read.  ``// repro
        lint_off RULE`` comments in the source waive findings (see
        :mod:`repro.lint`).
        """
        from repro.elaborate.optimize import optimize_design

        unit = parse_source(text, filename, defines=dict(defines) if defines else None)
        flat = elaborate(unit, top)
        lowered = lower(flat)
        optimized = optimize_design(lowered) if optimize else None
        graph = build_graph(optimized if optimized is not None else lowered)
        flow = cls(graph)
        if lint:
            from repro.lint import LintContext, lint_artifacts
            from repro.utils.errors import LintError

            ctx = LintContext(
                top=top,
                filename=filename,
                unit=unit,
                flat=flat,
                lowered=lowered,
                optimized=optimized,
                graph=graph,
            )
            report = lint_artifacts(ctx, text=text, errors=True)
            if report.errors:
                first = report.errors[0]
                raise LintError(
                    f"lint: [{first.rule_id}] {first.message}"
                    + (
                        f" (+{len(report.errors) - 1} more error(s))"
                        if len(report.errors) > 1
                        else ""
                    ),
                    diagnostics=report.errors,
                    filename=first.loc.filename if first.loc else filename,
                    line=first.loc.line if first.loc else 0,
                    col=first.loc.col if first.loc else 0,
                )
            flow._lint_report = report
            flow._lint_pending = (ctx, text)
        return flow

    @classmethod
    def from_files(
        cls,
        paths: Sequence[str],
        top: str,
        defines: Optional[Mapping[str, str]] = None,
        optimize: bool = True,
        lint: bool = True,
    ) -> "RTLFlow":
        chunks = []
        for p in paths:
            with open(p, "r", encoding="utf-8") as fh:
                chunks.append(fh.read())
        filename = paths[0] if len(paths) == 1 else "<input>"
        return cls.from_source(
            "\n".join(chunks), top, defines, optimize,
            filename=filename, lint=lint,
        )

    @property
    def design(self) -> LoweredDesign:
        return self.graph.design

    # -- transpilation -----------------------------------------------------------

    def taskgraph(
        self,
        weights: Optional[WeightVector] = None,
        target_weight: float = DEFAULT_TARGET_WEIGHT,
        strategy: str = "levelpack",
        use_mcmc: bool = False,
    ) -> TaskGraph:
        if use_mcmc:
            if weights is not None:
                raise ValueError("pass either weights or use_mcmc, not both")
            weights = self.mcmc_weights()
        return partition(
            self.graph, weights=weights, target_weight=target_weight, strategy=strategy
        )

    def compile(
        self,
        weights: Optional[WeightVector] = None,
        target_weight: float = DEFAULT_TARGET_WEIGHT,
        strategy: str = "levelpack",
        use_mcmc: bool = False,
    ) -> CompiledModel:
        """Partition into a model (cached per configuration).

        Nothing is generated yet: ``model.fused()`` and the per-task
        module (``model.tasks()``) are each built by their first user,
        so a default simulator never pays for the per-task module.
        """
        key = (
            "mcmc" if use_mcmc else (id(weights) if weights is not None else "default"),
            target_weight,
            strategy,
        )
        if key not in self._models:
            tg = self.taskgraph(weights, target_weight, strategy, use_mcmc)
            self._models[key] = CompiledModel(tg)
        return self._models[key]

    # -- MCMC partition tuning ------------------------------------------------------

    def optimize_partition(
        self,
        n_stimulus: int = 256,
        cycles: int = 64,
        max_iter: int = 150,
        max_unimproved: int = 30,
        target_weight: float = DEFAULT_TARGET_WEIGHT,
        seed: int = 0,
    ) -> "MCMCResult":
        """Run the GPU-aware MCMC sampler and remember the best weights."""
        from repro.partition.mcmc import Estimator, MCMCPartitioner

        est = Estimator(self.graph, n_stimulus=n_stimulus, cycles=cycles, seed=seed)
        opt = MCMCPartitioner(
            self.graph,
            estimator=est,
            target_weight=target_weight,
            seed=seed,
            max_iter=max_iter,
            max_unimproved=max_unimproved,
        )
        self.mcmc_result = opt.optimize()
        self._mcmc_weights = self.mcmc_result.weights
        return self.mcmc_result

    def mcmc_weights(self) -> WeightVector:
        if self._mcmc_weights is None:
            self.optimize_partition()
        assert self._mcmc_weights is not None
        return self._mcmc_weights

    # -- simulation --------------------------------------------------------------

    def simulator(
        self,
        n: int,
        executor: str = DEFAULT_EXECUTOR,
        device: Optional[SimulatedDevice] = None,
        use_mcmc: bool = False,
        target_weight: float = DEFAULT_TARGET_WEIGHT,
        strategy: str = "levelpack",
    ) -> BatchSimulator:
        """Build a batch simulator for ``n`` stimulus.

        ``executor`` picks the replay engine (see
        :func:`repro.core.simulator.make_executor`): ``"graph-fused"``
        (flat fused programs, the default), the paper's Table 4 pair
        ``"graph"``/``"stream"``, or ``"graph-conditional"``
        (activity-aware dirty-set replay that skips quiescent tasks —
        see docs/activity.md).
        """
        model = self.compile(
            target_weight=target_weight, strategy=strategy, use_mcmc=use_mcmc
        )
        return BatchSimulator(model, n, executor=executor, device=device)

    # -- stimulus ----------------------------------------------------------------

    def random_stimulus(self, n: int, cycles: int, seed: int = 0, **kw) -> StimulusBatch:
        return random_batch(self.design, n, cycles, seed=seed, **kw)

    def directed_stimulus(
        self, patterns, n: int, cycles: int, seed: int = 0
    ) -> StimulusBatch:
        return directed_batch(self.design, patterns, n, cycles, seed=seed)
