"""The multi-stimulus batch simulator (the runtime of Listing 1, batched).

Drives a :class:`~repro.core.codegen.CompiledModel` over a
:class:`~repro.core.memory.DeviceArrays` batch through one of the GPU
executors.  One instance simulates N stimulus simultaneously; the
stimulus axis is the vectorized numpy axis.
"""

from __future__ import annotations

import hashlib
import time
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core import kernels as rt
from repro.core.codegen import CompiledModel
from repro.core.memory import PACKED_POOL, DeviceArrays
from repro.gpu.device import SimulatedDevice
from repro.gpu.executor import Executor
from repro.gpu.graphexec import CudaGraphExecutor, FusedProgramExecutor
from repro.gpu.stream import StreamExecutor
from repro.obs import get_metrics, get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.resilience.faults import (
    REASON_DIV_ZERO,
    REASON_MEM_OOB,
    REASON_STIMULUS,
    LaneQuarantine,
    LaneStimulusError,
)
from repro.utils import bitvec as bv
from repro.utils import packbits as pk
from repro.utils.errors import SimulationError
from repro.utils.timing import Stopwatch

ArrayLike = Union[int, np.ndarray, Sequence[int]]


#: The product engine: every entry point (this factory, the simulators,
#: ``RTLFlow.simulator``, ``CampaignSpec``, the CLI, the paper benches)
#: reads its default from here.
DEFAULT_EXECUTOR = "graph-fused"

#: Everything :func:`make_executor` accepts.  ``graph`` and ``stream``
#: are the paper's Table 4 contrast, ``sanitize`` the product's fused
#: programs under runtime write-set checks (``repro run --verify``).
EXECUTOR_KINDS = (DEFAULT_EXECUTOR, "graph", "stream", "sanitize")


def check_executor(kind: str) -> None:
    """Reject an unknown executor kind."""
    if kind not in EXECUTOR_KINDS:
        raise SimulationError(
            f"unknown executor kind {kind!r}; accepted kinds: "
            + ", ".join(EXECUTOR_KINDS)
        )


def check_run_options(trace_every: int, stop: Optional[str], stop_mode: str,
                      stop_check_every: int, start_cycle: int = 0,
                      cycles: Optional[int] = None) -> None:
    """Reject :meth:`BatchSimulator.run` options no run could honour:
    a negative ``cycles``, ``trace_every`` or ``start_cycle``, a
    ``stop_mode`` other than 'all'/'any', or a ``stop`` signal polled
    every ``stop_check_every <= 0`` cycles."""
    if cycles is not None and cycles < 0:
        raise SimulationError(f"cycles must be >= 0, not {cycles}")
    if start_cycle < 0:
        raise SimulationError(f"start_cycle must be >= 0, not {start_cycle}")
    if trace_every < 0:
        raise SimulationError(f"trace_every must be >= 0, not {trace_every}")
    if stop_mode not in ("all", "any"):
        raise SimulationError(f"stop_mode must be 'all' or 'any', not {stop_mode!r}")
    if stop is not None and stop_check_every <= 0:
        raise SimulationError(
            f"stop_check_every must be positive, not {stop_check_every}"
        )


def make_executor(
    model: CompiledModel,
    device: SimulatedDevice,
    kind: str = DEFAULT_EXECUTOR,
) -> Executor:
    """Executor factory over :data:`EXECUTOR_KINDS`.

    'graph-fused' (the default) is the flat-program engine: the whole
    comb phase (and each clock domain) runs as one straight-line
    compiled program — no per-task dispatch remains (see
    :class:`~repro.gpu.graphexec.FusedProgramExecutor` and
    docs/fusion.md); 'sanitize' steps those programs under write-set
    checks (:class:`~repro.verify.hazards.CheckedFusedExecutor`).  The
    rest replay the per-task module (one program per macro task, from
    the same emitter, on the same layout), built on first use: 'graph'
    and 'stream' are the paper's Table 4 pair.
    """
    check_executor(kind)
    if kind == DEFAULT_EXECUTOR:
        return FusedProgramExecutor(model, device)
    if kind == "graph":
        return CudaGraphExecutor(model, device)
    if kind == "stream":
        return StreamExecutor(model, device)
    # Lazy import: repro.verify pulls in the lint registry, which
    # plain simulation never needs.
    from repro.verify.hazards import CheckedFusedExecutor

    return CheckedFusedExecutor(model, device)


_POOL_BITS = (8, 16, 32, 64)

# The chunked run's stand-in for an edge without a clock domain:
# (domain, seq program).
_NO_STEP = (None, None)


class BatchSimulator:
    """Simulates N stimulus of one design simultaneously.

    Clocks are **batch-uniform**: every lane shares one clock level,
    driven through :meth:`set_clock` (writing a per-lane clock vector
    raises at the next evaluation — edge detection is global, so
    divergent lane clocks would be silently ignored otherwise).

    Telemetry: spans and counters go to the session tracer/registry from
    :mod:`repro.obs` (bound at construction; no-ops unless enabled), and
    a per-instance :class:`Stopwatch` always aggregates the Fig. 2
    ``set_inputs``/``evaluate`` split.
    """

    def __init__(
        self,
        model: CompiledModel,
        n: int,
        executor: Union[str, Executor] = DEFAULT_EXECUTOR,
        device: Optional[SimulatedDevice] = None,
        clock: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_isolation: bool = False,
    ):
        self.model = model
        self.n = n
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.device = device or SimulatedDevice(tracer=self.tracer)
        self.executor = (
            make_executor(model, self.device, executor)
            if isinstance(executor, str)
            else executor
        )
        # The model's one layout and its commit bindings, as bound by
        # the executor.
        self.layout = self.executor.layout
        self.mem_writes = self.executor.mem_writes
        self.arrays = DeviceArrays(self.layout, n)
        design = model.design
        self._input_names = {s.name for s in design.inputs}
        self._widths = {s.name: s.width for s in design.signals.values()}
        # (pool, base) -> memory name, for attributing OOB-write faults.
        self._mem_names = {
            (m.pool, m.base): name for name, m in self.layout.mems.items()
        }
        clocks = design.clocks()
        self.clock = clock if clock is not None else (clocks[0] if clocks else None)
        self._prev_clock: Dict[str, int] = {c: 0 for c in clocks}
        # Any named write to a clock (set_input or a direct arrays.write)
        # invalidates the set_clock scalar cache, so edge detection falls
        # back to the per-lane uniformity scan (see _on_host_write).
        self.arrays.write_hook = self._on_host_write
        # Fast clock toggling: a cached pool view plus the two level
        # values, set up below once the layout is known.
        self._clk_fast = None
        if self.clock is not None and self.clock in self._input_names:
            s = self.layout.slot(self.clock)
            if s.pool == PACKED_POOL:
                w = self.arrays.words
                view = self.arrays.pools[PACKED_POOL][
                    s.offset * w : (s.offset + 1) * w
                ]
                self._clk_fast = (view, (pk.zeros(n), pk.ones(n)))
            elif s.limbs == 1:
                view = self.arrays.pools[s.pool][
                    s.offset * n : (s.offset + 1) * n
                ]
                self._clk_fast = (view, (0, 1))
        # Batch-uniform clock levels last written via set_clock; lets
        # edge detection skip the per-lane uniformity scan (see
        # _clock_level).  Invalidated by set_input / checkpoint restore.
        self._clock_scalar: Dict[str, int] = {}
        # The domain list is a property of the compiled model; scanning
        # the task graph twice per cycle is pure hot-loop overhead.
        self._domains: List[Tuple[str, str]] = model.clock_domains()
        # Each domain's commit, built once for both run loops.
        self._commits = {dom: self._build_commit(dom) for dom in self._domains}
        self.stopwatch = Stopwatch()
        self.cycles_run = 0
        # Lane fault isolation (see repro.resilience.faults): when enabled
        # a poisoned lane is quarantined — masked out of input application,
        # register commits and memory commits — instead of aborting the
        # batch.  Surviving lanes stay bit-identical to a fault-free run.
        self.quarantine: Optional[LaneQuarantine] = (
            LaneQuarantine(n) if fault_isolation else None
        )
        if self.metrics.enabled:
            self.metrics.set_gauge("sim.batch_n", n)
            for bits, size, itemsize in zip(
                _POOL_BITS, self.layout.pool_sizes, (1, 2, 4, 8)
            ):
                self.metrics.set_gauge(
                    f"mem.pool{bits}.bytes", size * n * itemsize
                )
            self.metrics.set_gauge(
                "mem.pool1.bytes",
                self.layout.packed_size * self.arrays.words * 8,
            )
            self.metrics.set_gauge(
                "mem.footprint_bytes", self.layout.footprint_bytes(n)
            )

    # -- state access -------------------------------------------------------------

    def set_input(self, name: str, values: ArrayLike) -> None:
        if name not in self._input_names:
            raise SimulationError(f"{name!r} is not an input of the design")
        q = self.quarantine
        if q is not None and not q.all_active and name not in self._prev_clock:
            # Quarantined lanes keep their frozen inputs (clocks stay
            # batch-uniform by contract, so they are never frozen).
            values = self._freeze_masked(name, values)
        self.arrays.write(name, values)

    def _freeze_masked(self, name: str, values: ArrayLike):
        """Merge ``values`` with the current batch so inactive lanes keep
        their last pre-fault input value."""
        cur = self.arrays.read(name)
        act = self.quarantine.active
        if cur.dtype == object:  # wide signal: lanes are Python ints
            if np.isscalar(values) or getattr(np.asarray(values), "ndim", 1) == 0:
                vals = [values] * self.n
            else:
                vals = list(values)
                if len(vals) != self.n:
                    raise SimulationError(
                        f"expected {self.n} lane values for {name!r}, "
                        f"got {len(vals)}"
                    )
            return [v if a else int(c) for v, c, a in zip(vals, cur, act)]
        arr = np.asarray(values)
        if arr.ndim == 0:
            arr = np.full(self.n, arr)
        elif arr.shape[0] != self.n:
            raise SimulationError(
                f"expected {self.n} lane values for {name!r}, got {arr.shape[0]}"
            )
        return np.where(act, arr.astype(cur.dtype, copy=False), cur)

    def set_inputs(self, values: Mapping[str, ArrayLike]) -> None:
        for k, v in values.items():
            self.set_input(k, v)

    def get(self, name: str) -> np.ndarray:
        """Current batch values of a signal, shape (N,)."""
        return self.arrays.read(name)

    def load_memory(self, name: str, values, lane: Optional[int] = None) -> None:
        self.arrays.load_memory(name, values, lane=lane)

    def read_memory(self, name: str, lane: Optional[int] = None) -> np.ndarray:
        return self.arrays.read_memory(name, lane=lane)

    def set_clock(self, value: int) -> None:
        if self.clock is None:
            return
        level = value & 1
        fast = self._clk_fast
        if fast is not None:
            # Hot path: the clock toggles twice per cycle; a direct view
            # assignment skips the generic write machinery (safe because
            # restore() copies into the pools in place, keeping the view
            # valid).
            view, levels = fast
            view[:] = levels[level]
        else:
            self.arrays.write(self.clock, level)
        if self.clock in self._input_names:
            # Input clocks only change via host writes, so remembering
            # the scalar here lets edge detection skip the per-lane
            # uniformity scan twice per cycle.  Any other write path to
            # a clock (set_input, checkpoint restore) invalidates this.
            self._clock_scalar[self.clock] = level

    # -- evaluation ---------------------------------------------------------------

    def _clock_level(self, clock: str) -> int:
        """The batch-uniform level of ``clock``; rejects divergent lanes.

        Edge detection reads one value per clock, so a per-lane clock
        vector would silently ignore every lane but 0 — fail loudly
        instead (clocks are batch-uniform by contract; see class docs).
        A 1-bit clock's uniformity check is a handful of word compares
        instead of an (N,) materialization.
        """
        cached = self._clock_scalar.get(clock)
        if cached is not None:
            return cached
        val = self.arrays.uniform_value(clock)
        if val is None:
            raise SimulationError(
                f"clock {clock!r} has different values across lanes; "
                "clocks are batch-uniform — drive them with set_clock() "
                "or a scalar write"
            )
        return val & 1

    def _triggered_domains(
        self,
    ) -> Tuple[List[Tuple[str, str]], Dict[str, int]]:
        out: List[Tuple[str, str]] = []
        levels: Dict[str, int] = {}
        for clock, edge in self._domains:
            prev = self._prev_clock.get(clock, 0)
            now = levels.get(clock)
            if now is None:
                now = levels[clock] = self._clock_level(clock)
            if edge == "posedge" and prev == 0 and now == 1:
                out.append((clock, edge))
            elif edge == "negedge" and prev == 1 and now == 0:
                out.append((clock, edge))
        return out, levels

    def _quarantine_lanes(
        self, lanes, reason: str, task: Optional[str] = None, detail: str = "",
    ) -> List[int]:
        """Quarantine ``lanes`` (no-op for already-dead ones) and count."""
        fresh = self.quarantine.quarantine(
            lanes, cycle=self.cycles_run, reason=reason, task=task,
            detail=detail,
        )
        if fresh and self.metrics.enabled:
            self.metrics.inc("resilience.lane_faults", len(fresh))
        return fresh

    def _on_div_zero(self, zero: np.ndarray) -> None:
        """bitvec div-fault sink: quarantine lanes that divided by zero."""
        mask = np.atleast_1d(np.asarray(zero))
        if mask.size == self.n:
            lanes = np.nonzero(mask & self.quarantine.active)[0]
        elif mask.size == 1 and bool(mask[0]):
            lanes = self.quarantine.active_lanes()  # uniform zero divisor
        else:
            return  # not a batch-axis mask; cannot attribute to lanes
        if lanes.size:
            self._quarantine_lanes(
                lanes, reason=REASON_DIV_ZERO,
                detail="zero divisor (two-state sentinel result 0)",
            )

    def _build_commit(self, domain: Tuple[str, str]) -> tuple:
        """``domain``'s commit over this simulator's pools: one
        ``(pool, current, shadow)`` pair of flat views per register
        range, and one ``(binding, rt.mem_commit arguments)`` per memory
        write port."""
        arrays, layout, n = self.arrays, self.layout, self.n
        pools = arrays.pools
        regs = []
        for pool_idx, start, count in layout.reg_ranges.get(domain, ()):
            unit = arrays.words if pool_idx == PACKED_POOL else n
            r = layout.reg_counts[pool_idx]
            pool = pools[pool_idx]
            regs.append((
                pool_idx,
                pool[start * unit : (start + count) * unit],
                pool[(r + start) * unit : (r + start + count) * unit],
            ))
        ports = [
            (b, (pools[b.mem_pool], b.mem_base, b.mem_depth, n, arrays.lane,
                 pools[b.cond_pool][b.cond_off * n : (b.cond_off + 1) * n],
                 pools[b.addr_pool][b.addr_off * n : (b.addr_off + 1) * n],
                 pools[b.data_pool][b.data_off * n : (b.data_off + 1) * n]))
            for b in self.mem_writes if (b.clock, b.edge) == domain
        ]
        return regs, ports

    def _commit(self, domain: Tuple[str, str]) -> None:
        """Copy ``domain``'s register shadows over their currents, then
        apply its memory write ports.  Quarantined lanes are masked out
        of both, and an enabled out-of-range write quarantines its lane."""
        regs, ports = self._commits[domain]
        q = self.quarantine
        if q is None or q.all_active:
            for _, cur, nxt in regs:
                cur[:] = nxt
        else:
            active = q.active
            words = pk.pack_bool(active, self.n)
            for pool_idx, cur, nxt in regs:
                if pool_idx == PACKED_POOL:
                    cur = cur.reshape(-1, words.size)
                    cur[:] = pk.blend(cur, nxt.reshape(cur.shape), words)
                else:
                    np.copyto(cur.reshape(-1, self.n), nxt.reshape(-1, self.n),
                              where=active)
        if self.metrics.enabled:
            self._count_commit_bytes(domain)
        for b, args in ports:
            if q is not None:
                # An enabled write beyond the memory depth poisons only
                # its own lane: quarantine it, then mask the write enables
                # so dead lanes never commit (here or in later cycles).
                cond, addr = args[5], args[6]
                oob = (cond != 0) & (addr >= np.uint64(b.mem_depth))
                if oob.any():
                    self._quarantine_lanes(
                        np.nonzero(oob)[0], reason=REASON_MEM_OOB,
                        task=self._mem_names.get((b.mem_pool, b.mem_base)),
                        detail=f"write address beyond depth {b.mem_depth}",
                    )
                if not q.all_active:
                    args = args[:5] + (
                        np.where(q.active, cond, cond.dtype.type(0)),
                    ) + args[6:]
            rt.mem_commit(*args)

    def _count_commit_bytes(self, domain: Tuple[str, str]) -> None:
        """Count one register commit of ``domain`` in the metrics."""
        for pool_idx, cur, _ in self._commits[domain][0]:
            bits = 1 if pool_idx == PACKED_POOL else _POOL_BITS[pool_idx]
            self.metrics.inc(f"mem.pool{bits}.commit_bytes", cur.nbytes)

    # -- checkpointing ------------------------------------------------------------

    def _layout_signature(self) -> str:
        """Fingerprint of the memory layout (pool sizes + every variable's
        placement) so a checkpoint can only restore into the same design."""
        layout = self.layout
        h = hashlib.sha256()
        h.update(repr(layout.pool_sizes).encode())
        h.update(f"packed:{layout.packed_size};".encode())
        for name in sorted(layout.slots):
            s = layout.slots[name]
            h.update(f"{name}:{s.pool}:{s.offset}:{s.limbs};".encode())
        for name in sorted(layout.mems):
            m = layout.mems[name]
            h.update(f"{name}:{m.pool}:{m.base}:{m.depth};".encode())
        return h.hexdigest()

    def save_checkpoint(self) -> dict:
        """Snapshot the complete simulation state (all lanes).

        The checkpoint is a plain dict of numpy arrays plus clock phase —
        picklable, so long regressions can be resumed across processes.
        A layout signature ties it to this design's memory layout.
        The lane-quarantine state rides along (when present) so fault
        isolation resumes exactly where it left off.
        """
        ckpt = {
            "pools": self.arrays.snapshot(),
            "prev_clock": dict(self._prev_clock),
            "cycles_run": self.cycles_run,
            "n": self.n,
            "layout": {
                "pool_sizes": list(self.layout.pool_sizes),
                "signature": self._layout_signature(),
            },
        }
        if self.quarantine is not None:
            ckpt["quarantine"] = self.quarantine.state_dict()
        return ckpt

    def restore_checkpoint(self, ckpt: dict) -> None:
        """Restore a checkpoint taken by :meth:`save_checkpoint`.

        Rejects checkpoints from a different batch size *or* a different
        design: same-``n`` checkpoints of another design would otherwise
        restore silently and corrupt the pools.
        """
        if ckpt.get("n") != self.n:
            raise SimulationError(
                f"checkpoint is for batch size {ckpt.get('n')}, not {self.n}"
            )
        layout = ckpt.get("layout")
        if layout is not None:
            mine = list(self.layout.pool_sizes)
            if (list(layout.get("pool_sizes", ())) != mine
                    or layout.get("signature") != self._layout_signature()):
                raise SimulationError(
                    "checkpoint does not match this design's memory layout "
                    "(was it saved from a different design or partitioning?)"
                )
        self.arrays.restore(ckpt["pools"])
        self._prev_clock = dict(ckpt["prev_clock"])
        self._clock_scalar.clear()
        self.cycles_run = ckpt["cycles_run"]
        qstate = ckpt.get("quarantine")
        if qstate is not None:
            self.quarantine = LaneQuarantine.from_state(qstate)
        elif self.quarantine is not None:
            # Checkpoint predates quarantine state: restore means "as of
            # the snapshot", where no lane had faulted yet.
            self.quarantine = LaneQuarantine(self.n)

    def evaluate(self) -> None:
        """One full-cycle evaluation (edge updates, then comb settle).

        With fault isolation on, a divide-by-zero observer is installed
        around the evaluation so zero-divisor lanes are quarantined (the
        two-state sentinel result 0 is produced either way).
        """
        if self.quarantine is None:
            self._evaluate_inner()
            return
        prev = bv.set_div_fault_sink(self._on_div_zero)
        try:
            self._evaluate_inner()
        finally:
            bv.set_div_fault_sink(prev)

    def _evaluate_inner(self) -> None:
        triggered, levels = self._triggered_domains()
        # seq programs of every triggered domain -> commits -> comb
        # settle (Executor.run_eval); _commit masks quarantined lanes.
        self.executor.run_eval(self.arrays, triggered, self._commit)
        for clock in self._prev_clock:
            # Input clocks can only change via host writes, so the level
            # sampled during edge detection is still current.  Derived
            # clocks may have been recomputed by the comb settle just
            # above — re-read those.
            if clock in self._input_names and clock in levels:
                self._prev_clock[clock] = levels[clock]
            else:
                self._prev_clock[clock] = self._clock_level(clock)

    def cycle(
        self,
        inputs: Union[Mapping[str, ArrayLike], Callable[[], Mapping], None] = None,
    ) -> None:
        """Listing 1's loop body: set inputs, toggle the clock twice.

        ``inputs`` may be a mapping or a zero-argument callable returning
        one — the callable is invoked *inside* the ``set_inputs`` span so
        stimulus decode cost is attributed to input setting (Fig. 2).

        With fault isolation on, a :class:`LaneStimulusError` raised by
        the callable quarantines the offending lane and the fetch is
        retried (the re-fetch sees the decoded values for every other
        lane); without isolation the error propagates.
        """
        if self.tracer.enabled:
            if inputs is not None:
                with self.stopwatch.span("set_inputs"), \
                        self.tracer.span("set_inputs", resource="sim"):
                    self.set_inputs(self._fetch_inputs(inputs))
            with self.stopwatch.span("evaluate"), \
                    self.tracer.span("evaluate", resource="sim"):
                self.set_clock(0)
                self.evaluate()
                self.set_clock(1)
                self.evaluate()
        else:
            # No timeline: accumulate the Fig. 2 split directly into the
            # stopwatch aggregates, skipping span-stack bookkeeping.
            sw = self.stopwatch
            if inputs is not None:
                t0 = time.perf_counter()
                self.set_inputs(self._fetch_inputs(inputs))
                sw.add("set_inputs", time.perf_counter() - t0)
            t0 = time.perf_counter()
            self.set_clock(0)
            self.evaluate()
            self.set_clock(1)
            self.evaluate()
            sw.add("evaluate", time.perf_counter() - t0)
        self.cycles_run += 1
        if self.metrics.enabled:
            self.metrics.inc("sim.cycles")

    def _on_host_write(self, name: Optional[str]) -> None:
        """DeviceArrays write hook: drop a written clock's cached level.

        ``name is None`` is the bulk-invalidation signal (checkpoint
        restore overwrote whole pools): every cached clock scalar is
        stale, so edge detection must fall back to the per-lane
        uniformity scan until set_clock repopulates them.
        """
        if name is None:
            self._clock_scalar.clear()
        else:
            self._clock_scalar.pop(name, None)

    def _stimulus_rows(
        self, stimulus, lo: int, hi: int,
    ) -> Optional[List[Tuple[np.ndarray, np.ndarray, int]]]:
        """Every column of a dense stimulus as its pool view, its rows
        ``[lo, hi)`` as the pool stores them (row ``c`` at index
        ``c - lo``) and its pool index; None when a column needs
        ``set_input``'s per-name dispatch (a clock, a non-input, a column
        wider than 64 bits, or text data).

        A 1-bit column is packed into W-word rows with one
        :func:`~repro.utils.packbits.pack_rows`; a native column is cast
        once with the width mask :meth:`DeviceArrays.write` applies (the
        pool dtype holds the mask, so casting first and masking after
        stores the same), skipping the copy when neither changes
        anything.  Both paths of :meth:`run` copy these rows in, so the
        rows are built once per run.  No column is a clock, so skipping
        the write hook keeps the clock cache valid.
        """
        if stimulus is None:
            return []
        data = getattr(stimulus, "data", None)
        if not isinstance(data, dict):
            return None
        arrays, n, layout = self.arrays, self.n, self.layout
        pools = arrays.pools
        rows = []
        for name, mat in data.items():
            if name not in self._input_names or name in self._prev_clock:
                return None
            try:
                s = layout.slot(name)
            except SimulationError:
                return None
            if (s.limbs != 1 or getattr(mat, "dtype", None) == object
                    or getattr(mat, "ndim", 0) != 2 or mat.shape[1] != n):
                return None
            if s.pool == PACKED_POOL:
                w = arrays.words
                view = pools[PACKED_POOL][s.offset * w : (s.offset + 1) * w]
                cast = pk.pack_rows(mat[lo:hi], n)
            else:
                view = pools[s.pool][s.offset * n : (s.offset + 1) * n]
                cast = np.asarray(mat[lo:hi], dtype=np.uint64).astype(
                    view.dtype, copy=False
                )
                if s.width < 8 * view.itemsize:
                    mask = view.dtype.type(bv.mask(s.width))
                    if np.may_share_memory(cast, mat):
                        cast = cast & mask
                    else:
                        cast &= mask
            rows.append((view, cast, s.pool))
        return rows

    def _copy_rows(self, rows, i: int) -> Mapping[str, ArrayLike]:
        """Row ``i`` of every :meth:`_stimulus_rows` column into its pool
        view, stored as ``set_input`` would store it: a quarantined lane
        keeps its frozen input.  Returns the empty mapping, so
        :meth:`cycle` runs it inside its ``set_inputs`` span."""
        q = self.quarantine
        active = active_words = None
        if q is not None and not q.all_active:
            active = q.active
            active_words = pk.pack_bool(active, self.n)
        for view, mat, pool in rows:
            new = mat[i]
            if active is not None:
                new = (pk.blend(view, new, active_words) if pool == PACKED_POOL
                       else np.where(active, new, view))
            view[:] = new
        return {}

    def _fetch_inputs(self, inputs) -> Mapping[str, ArrayLike]:
        """Resolve the cycle's input mapping, quarantining decode faults."""
        if not callable(inputs):
            return inputs
        while True:
            try:
                return inputs()
            except LaneStimulusError as exc:
                if self.quarantine is None:
                    raise
                fresh = self._quarantine_lanes(
                    [exc.lane], reason=REASON_STIMULUS, detail=str(exc)
                )
                if not fresh:
                    # The same dead lane failed again: the source is not
                    # honoring the quarantine; give up rather than spin.
                    raise SimulationError(
                        f"stimulus decode failed repeatedly for quarantined "
                        f"lane {exc.lane} at cycle {exc.cycle}"
                    ) from exc

    # -- chunked run ----------------------------------------------------------------

    def _chunk_plan(self, rows, base: int) -> Optional[tuple]:
        """What :meth:`run`'s chunked path replays, or None for per-cycle.

        Chunking needs the whole cycle known ahead: the graph-fused
        executor, no tracing, no lane quarantine, every clock domain on
        the simulator's own input clock (the fast clock view), and
        stimulus ``rows`` from :meth:`_stimulus_rows` (their first row
        is cycle ``base``).  The plan holds the clock view and its two
        levels, the rows, the comb program and its arguments, and one
        step per edge.
        """
        ex = self.executor
        if (rows is None or type(ex) is not FusedProgramExecutor
                or self.tracer.enabled or self.device.tracer.enabled
                or self.quarantine is not None or self._clk_fast is None
                or list(self._prev_clock) != [self.clock]
                or any(clk != self.clock for clk, _ in self._domains)):
            return None

        def step(edge: str):
            # One edge's evaluation minus the comb settle: its seq
            # program, then _commit(domain).
            dom = (self.clock, edge)
            if dom not in self._domains:
                return None
            prog = ex.programs.seq.get(dom)
            return dom, (prog.fn if prog is not None else None)

        view, (lo, hi) = self._clk_fast
        return (view, lo, hi, base, [r[:2] for r in rows],
                ex.programs.comb.fn, ex._args(self.arrays), step("negedge"),
                step("posedge"))

    def _chunk_end(
        self, c: int, total: int, hi: int, trace_every: int,
        stop: Optional[str], stop_check_every: int, checkpoint, progress,
    ) -> int:
        """One past the last cycle of the chunk that starts at ``c``: the
        next cycle after which :meth:`run` must call back into Python (a
        stop poll, a trace sample, a due checkpoint, a progress call, or
        ``hi``, the end of the stimulus rows)."""
        if progress is not None:
            return c + 1
        end = hi if c < hi else total
        if trace_every > 0:
            end = min(end, c - c % trace_every + trace_every)
        if stop is not None:
            end = min(end, c - c % stop_check_every + stop_check_every)
        if checkpoint is not None:
            k = checkpoint.cycles_until_due(self.cycles_run)
            if k is not None:
                end = min(end, c + k)
        return end

    def _run_chunk(self, plan: tuple, c0: int, c1: int, apply_rows: bool) -> None:
        """Cycles ``[c0, c1)`` of the chunked path.

        Every cycle takes the steps of :meth:`cycle` in the same order:
        stimulus rows into the pool views, clock 0 and the comb settle
        (after the negedge step once the clock has been high), clock 1,
        the posedge step and the comb settle.  A step is the domain's
        seq program and then :meth:`_commit`, the per-cycle path's own
        commit (which also counts the commit bytes).  Without a negedge
        step the last of these settles runs only on the chunk's last
        cycle: nothing reads the clock-high values before the next
        cycle's clock-low settle rewrites every comb slot, so a chunk
        makes ``cycles + 1`` comb calls instead of ``2 * cycles`` and
        ends in exactly the per-cycle state.  Edge detection, stopwatch,
        device accounting, ``sim.cycles`` and ``cycles_run`` move to the
        chunk end, where each cycle still counts two graph launches (the
        posedge launch holds the seq program and the commit).

        A program that raises leaves the accounting where the per-cycle
        path leaves it: the failing cycle's stimulus write, its completed
        first launch and its commits count; its evaluation time does
        not, nor does the busy time of that first launch.  If the
        failing cycle's clock-low settle did not complete and its
        predecessor's clock-high settle was skipped, that settle is run
        again so the pools hold what :meth:`cycle` leaves.
        """
        clk, lo, hi, base, rows, comb, args, neg, pos = plan
        if not apply_rows:
            rows = ()
        neg_dom, neg_seq = neg or _NO_STEP
        pos_dom, pos_seq = pos or _NO_STEP
        commit = self._commit
        clock = self.clock
        # The first cycle whose clock-high settle runs: every cycle when
        # the next negedge step reads it, else only the chunk's last.
        tail = c0 if neg is not None else c1 - 1
        # A falling edge is a negedge only once the clock has been high.
        armed = neg is not None and self._prev_clock.get(clock, 0) == 1
        perf = time.perf_counter
        set_s = 0.0
        # How far the current cycle got: 1 its rows are in, 2 its first
        # launch is done.
        stage = 0
        c = c0
        completed = False
        start = t = t_in = perf()  # t: the end of the last completed cycle
        try:
            for c in range(c0, c1):
                stage = 0
                if rows:
                    i = c - base
                    for view, mat in rows:
                        view[:] = mat[i]
                    t_in = perf()
                    set_s += t_in - t
                    stage = 1
                clk[:] = lo
                if armed:
                    if neg_seq is not None:
                        neg_seq(*args)
                    commit(neg_dom)
                comb(*args)
                stage = 2
                armed = neg is not None
                clk[:] = hi
                if pos_seq is not None:
                    pos_seq(*args)
                if pos_dom is not None:
                    commit(pos_dom)
                if c >= tail:
                    comb(*args)
                t = perf()
            c, stage, completed = c1, 0, True
        finally:
            done = c - c0
            # The failing cycle's stimulus write is set_inputs time
            # (cycle() adds it before evaluating); its evaluation is not.
            rows_in = bool(rows) and stage >= 1
            set_done = set_s - (t_in - t) if rows_in else set_s
            eval_s = t - start - set_done
            launches = 2 * done + (stage >= 2)
            if launches:
                self.device.record_graph_launches(launches, eval_s)
            if rows and (done or rows_in):
                self.stopwatch.add("set_inputs", set_s, done + rows_in)
            if done:
                self.stopwatch.add("evaluate", eval_s, done)
                self.cycles_run += done
                if self.metrics.enabled:
                    self.metrics.inc("sim.cycles", done)
            if completed:
                self._prev_clock[clock] = 1
                self._clock_scalar[clock] = 1
            else:
                # A program raised: as in cycle(), the clock phase is
                # that of the last completed evaluation.
                self._clock_scalar.pop(clock, None)
                if stage >= 2:
                    self._prev_clock[clock] = 0
                elif done:
                    self._prev_clock[clock] = 1
                if stage < 2 and c0 < c <= tail:
                    # Cycle c - 1's clock-high settle was skipped and
                    # cycle c's clock-low settle did not complete: settle
                    # c - 1 as cycle() did, then put back c's rows and
                    # clock low.
                    for view, mat in rows:
                        view[:] = mat[c - 1 - base]
                    clk[:] = hi
                    comb(*args)
                    for view, mat in rows:
                        view[:] = mat[c - base]
                    clk[:] = lo

    def run(
        self,
        stimulus: "object" = None,
        cycles: Optional[int] = None,
        watch: Optional[Iterable[str]] = None,
        trace_every: int = 0,
        stop: Optional[str] = None,
        stop_mode: str = "all",
        stop_check_every: int = 16,
        checkpoint=None,
        fault_plan=None,
        start_cycle: int = 0,
        progress: Optional[Callable[[int], None]] = None,
        progress_min_interval: float = 0.0,
    ) -> Dict[str, np.ndarray]:
        """Run a batch stimulus.

        ``stimulus`` is a :class:`repro.stimulus.batch.StimulusBatch` (or
        None to hold inputs constant for ``cycles``).  Returns final
        values of the watched signals (default: design outputs); with
        ``trace_every > 0``, per-sample traces of shape (samples, N).

        ``stop`` names a 1-bit signal that ends the run early — Listing
        1's ``while (!sim.stop ...)``.  ``stop_mode='all'`` stops once
        every lane asserts it (e.g. all CPUs halted), ``'any'`` on the
        first lane.  The signal is polled every ``stop_check_every``
        cycles to keep the host/device synchronization cost negligible
        (the batch analog of checking a device-side flag).  Quarantined
        lanes are excluded from the poll — a dead lane can never assert
        (or block) completion — and a batch whose every lane has been
        quarantined ends the run early (counted in the
        ``resilience.batch_dead_stops`` metric) rather than simulating
        dead state to the end.

        Resilience hooks: ``checkpoint`` is a
        :class:`repro.resilience.CheckpointManager` consulted after every
        cycle (its policy decides when a snapshot is actually written);
        ``fault_plan`` is a :class:`repro.resilience.FaultPlan` whose lane
        faults are injected at their scripted cycles; ``start_cycle``
        skips the first cycles of the stimulus (resume: pass the restored
        ``cycles_run``).

        ``progress`` is called with the cycle index after every completed
        cycle (after a due checkpoint has been written, before stop/dead
        polling breaks the loop) — the hook the cluster worker uses for
        heartbeats, per-cycle coverage sampling and crash injection.  It
        must not mutate simulation state.

        ``progress_min_interval`` rate-limits the hook: when > 0, the
        hook fires at most once per that many wall-clock seconds (plus
        always on the final stimulus cycle, so completion is observed).
        On a hot fused run a per-cycle Python callback can dominate the
        loop; a streaming consumer (the campaign service's job-status
        feed) only needs a few samples per second.  The default of 0
        preserves the every-cycle contract above — callers that sample
        coverage or inject faults from the hook must keep it at 0.

        A dense stimulus (see :meth:`_stimulus_rows`) is packed and cast
        into rows once per run, and every cycle copies its row into the
        pool views.  With the graph-fused executor, tracing off, no lane
        quarantine and every clock domain on the simulator's own input
        clock, the cycles between two of these callbacks run as one
        chunk: a plain loop over the compiled programs taking the same
        steps as :meth:`cycle`, with edge detection and accounting at
        the chunk end, except that without a negedge domain the comb
        settle after the posedge commit, which nothing reads before the
        next cycle's settle, runs only on the chunk's last cycle
        (docs/INTERNALS.md §7).  A time-based checkpoint
        policy or any ``progress`` hook makes every cycle a chunk end.
        Everything else runs cycle by cycle, copying the rows inside
        :meth:`cycle`'s ``set_inputs`` span, or fetching
        ``stimulus.inputs_at(c)`` when there are no rows.
        """
        names = list(watch) if watch is not None else [
            s.name for s in self.model.design.outputs
        ]
        check_run_options(trace_every, stop, stop_mode, stop_check_every,
                          start_cycle, cycles)
        for what, name in [("watch", n) for n in names] + [("stop", stop)]:
            if name is not None and name not in self.layout.slots:
                raise SimulationError(f"no signal named {name!r} to {what}")
        total = cycles if cycles is not None else (
            len(stimulus) if stimulus is not None else 0
        )
        if fault_plan is not None and fault_plan.lane_faults \
                and self.quarantine is None:
            self.quarantine = LaneQuarantine(self.n)
        if checkpoint is not None:
            checkpoint.begin(self.cycles_run)
        traces: Dict[str, List[np.ndarray]] = {n: [] for n in names}
        # Rate-limited progress: fire immediately on the first completed
        # cycle, then at most once per interval.
        last_progress = time.monotonic() - progress_min_interval
        # Only the stimulus rows this run applies, [start_cycle, hi), are
        # packed and cast.
        lo = start_cycle
        hi = max(lo, min(total, len(stimulus) if stimulus is not None else 0))
        rows = self._stimulus_rows(stimulus, lo, hi)
        plan = self._chunk_plan(rows, lo)
        c = start_cycle
        while c < total:
            if plan is not None:
                # Run up to the next cycle where Python is due, then
                # fall through to that cycle's callbacks below.
                end = self._chunk_end(
                    c, total, hi, trace_every, stop, stop_check_every,
                    checkpoint, progress,
                )
                self._run_chunk(plan, c, end, c < hi)
                c = end - 1
            else:
                if fault_plan is not None and self.quarantine is not None:
                    for spec in fault_plan.lane_faults_at(c):
                        self._quarantine_lanes(
                            [spec.lane], reason=spec.reason,
                            detail="injected by fault plan",
                        )
                # One shared loop body with cycle() so the two paths
                # can't drift; the lambdas run inside its set_inputs span.
                if c >= hi:
                    self.cycle()
                elif rows is not None:
                    self.cycle(lambda i=c - lo: self._copy_rows(rows, i))
                else:
                    self.cycle(lambda c=c: stimulus.inputs_at(c))
            if trace_every and (c % trace_every == trace_every - 1):
                for n in names:
                    traces[n].append(self.get(n).copy())
            if checkpoint is not None:
                checkpoint.maybe_save(self)
            if progress is not None:
                if progress_min_interval <= 0.0:
                    progress(c)
                else:
                    now = time.monotonic()
                    if (now - last_progress >= progress_min_interval
                            or c == total - 1):
                        last_progress = now
                        progress(c)
            if self.quarantine is not None and not self.quarantine.any_active:
                # Every lane is dead: nothing left that can make progress
                # (or assert / block a stop signal).  Bail out rather than
                # burn the remaining cycles — and never let the empty
                # active mask below read as "all lanes stopped".
                if self.metrics.enabled:
                    self.metrics.inc("resilience.batch_dead_stops")
                break
            if stop is not None and (c % stop_check_every == stop_check_every - 1):
                flags = self.get(stop)
                if self.quarantine is not None and not self.quarantine.all_active:
                    flags = flags[self.quarantine.active]
                done = flags.all() if stop_mode == "all" else flags.any()
                if done:
                    break
            c += 1
        if trace_every:
            # Empty traces keep the signal's sampled dtype so downstream
            # comparisons don't silently promote to float64.
            return {
                n: np.stack(v) if v
                else np.empty((0, self.n), dtype=self.get(n).dtype)
                for n, v in traces.items()
            }
        return {n: self.get(n).copy() for n in names}
