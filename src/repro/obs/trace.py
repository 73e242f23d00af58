"""Unified span tracing (the successor of ``utils.timing.Stopwatch`` and
``gpu.timeline.Tracer``).

One :class:`Tracer` serves every measurement need of the repo:

* **Aggregates** — per-name total/count/min/max wall seconds, the Fig. 2
  style breakdown the old ``Stopwatch`` produced.
* **Timeline spans** — named spans on named resource rows ("GPU", "CPU0",
  "stream s1", ...), hierarchical per thread, the Nsight-style capture of
  Figs. 10 and 16.  Rendered as an ASCII swimlane
  (:func:`render_timeline`) or exported as Chrome-trace/Perfetto JSON
  (:meth:`Tracer.to_chrome_trace`), which loads directly in
  https://ui.perfetto.dev or ``chrome://tracing``.

Recording is thread-safe.  A disabled tracer is free on the hot path:
``span()`` returns a shared no-op context manager without allocating.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Span",
    "SpanStats",
    "Tracer",
    "render_timeline",
]


@dataclass
class Span:
    """One recorded interval on a resource row.

    ``start``/``end`` are seconds relative to the tracer epoch; ``depth``
    is the nesting level within the recording thread (0 = top level).
    """

    name: str
    resource: str
    start: float
    end: float
    depth: int = 0
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanStats:
    """Aggregate statistics for one span name."""

    total: float = 0.0
    count: int = 0
    min: float = float("inf")
    max: float = 0.0

    def observe(self, seconds: float, count: int = 1) -> None:
        """Add ``count`` observations totalling ``seconds``; when
        ``count > 1`` their individual times are not known, so min/max
        see the mean."""
        self.total += seconds
        self.count += count
        each = seconds / count
        if each < self.min:
            self.min = each
        if each > self.max:
            self.max = each

    def as_dict(self) -> Dict[str, float]:
        return {
            "total_seconds": self.total,
            "count": self.count,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "mean_seconds": self.total / self.count if self.count else 0.0,
        }


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanCtx:
    """Live span context: records on exit with the nesting depth."""

    __slots__ = ("tracer", "name", "resource", "start", "depth")

    def __init__(self, tracer: "Tracer", name: str, resource: str):
        self.tracer = tracer
        self.name = name
        self.resource = resource

    def __enter__(self) -> "_SpanCtx":
        stack = self.tracer._stack()
        self.depth = len(stack)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tracer = self.tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        tracer._record_span(
            self.name, self.resource,
            self.start - tracer._t0, end - tracer._t0, self.depth,
        )
        return False


class Tracer:
    """Thread-safe hierarchical span recorder with aggregate totals.

    ``enabled=False`` makes every operation a no-op; ``keep_spans=False``
    keeps only the per-name aggregates (the old Stopwatch behaviour),
    which bounds memory for long runs.
    """

    DEFAULT_RESOURCE = "CPU"

    def __init__(
        self,
        enabled: bool = True,
        keep_spans: bool = True,
        max_spans: int = 1_000_000,
    ):
        self.enabled = enabled
        self.keep_spans = keep_spans
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._spans: List[Span] = []
        self._agg: Dict[str, SpanStats] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def span(self, name: str, resource: Optional[str] = None):
        """Context manager timing one named span on ``resource``'s row."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanCtx(self, name, resource or self.DEFAULT_RESOURCE)

    def _record_span(
        self, name: str, resource: str, start: float, end: float, depth: int
    ) -> None:
        with self._lock:
            stats = self._agg.get(name)
            if stats is None:
                stats = self._agg[name] = SpanStats()
            stats.observe(end - start)
            if self.keep_spans:
                if len(self._spans) < self.max_spans:
                    self._spans.append(
                        Span(name, resource, start, end, depth,
                             threading.get_ident())
                    )
                else:
                    self.dropped_spans += 1

    def record(
        self,
        name: str,
        start: float,
        end: float,
        resource: Optional[str] = None,
        depth: int = 0,
    ) -> None:
        """Record an externally-timed span (epoch-relative seconds)."""
        if not self.enabled:
            return
        self._record_span(name, resource or self.DEFAULT_RESOURCE,
                          start, end, depth)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Accumulate into the aggregates without a timeline span
        (``count`` spans totalling ``seconds``; see SpanStats.observe)."""
        if not self.enabled:
            return
        with self._lock:
            stats = self._agg.get(name)
            if stats is None:
                stats = self._agg[name] = SpanStats()
            stats.observe(seconds, count)

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._agg.clear()
            self.dropped_spans = 0
            self._t0 = time.perf_counter()

    # -- aggregate queries -------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def aggregate(self, prefix: str = "") -> Dict[str, SpanStats]:
        """Per-name stats; ``prefix`` filters names (e.g. ``"task_"``)."""
        with self._lock:
            return {
                k: SpanStats(v.total, v.count, v.min, v.max)
                for k, v in self._agg.items()
                if k.startswith(prefix)
            }

    def total(self, name: str) -> float:
        with self._lock:
            stats = self._agg.get(name)
            return stats.total if stats else 0.0

    def count(self, name: str) -> int:
        with self._lock:
            stats = self._agg.get(name)
            return stats.count if stats else 0

    @property
    def totals(self) -> Dict[str, float]:
        with self._lock:
            return {k: v.total for k, v in self._agg.items()}

    @property
    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {k: v.count for k, v in self._agg.items()}

    def busy_by_resource(self) -> Dict[str, float]:
        """Busy seconds per resource row (top-level spans only, so nested
        kernel spans don't double-count their parent's window)."""
        out: Dict[str, float] = {}
        with self._lock:
            for s in self._spans:
                if s.depth == 0:
                    out[s.resource] = out.get(s.resource, 0.0) + s.duration
        return out

    def window(self) -> float:
        """Wall-clock extent of the recorded timeline."""
        with self._lock:
            if not self._spans:
                return 0.0
            return max(s.end for s in self._spans) - min(
                s.start for s in self._spans
            )

    # -- export ------------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome-trace/Perfetto ``traceEvents`` JSON object.

        Resources map to trace *processes* and recording threads to trace
        *threads*, so Perfetto renders one row group per resource with
        correct nesting of hierarchical spans.
        """
        events: List[dict] = []
        pids: Dict[str, int] = {}
        with self._lock:
            snapshot = list(self._spans)
        for s in snapshot:
            pid = pids.get(s.resource)
            if pid is None:
                pid = pids[s.resource] = len(pids) + 1
                events.append({
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": s.resource},
                })
            events.append({
                "name": s.name,
                "cat": s.resource,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": s.thread % 2**31,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)
        return path

    def render_ascii(self, width: int = 100) -> str:
        """ASCII swimlane of the captured timeline (Figs. 10/16 style)."""
        return render_timeline(self.spans, width=width)


def render_timeline(
    spans: Sequence,
    width: int = 100,
    resources: Optional[List[str]] = None,
) -> str:
    """ASCII swimlane rendering of a captured timeline.

    Each row is a resource; ``#`` marks busy time.  Accepts any span
    objects with ``resource``/``start``/``end`` attributes (both
    :class:`Span` and the legacy ``gpu.timeline.TimelineSpan``).
    """
    if not spans:
        return "(empty timeline)"
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    total = max(t1 - t0, 1e-9)
    if resources is None:
        resources = sorted({s.resource for s in spans})
    name_w = max(len(r) for r in resources) + 1
    lines = []
    scale = width / total
    for r in resources:
        row = [" "] * width
        for s in spans:
            if s.resource != r:
                continue
            a = int((s.start - t0) * scale)
            b = max(a + 1, int((s.end - t0) * scale))
            for i in range(a, min(b, width)):
                row[i] = "#"
        lines.append(f"{r:<{name_w}}|{''.join(row)}|")
    lines.append(f"{'':<{name_w}} 0{'':{width - 10}}{total * 1000:.1f} ms")
    return "\n".join(lines)
