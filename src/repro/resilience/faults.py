"""Per-lane fault records and the quarantine mask.

A batch run carries thousands of independent stimulus lanes; one poisoned
lane (out-of-bounds memory address, divide-by-zero, undecodable stimulus,
failed coverage check) must not abort the other N-1.  The quarantine
keeps a boolean *active* mask over the batch axis: faulted lanes are
masked out of register/memory commits and input application from the
faulting cycle onward, so their state freezes while every surviving lane
continues bit-identically to a run that never contained the faulty
stimulus (lanes share no state — see docs/resilience.md).

Every quarantined lane produces exactly one structured :class:`LaneFault`
(first fault wins) so a failing campaign yields a machine-readable
post-mortem instead of a dead process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.utils.errors import SimulationError

__all__ = ["LaneFault", "LaneQuarantine", "LaneStimulusError"]

# Well-known fault reason codes (free-form strings are also accepted).
REASON_MEM_OOB = "mem-oob-write"
REASON_DIV_ZERO = "div-by-zero"
REASON_STIMULUS = "stimulus-decode"
REASON_COVERAGE = "coverage-check"
REASON_INJECTED = "injected"


@dataclass(frozen=True)
class LaneFault:
    """One lane's terminal fault: who, when, and why."""

    lane: int
    cycle: int
    reason: str
    task: Optional[str] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "lane": self.lane,
            "cycle": self.cycle,
            "reason": self.reason,
            "task": self.task,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LaneFault":
        return cls(
            lane=int(d["lane"]),
            cycle=int(d["cycle"]),
            reason=str(d["reason"]),
            task=d.get("task"),
            detail=d.get("detail", ""),
        )

    def __str__(self) -> str:
        where = f" in {self.task}" if self.task else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"lane {self.lane} @ cycle {self.cycle}: {self.reason}{where}{tail}"


class LaneStimulusError(Exception):
    """A stimulus source could not decode one lane's input at one cycle.

    Raised by stimulus decoders (or the fault-injection harness) to mean
    "this lane's stimulus is poisoned" — the batch simulator quarantines
    the lane and re-fetches inputs rather than aborting the whole batch.
    """

    def __init__(self, lane: int, cycle: int, message: str = ""):
        self.lane = lane
        self.cycle = cycle
        super().__init__(
            message or f"undecodable stimulus for lane {lane} at cycle {cycle}"
        )


class LaneQuarantine:
    """The per-batch active mask plus the structured fault log.

    ``active`` is a boolean (N,) array — True means the lane is still
    live.  Quarantining is idempotent per lane: only the *first* fault is
    recorded, later faults on an already-dead lane are ignored (its state
    is frozen, anything it "computes" afterwards is garbage by design).
    """

    def __init__(self, n: int):
        if n <= 0:
            raise SimulationError(f"batch size must be positive, got {n}")
        self.n = n
        self.active = np.ones(n, dtype=bool)
        self.faults: List[LaneFault] = []
        # Cached so hot paths pay one attribute read, not an (N,) reduction.
        self._all_active = True

    # -- state ----------------------------------------------------------------

    @property
    def all_active(self) -> bool:
        return self._all_active

    @property
    def any_active(self) -> bool:
        """True while at least one lane is still live (O(1): every dead
        lane has exactly one fault record, so no mask reduction needed)."""
        return len(self.faults) < self.n

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    def active_lanes(self) -> np.ndarray:
        """Indices of the lanes still live."""
        return np.nonzero(self.active)[0]

    def faulted_lanes(self) -> List[int]:
        """Lanes quarantined so far, in fault order."""
        return [f.lane for f in self.faults]

    # -- quarantining ---------------------------------------------------------

    def quarantine(
        self,
        lanes: Union[int, Sequence[int], np.ndarray],
        cycle: int,
        reason: str,
        task: Optional[str] = None,
        detail: str = "",
    ) -> List[int]:
        """Mask out ``lanes``; returns the lanes that were newly faulted."""
        arr = np.atleast_1d(np.asarray(lanes, dtype=np.int64))
        fresh: List[int] = []
        for lane in arr:
            lane = int(lane)
            if lane < 0 or lane >= self.n:
                raise SimulationError(
                    f"lane {lane} out of range for batch size {self.n}"
                )
            if not self.active[lane]:
                continue
            self.active[lane] = False
            self.faults.append(
                LaneFault(lane=lane, cycle=cycle, reason=reason,
                          task=task, detail=detail)
            )
            fresh.append(lane)
        if fresh:
            self._all_active = False
        return fresh

    # -- persistence (rides inside simulator checkpoints) ---------------------

    def state_dict(self) -> dict:
        return {
            "n": self.n,
            "active": self.active.copy(),
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_state(cls, state: dict) -> "LaneQuarantine":
        q = cls(int(state["n"]))
        active = np.asarray(state["active"], dtype=bool)
        if active.shape != (q.n,):
            raise SimulationError(
                f"quarantine state has mask shape {active.shape}, "
                f"expected ({q.n},)"
            )
        q.active[:] = active
        q.faults = [LaneFault.from_dict(d) for d in state["faults"]]
        q._all_active = bool(active.all())
        return q

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict:
        """JSON-ready summary (the ``repro run --fault-report`` payload)."""
        return {
            "n": self.n,
            "active_lanes": int(self.active.sum()),
            "faulted_lanes": self.faulted_lanes(),
            "faults": [f.to_dict() for f in self.faults],
        }

    def summary(self) -> str:
        if not self.faults:
            return f"all {self.n} lanes healthy"
        lines = [f"{len(self.faults)}/{self.n} lanes quarantined:"]
        lines += [f"  {f}" for f in self.faults[:20]]
        if len(self.faults) > 20:
            lines.append(f"  ... (+{len(self.faults) - 20} more)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LaneQuarantine(n={self.n}, "
                f"faulted={len(self.faults)})")


def merge_fault_lists(parts: Iterable[Iterable[LaneFault]]) -> List[LaneFault]:
    """Flatten per-group fault lists (pipeline groups) into cycle order."""
    out: List[LaneFault] = []
    for p in parts:
        out.extend(p)
    out.sort(key=lambda f: (f.cycle, f.lane))
    return out
