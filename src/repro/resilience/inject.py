"""Deterministic fault injection: every recovery path, on demand.

A :class:`FaultPlan` is a seedable script of failures — lane faults at
chosen cycles, MCMC trial crashes/hangs, pipeline group crashes, and
checkpoint-write failures — that the runtime components consult at their
fault points.  Because the plan is pure data derived from a seed (or
written explicitly), the same plan replays the same faults every run:
the differential suite and the CI smoke job exercise quarantine,
watchdog/retry, graceful degradation, and checkpoint recovery without
flaky monkeypatching.

Injected failures are *transient by default* (``attempts=1``): the first
attempt at the fault point fails, retries succeed — which is exactly the
shape a retry policy must be able to absorb.  Raise ``attempts`` to model
persistent failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.resilience.faults import (
    REASON_INJECTED,
    LaneStimulusError,
)

__all__ = [
    "LaneFaultSpec",
    "TrialFaultSpec",
    "GroupFaultSpec",
    "FaultPlan",
    "InjectedCrash",
    "InjectedCheckpointFailure",
    "FaultyStimulus",
]


class InjectedCrash(RuntimeError):
    """A scripted crash standing in for an arbitrary runtime failure."""


class InjectedCheckpointFailure(OSError):
    """A scripted checkpoint-write failure (disk full, I/O error, ...)."""


@dataclass(frozen=True)
class LaneFaultSpec:
    """Quarantine ``lane`` at ``cycle`` with ``reason``."""

    cycle: int
    lane: int
    reason: str = REASON_INJECTED

    def to_dict(self) -> dict:
        return {"cycle": self.cycle, "lane": self.lane, "reason": self.reason}


@dataclass(frozen=True)
class TrialFaultSpec:
    """Fail MCMC trial ``iteration``: 'crash' raises, 'hang' sleeps.

    ``attempts`` is how many attempts at this trial fail before the
    injection is spent; ``hang_s`` is how long a hang sleeps (pick it
    longer than the watchdog timeout under test).
    """

    iteration: int
    mode: str = "crash"  # 'crash' | 'hang'
    attempts: int = 1
    hang_s: float = 0.25

    def __post_init__(self) -> None:
        if self.mode not in ("crash", "hang"):
            raise ValueError(f"trial fault mode must be crash|hang, got {self.mode!r}")


@dataclass(frozen=True)
class GroupFaultSpec:
    """Crash pipeline group ``group`` at ``cycle`` (``attempts`` times)."""

    group: int
    cycle: int
    attempts: int = 1


@dataclass
class FaultPlan:
    """A deterministic script of injected failures.

    Build one explicitly (tests, CLI flags) or with :meth:`random` from a
    seed.  Fire-tracking is stateful: each spec fires at most ``attempts``
    times, so a sequential-fallback rerun or a retry sails past a
    transient injection — deterministic recovery, not deterministic
    doom.
    """

    lane_faults: List[LaneFaultSpec] = field(default_factory=list)
    trial_faults: List[TrialFaultSpec] = field(default_factory=list)
    group_faults: List[GroupFaultSpec] = field(default_factory=list)
    # Checkpoint-write indices (0-based) that fail.
    checkpoint_failures: Set[int] = field(default_factory=set)
    # Stimulus decode errors: (cycle, lane) pairs, fire once each.
    stimulus_faults: Set[Tuple[int, int]] = field(default_factory=set)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self._trial_fired: Dict[int, int] = {}
        self._group_fired: Dict[Tuple[int, int], int] = {}
        self._stimulus_fired: Set[Tuple[int, int]] = set()

    # -- construction ---------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        n_lanes: int,
        cycles: int,
        lane_fault_count: int = 1,
        trial_fault_count: int = 0,
        max_trial_iteration: int = 8,
    ) -> "FaultPlan":
        """A reproducible plan drawn from ``seed`` (same seed, same plan)."""
        rng = np.random.default_rng(seed)
        lanes = rng.choice(n_lanes, size=min(lane_fault_count, n_lanes),
                           replace=False)
        lane_faults = [
            LaneFaultSpec(cycle=int(rng.integers(0, max(1, cycles))),
                          lane=int(lane))
            for lane in lanes
        ]
        iters = rng.choice(max(1, max_trial_iteration),
                           size=min(trial_fault_count, max(1, max_trial_iteration)),
                           replace=False)
        trial_faults = [
            TrialFaultSpec(iteration=int(i),
                           mode="crash" if rng.integers(0, 2) else "hang")
            for i in iters
        ]
        return cls(lane_faults=lane_faults, trial_faults=trial_faults, seed=seed)

    # -- query hooks (called from the runtime's fault points) -----------------

    def lane_faults_at(self, cycle: int) -> List[LaneFaultSpec]:
        return [s for s in self.lane_faults if s.cycle == cycle]

    def maybe_fail_trial(self, iteration: int) -> None:
        """Raise/hang if this MCMC trial is scripted to fail (and unspent)."""
        for spec in self.trial_faults:
            if spec.iteration != iteration:
                continue
            fired = self._trial_fired.get(iteration, 0)
            if fired >= spec.attempts:
                continue
            self._trial_fired[iteration] = fired + 1
            if spec.mode == "hang":
                time.sleep(spec.hang_s)
                # A real hang never returns; the watchdog fires first.
                # Returning afterwards keeps un-watchdogged tests finite.
                return
            raise InjectedCrash(f"injected crash in MCMC trial {iteration}")

    def maybe_fail_group(self, group: int, cycle: int) -> None:
        """Raise if this pipeline (group, cycle) is scripted to crash."""
        for spec in self.group_faults:
            if spec.group != group or spec.cycle != cycle:
                continue
            key = (group, cycle)
            fired = self._group_fired.get(key, 0)
            if fired >= spec.attempts:
                continue
            self._group_fired[key] = fired + 1
            raise InjectedCrash(
                f"injected crash in pipeline group {group} at cycle {cycle}"
            )

    def maybe_fail_checkpoint(self, write_index: int) -> None:
        """Raise if checkpoint write ``write_index`` is scripted to fail."""
        if write_index in self.checkpoint_failures:
            raise InjectedCheckpointFailure(
                f"injected checkpoint-write failure (write #{write_index})"
            )

    def maybe_fail_stimulus(self, cycle: int, lane: int) -> None:
        key = (cycle, lane)
        if key in self.stimulus_faults and key not in self._stimulus_fired:
            self._stimulus_fired.add(key)
            raise LaneStimulusError(lane, cycle, "injected stimulus decode fault")

    # -- reporting ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "lane_faults": [s.to_dict() for s in self.lane_faults],
            "trial_faults": [
                {"iteration": s.iteration, "mode": s.mode, "attempts": s.attempts}
                for s in self.trial_faults
            ],
            "group_faults": [
                {"group": s.group, "cycle": s.cycle, "attempts": s.attempts}
                for s in self.group_faults
            ],
            "checkpoint_failures": sorted(self.checkpoint_failures),
            "stimulus_faults": sorted(self.stimulus_faults),
        }


class FaultyStimulus:
    """Wrap a stimulus batch so planned (cycle, lane) decodes fail once.

    Exercises the simulator's stimulus-decode recovery path: the wrapped
    ``inputs_at`` raises :class:`LaneStimulusError` the first time a
    scripted (cycle, lane) is fetched; the simulator quarantines the lane
    and re-fetches, and the second fetch succeeds.
    """

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def n(self) -> int:
        return self.inner.n

    def inputs_at(self, cycle: int):
        for (c, lane) in sorted(self.plan.stimulus_faults):
            if c == cycle:
                self.plan.maybe_fail_stimulus(c, lane)
        return self.inner.inputs_at(cycle)

    def inputs_at_range(self, cycle: int, lo: int, hi: int):
        for (c, lane) in sorted(self.plan.stimulus_faults):
            if c == cycle and lo <= lane < hi:
                self.plan.maybe_fail_stimulus(c, lane)
        return self.inner.inputs_at_range(cycle, lo, hi)


def parse_lane_fault(spec: str) -> LaneFaultSpec:
    """Parse a CLI ``CYCLE:LANE[:REASON]`` lane-fault spec."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"lane fault spec must be CYCLE:LANE[:REASON], got {spec!r}"
        )
    try:
        cycle, lane = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"lane fault spec must be CYCLE:LANE[:REASON], got {spec!r}"
        ) from None
    reason = parts[2] if len(parts) == 3 else REASON_INJECTED
    return LaneFaultSpec(cycle=cycle, lane=lane, reason=reason)
