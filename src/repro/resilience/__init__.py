"""Fault tolerance for batch RTL simulation.

Four pillars (see docs/resilience.md):

- **Lane quarantine** (:mod:`repro.resilience.faults`): one poisoned
  stimulus lane is masked out of the batch instead of aborting the other
  N-1; survivors stay bit-identical to a fault-free run.
- **Durable checkpoints** (:mod:`repro.resilience.checkpoint`): atomic
  write-to-temp + fsync + rename snapshots, policy-driven cadence,
  SIGKILL-safe resume.
- **Watchdog + retry** (:mod:`repro.resilience.retry`): bounded retries
  with backoff and thread watchdog timeouts around crash-prone work
  (MCMC compile-and-run trials).
- **Deterministic fault injection** (:mod:`repro.resilience.inject`): a
  seedable :class:`FaultPlan` that replays scripted failures so every
  recovery path is testable in CI.

This package sits below ``core``: it imports only numpy, ``utils`` and
``obs``, so the simulator can depend on it without cycles.
"""

from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.resilience.faults import (
    REASON_COVERAGE,
    REASON_DIV_ZERO,
    REASON_INJECTED,
    REASON_MEM_OOB,
    REASON_STIMULUS,
    LaneFault,
    LaneQuarantine,
    LaneStimulusError,
)
from repro.resilience.inject import (
    FaultPlan,
    FaultyStimulus,
    InjectedCheckpointFailure,
    InjectedCrash,
    LaneFaultSpec,
    TrialFaultSpec,
    parse_lane_fault,
)
from repro.resilience.retry import RetryPolicy, call_with_retry, run_with_timeout
from repro.utils.errors import (
    CheckpointError,
    ResilienceError,
    RetryExhausted,
    WatchdogTimeout,
)

__all__ = [
    # faults
    "LaneFault",
    "LaneQuarantine",
    "LaneStimulusError",
    "REASON_MEM_OOB",
    "REASON_DIV_ZERO",
    "REASON_STIMULUS",
    "REASON_COVERAGE",
    "REASON_INJECTED",
    # checkpoint
    "CheckpointPolicy",
    "CheckpointManager",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    # retry
    "RetryPolicy",
    "run_with_timeout",
    "call_with_retry",
    # inject
    "FaultPlan",
    "FaultyStimulus",
    "LaneFaultSpec",
    "TrialFaultSpec",
    "InjectedCrash",
    "InjectedCheckpointFailure",
    "parse_lane_fault",
    # errors
    "ResilienceError",
    "CheckpointError",
    "WatchdogTimeout",
    "RetryExhausted",
]
