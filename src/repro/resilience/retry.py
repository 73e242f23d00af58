"""Watchdog timeouts and bounded retry with backoff.

The MCMC partitioner's compile-and-run trials are where a single wedged
or crashed unit of work used to take the whole run down.
:func:`run_with_timeout` bounds one attempt with a daemon-thread
watchdog; :func:`call_with_retry` layers bounded retries with
(deterministically testable) backoff on top and raises
:class:`~repro.utils.errors.RetryExhausted` only after every attempt
failed — the caller then degrades (scores the trial as rejected) instead
of aborting.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.utils.errors import RetryExhausted, WatchdogTimeout

__all__ = ["RetryPolicy", "run_with_timeout", "call_with_retry"]

T = TypeVar("T")


@dataclass
class RetryPolicy:
    """How many attempts, how long each may run, how long to wait between.

    ``backoff_s`` doubles (``backoff_factor``) after every failed attempt,
    the standard bounded exponential backoff.  ``timeout_s=None`` disables
    the watchdog (attempts run to completion).
    """

    max_attempts: int = 2
    timeout_s: Optional[float] = None
    backoff_s: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")


def run_with_timeout(fn: Callable[[], T], timeout_s: Optional[float],
                     label: str = "guarded task") -> T:
    """Run ``fn`` under a watchdog; raise :class:`WatchdogTimeout` on expiry.

    The attempt runs in a daemon thread — Python cannot forcibly kill it,
    so a timed-out attempt may keep running in the background; its result
    is discarded and its side effects must be idempotent or disposable
    (true for MCMC trials, which only produce a cost number).
    """
    if timeout_s is None:
        return fn()
    box: dict = {}

    def runner() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            box["error"] = exc

    t = threading.Thread(target=runner, daemon=True, name=f"watchdog:{label}")
    t.start()
    t.join(timeout_s)
    if t.is_alive():
        raise WatchdogTimeout(
            f"{label} exceeded its {timeout_s:.3g}s watchdog timeout"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy,
    label: str = "guarded task",
    on_failure: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = None,
) -> T:
    """Run ``fn`` with the policy's watchdog + bounded retry/backoff.

    ``on_failure(attempt_index, exc)`` fires after every failed attempt
    (for metric counting); ``sleep`` is injectable so tests stay instant.
    Exhaustion raises :class:`RetryExhausted` carrying the last error.
    """
    if sleep is None:
        import time

        sleep = time.sleep
    delay = policy.backoff_s
    last: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        try:
            return run_with_timeout(fn, policy.timeout_s, label=label)
        except Exception as exc:  # noqa: BLE001 - degradation is the point
            last = exc
            if on_failure is not None:
                on_failure(attempt, exc)
            if attempt + 1 < policy.max_attempts and delay > 0:
                sleep(delay)
                delay *= policy.backoff_factor
    raise RetryExhausted(
        f"{label} failed after {policy.max_attempts} attempt(s): {last}",
        last_error=last,
        attempts=policy.max_attempts,
    )
