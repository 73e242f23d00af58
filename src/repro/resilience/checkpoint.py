"""Durable, atomic on-disk checkpoints for long batch runs.

The in-memory ``save_checkpoint`` dict (pools + clock phase +
quarantine) is serialized with pickle and written with the
classic crash-safe sequence: write to a temp file in the same directory,
``fsync``, then ``os.replace`` onto the final name (plus a best-effort
directory fsync).  A SIGKILL at any instant leaves either the previous
checkpoint or the new one — never a truncated file — and resume always
picks the newest complete snapshot.

:class:`CheckpointPolicy` decides *when* to snapshot (every K cycles
and/or every T seconds); :class:`CheckpointManager` owns a directory of
``ckpt-<cycles>.pkl`` files, prunes old ones, and degrades gracefully
when a periodic write fails (the run continues from the previous
checkpoint; failures are counted in ``resilience.checkpoint_write_failures``).
"""

from __future__ import annotations

import json
import os
import pickle
import re
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from repro.obs import get_metrics, get_tracer
from repro.utils.errors import CheckpointError

__all__ = [
    "CheckpointPolicy",
    "CheckpointManager",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
]

_CKPT_RE = re.compile(r"^ckpt-(\d+)\.pkl$")


# ---------------------------------------------------------------------------
# Atomic file writes (also used by the benchmark result emitters)
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename)."""
    path = os.path.abspath(path)
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Durability of the rename itself: fsync the directory when the
    # platform allows opening one (best-effort elsewhere).
    try:
        dfd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:
        pass
    return path


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> str:
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: str, payload, **json_kw) -> str:
    json_kw.setdefault("indent", 2)
    return atomic_write_text(path, json.dumps(payload, **json_kw) + "\n")


# ---------------------------------------------------------------------------
# Policy + manager
# ---------------------------------------------------------------------------


@dataclass
class CheckpointPolicy:
    """When to snapshot: every K cycles, every T seconds, or both.

    Either trigger firing makes the snapshot due; ``None`` disables that
    trigger.  A policy with both triggers disabled never fires on its own
    (only explicit ``save`` calls write).
    """

    every_cycles: Optional[int] = None
    every_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every_cycles is not None and self.every_cycles <= 0:
            raise CheckpointError(
                f"every_cycles must be positive, got {self.every_cycles}"
            )
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise CheckpointError(
                f"every_seconds must be positive, got {self.every_seconds}"
            )

    def due(self, cycles_since: int, seconds_since: float) -> bool:
        if self.every_cycles is not None and cycles_since >= self.every_cycles:
            return True
        if self.every_seconds is not None and seconds_since >= self.every_seconds:
            return True
        return False


class CheckpointManager:
    """A directory of atomic checkpoints with periodic-save bookkeeping.

    ``fault_plan`` (see :mod:`repro.resilience.inject`) lets tests force
    write failures deterministically; a failed *periodic* write is
    swallowed (counted, previous checkpoint intact) while an explicit
    ``save(..., required=True)`` re-raises as :class:`CheckpointError`.
    """

    def __init__(
        self,
        directory: str,
        policy: Optional[CheckpointPolicy] = None,
        keep: int = 2,
        fault_plan=None,
        tracer=None,
        metrics=None,
    ):
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.policy = policy
        self.keep = keep
        self.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.writes = 0
        self.write_attempts = 0
        self.write_failures = 0
        self._anchor_cycles: Optional[int] = None
        self._last_save_time = time.monotonic()

    # -- periodic-save bookkeeping ---------------------------------------------

    def begin(self, cycles: int) -> None:
        """Anchor the cycle counter at the start of a (resumed) run."""
        self._anchor_cycles = cycles
        self._last_save_time = time.monotonic()

    def cycles_until_due(self, cycles: int) -> Optional[int]:
        """How many more cycles can run from ``cycles`` before
        :meth:`maybe_save` may write; ``None`` when it never will.

        Only a cycle-count policy can be looked ahead: a time trigger (or
        a run that was never anchored by :meth:`begin`) may be due after
        any cycle, so the answer is then 1.
        """
        policy = self.policy
        if policy is None or (policy.every_cycles is None
                              and policy.every_seconds is None):
            return None
        if policy.every_seconds is not None or self._anchor_cycles is None:
            return 1
        return max(1, self._anchor_cycles + policy.every_cycles - cycles)

    def maybe_save(self, sim) -> Optional[str]:
        """Snapshot ``sim`` if the policy says a checkpoint is due."""
        if self.policy is None:
            return None
        cycles = sim.cycles_run
        if self._anchor_cycles is None:
            self._anchor_cycles = cycles
        now = time.monotonic()
        if not self.policy.due(cycles - self._anchor_cycles,
                               now - self._last_save_time):
            return None
        return self.save(sim, required=False)

    # -- saving ----------------------------------------------------------------

    def save(self, sim, required: bool = True) -> Optional[str]:
        """Write one atomic checkpoint of ``sim``; prune old snapshots.

        ``required=False`` (the periodic path) turns write failures into
        graceful degradation: the failure is counted and the run keeps
        its previous durable checkpoint.
        """
        cycles = sim.cycles_run
        path = os.path.join(self.directory, f"ckpt-{cycles:012d}.pkl")
        attempt = self.write_attempts
        self.write_attempts += 1
        try:
            with self.tracer.span("checkpoint_save", resource="resilience"):
                if self.fault_plan is not None:
                    # Indexed by attempt (not by successful write) so an
                    # injected failure is transient: the next attempt has
                    # the next index and goes through.
                    self.fault_plan.maybe_fail_checkpoint(attempt)
                blob = pickle.dumps(
                    sim.save_checkpoint(), protocol=pickle.HIGHEST_PROTOCOL
                )
                atomic_write_bytes(path, blob)
        except Exception as exc:
            self.write_failures += 1
            self.metrics.inc("resilience.checkpoint_write_failures")
            if required:
                raise CheckpointError(
                    f"failed to write checkpoint {path}: {exc}"
                ) from exc
            return None
        self.writes += 1
        self._anchor_cycles = cycles
        self._last_save_time = time.monotonic()
        self.metrics.inc("resilience.checkpoints_written")
        self._prune()
        return path

    def _prune(self) -> None:
        entries = self._entries()
        for _cycles, name in entries[: max(0, len(entries) - self.keep)]:
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                pass

    # -- loading ---------------------------------------------------------------

    def _entries(self):
        """(cycles, filename) of complete checkpoints, oldest first."""
        out = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            m = _CKPT_RE.match(name)
            if m:  # temp files and foreign names never match
                out.append((int(m.group(1)), name))
        out.sort()
        return out

    def latest_path(self) -> Optional[str]:
        entries = self._entries()
        if not entries:
            return None
        return os.path.join(self.directory, entries[-1][1])

    @staticmethod
    def load(path: str) -> dict:
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception as exc:
            # Corrupt or version-skewed pickles raise far more than
            # UnpicklingError (AttributeError / ImportError / KeyError /
            # ValueError / ... from inside the deserializer), so wrap
            # everything: callers get the documented CheckpointError and
            # their graceful resume-failure path, never a raw exception.
            raise CheckpointError(
                f"cannot load checkpoint {path}: {exc}"
            ) from exc

    def load_latest(self) -> Optional[dict]:
        """The newest complete checkpoint's payload, or None if empty."""
        path = self.latest_path()
        if path is None:
            return None
        ckpt = self.load(path)
        self.metrics.inc("resilience.resumes")
        return ckpt
