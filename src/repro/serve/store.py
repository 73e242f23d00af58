"""Content-addressed result store for per-shard simulation payloads.

The store maps a shard's *content key* — the sha256
:meth:`~repro.cluster.spec.CampaignSpec.shard_signature`, which covers
the design text, stimulus seed, cycle count, batch width, executor,
run options, the shard's lane range and the faults re-based
into it — to the shard's complete result payload (the same plain-data
dict the cluster worker returns).  Because the key is derived from
*content*, not from which campaign or job produced the result:

* re-submitting an identical campaign resolves every shard by lookup —
  zero simulations, merged outputs byte-identical to the first run;
* an *edited* campaign (one lane fault added, say) misses only on the
  shards whose content actually changed — incremental re-simulation,
  the GATSPI/ADEPT re-run workload;
* results are shared across tenants, jobs, the ``repro serve`` service
  and ``repro campaign --store`` CLI runs pointed at the same root.

Layout: ``<root>/objects/<key[:2]>/<key>.pkl`` — a pickled payload
written atomically (temp + fsync + rename, the resilience layer's
primitive), stamped with a ``shard_key`` field that :meth:`get`
re-checks so a corrupt or misplaced object can never be served.

Eviction is LRU by file mtime (:meth:`get` touches the object): when
``max_bytes``/``max_entries`` are set, :meth:`gc` drops the
least-recently-used objects until both bounds hold.  The store is the
*cache*, not the ledger — evicting an entry only costs recomputation.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import List, Optional, Tuple

from repro.cluster.spec import CampaignSpec, ShardSpec
from repro.cluster.worker import PAYLOAD_SCHEMA
from repro.resilience.checkpoint import atomic_write_bytes
from repro.utils.errors import ServiceError

__all__ = ["ResultStore", "adopt_payload"]


def adopt_payload(payload: dict, spec: CampaignSpec, shard: ShardSpec) -> dict:
    """Re-stamp a stored payload for the campaign that is adopting it.

    A stored payload carries the ``signature`` of the campaign that
    *produced* it, which may legitimately differ from the adopter's
    (e.g. the producer had extra lane faults in other shards).  The
    shard key proves shard-level equivalence, so the adopter may take
    the result — but the merge layer (rightly) insists every payload
    carry the adopting campaign's signature.  Returns a shallow copy
    with ``signature``/``shard`` rewritten and provenance preserved in
    ``produced_by``; raises :class:`ServiceError` if the payload's lane
    range does not match ``shard`` (a store-corruption symptom the key
    check should have caught).
    """
    _sid, lo, hi = payload["shard"]
    if (lo, hi) != (shard.lo, shard.hi):
        raise ServiceError(
            f"stored shard payload covers lanes [{lo}, {hi}) but the "
            f"campaign expects [{shard.lo}, {shard.hi}); the store entry "
            "is corrupt"
        )
    out = dict(payload)
    out["produced_by"] = payload.get("produced_by", payload.get("signature"))
    out["signature"] = spec.signature()
    out["shard"] = (shard.id, shard.lo, shard.hi)
    return out


class ResultStore:
    """Durable, content-addressed store of per-shard result payloads.

    Thread-safe for use from the service's event loop plus its worker
    completion callbacks; multi-process safe for readers and writers on
    the same root (writes are atomic renames; a racing duplicate ``put``
    just rewrites identical content).
    """

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ):
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)

    def _path(self, key: str) -> str:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ServiceError(f"malformed store key {key!r}")
        return os.path.join(self.root, "objects", key[:2], f"{key}.pkl")

    # -- lookup / insert -------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The payload stored under ``key``, or None (counted as a miss).

        A readable object whose stamped ``shard_key`` disagrees with its
        filename is treated as corrupt: it is deleted and counted as a
        miss rather than served.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except Exception:
            payload = None  # truncated/unreadable object
        if not isinstance(payload, dict) or payload.get("shard_key") != key:
            try:
                os.unlink(path)
            except OSError:
                pass
            with self._lock:
                self.misses += 1
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return payload

    def lookup(self, spec: CampaignSpec, shard: ShardSpec) -> Optional[dict]:
        """``shard``'s stored payload adopted for ``spec``, or None.

        The one store probe of both campaign front ends: a missing entry or
        one written under another ``PAYLOAD_SCHEMA`` is a miss, and a hit
        is re-stamped for ``spec`` by :func:`adopt_payload`.
        """
        payload = self.get(spec.shard_signature(shard))
        if payload is None or payload.get("schema") != PAYLOAD_SCHEMA:
            return None
        return adopt_payload(payload, spec, shard)

    def put(self, key: str, payload: dict) -> str:
        """Store ``payload`` under ``key`` (idempotent) and maybe GC."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        stamped = dict(payload)
        stamped["shard_key"] = key
        atomic_write_bytes(
            path, pickle.dumps(stamped, protocol=pickle.HIGHEST_PROTOCOL)
        )
        if self.max_bytes is not None or self.max_entries is not None:
            self.gc()
        return path

    def contains(self, key: str) -> bool:
        """Existence probe that does not touch hit/miss counters."""
        return os.path.exists(self._path(key))

    # -- maintenance -----------------------------------------------------------

    def _entries(self) -> List[Tuple[float, int, str]]:
        out = []
        objects = os.path.join(self.root, "objects")
        for dirpath, _dirs, files in os.walk(objects):
            for name in files:
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                out.append((st.st_mtime, st.st_size, path))
        return out

    def gc(self) -> int:
        """Evict least-recently-used objects past the configured bounds.

        Returns the number of objects removed.  With no bounds set this
        is a no-op — the store grows without limit and an operator prunes
        it out of band (it is just a directory of files).
        """
        entries = self._entries()
        total = sum(size for _m, size, _p in entries)
        removed = 0
        entries.sort()  # oldest mtime first
        for _mtime, size, path in entries:
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            over_count = (
                self.max_entries is not None
                and len(entries) - removed > self.max_entries
            )
            if not over_bytes and not over_count:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
        with self._lock:
            self.evictions += removed
        return removed

    def stats(self) -> dict:
        entries = self._entries()
        with self._lock:
            hits, misses = self.hits, self.misses
            evictions = self.evictions
        total = hits + misses
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _m, size, _p in entries),
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": (hits / total) if total else 0.0,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
        }
