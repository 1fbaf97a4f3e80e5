"""The artifact cache behind the staged pipeline.

Two tiers:

* an **in-memory LRU** (bounded by ``max_entries``, evictions counted)
  that every synthesis run gets — by default private to the run, so a
  recovery-ladder climb reuses its own compile work without one run's
  artifacts leaking into another's timing;
* an opt-in **on-disk store** (``disk_dir``, ``vase synth --cache``)
  of pickled artifacts keyed by the stage's content hash, which
  survives process restarts and is shared safely between the workers
  of ``vase batch --executor thread|process``.

A cache never crosses a process boundary as itself: pickling one
yields a reference to the *worker cache* of the receiving process
(:func:`worker_cache`) over the same disk directory — one per
directory per process, its memory tier warm across every task the
worker runs; a memory-only cache arrives as the worker's own memory
cache.  The process executor snapshots the worker caches' counters
around each task and folds the delta into the submitting side's cache
(:meth:`CacheStats.apply_delta`), so aggregate stats count work done
in other processes.

Artifacts are shared read-only: :meth:`ArtifactCache.put` stores the
object it is given and :meth:`ArtifactCache.get` hands that same object
to every caller (a disk hit unpickles once, then serves the unpickled
object from memory).  Nothing may write to an artifact once it is
stored; a stage that rewrites its input (FSM realization, VHIF
optimization, interfacing) rewrites a copy it made itself.  Unpicklable
artifacts simply skip the disk tier — counted, not fatal.

Every hit/miss/store/eviction is mirrored into the process-wide
:func:`repro.instrument.metrics` registry (``pipeline.cache.*`` and
per-stage ``pipeline.stage.<name>.*`` counters) so ``vase profile``
shows what was skipped.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.instrument.events import CATEGORY_CACHE, active_bus
from repro.instrument.metrics import metrics

#: Sentinel returned by :meth:`ArtifactCache.get` on a miss (``None``
#: would be ambiguous for stages that legitimately produce ``None``).
MISS = object()


@dataclass
class CacheStats:
    """Counters of one cache instance (not the global registry)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: hits served by unpickling from the disk tier
    disk_hits: int = 0
    disk_stores: int = 0
    #: artifacts that could not be pickled (skipped the disk tier)
    disk_errors: int = 0
    #: per-stage hit counts
    stage_hits: Dict[str, int] = field(default_factory=dict)
    #: per-stage miss counts (== times the stage actually computed)
    stage_misses: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_errors": self.disk_errors,
            "stage_hits": dict(sorted(self.stage_hits.items())),
            "stage_misses": dict(sorted(self.stage_misses.items())),
        }

    def describe(self) -> str:
        return (
            f"cache: {self.hits} hit(s) ({self.disk_hits} from disk), "
            f"{self.misses} miss(es), {self.stores} store(s), "
            f"{self.evictions} evicted"
        )

    def apply_delta(self, delta: Dict[str, object]) -> None:
        """Fold a :func:`stats_delta` snapshot into these counters."""
        for name in ("hits", "misses", "stores", "evictions",
                     "disk_hits", "disk_stores", "disk_errors"):
            setattr(self, name, getattr(self, name) + int(
                delta.get(name, 0) or 0
            ))
        for field_name in ("stage_hits", "stage_misses"):
            counts = getattr(self, field_name)
            for stage, n in (delta.get(field_name) or {}).items():
                counts[stage] = counts.get(stage, 0) + int(n)


def stats_delta(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """``after - before`` of two :meth:`CacheStats.as_dict` snapshots."""
    delta: Dict[str, object] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            base = before.get(key, {}) or {}
            diff = {
                stage: n - base.get(stage, 0)
                for stage, n in value.items()
                if n - base.get(stage, 0)
            }
            delta[key] = diff
        else:
            delta[key] = value - int(before.get(key, 0) or 0)
    return delta


class ArtifactCache:
    """Thread-safe content-addressed store of immutable stage artifacts."""

    def __init__(
        self,
        max_entries: int = 256,
        disk_dir: Optional[object] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    # -- key/value plumbing ------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / key[:2] / f"{key}.pkl"

    def _note(self, kind: str, stage: Optional[str]) -> None:
        registry = metrics()
        registry.inc(f"pipeline.cache.{kind}")
        if stage is not None:
            registry.inc(f"pipeline.stage.{stage}.{kind}")
        bus = active_bus()
        if bus is not None:
            bus.publish(CATEGORY_CACHE, {"op": kind, "stage": stage})

    # -- the cache protocol ------------------------------------------------

    def get(self, key: str, stage: Optional[str] = None) -> object:
        """The stored artifact at ``key`` (shared, read-only), or
        :data:`MISS`."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                value = self._memory[key]
                self.stats.hits += 1
                if stage is not None:
                    self.stats.stage_hits[stage] = (
                        self.stats.stage_hits.get(stage, 0) + 1
                    )
                self._note("hit", stage)
                return value
        if self.disk_dir is not None:
            path = self._disk_path(key)
            try:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError):
                pass
            else:
                with self._lock:
                    self._insert(key, value)
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    if stage is not None:
                        self.stats.stage_hits[stage] = (
                            self.stats.stage_hits.get(stage, 0) + 1
                        )
                    self._note("hit", stage)
                    metrics().inc("pipeline.cache.disk_hit")
                    return value
        with self._lock:
            self.stats.misses += 1
            if stage is not None:
                self.stats.stage_misses[stage] = (
                    self.stats.stage_misses.get(stage, 0) + 1
                )
        self._note("miss", stage)
        return MISS

    def put(self, key: str, value: object,
            stage: Optional[str] = None) -> None:
        """Store ``value`` itself under ``key``.

        The caller hands over ownership: ``value`` must not be written
        to afterwards, since every later :meth:`get` returns it.
        """
        with self._lock:
            self._insert(key, value)
            self.stats.stores += 1
        self._note("store", stage)
        if self.disk_dir is not None:
            self._store_on_disk(key, value)

    def _insert(self, key: str, value: object) -> None:
        """Insert under the held lock, evicting the LRU tail."""
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
            metrics().inc("pipeline.cache.evict")

    def _store_on_disk(self, key: str, value: object) -> None:
        path = self._disk_path(key)
        try:
            payload = pickle.dumps(value)
        except Exception:  # noqa: BLE001 - any artifact may be exotic
            self.stats.disk_errors += 1
            metrics().inc("pipeline.cache.unpicklable")
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=str(path.parent),
                                        suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(temp, path)
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.disk_errors += 1
            return
        self.stats.disk_stores += 1
        metrics().inc("pipeline.cache.disk_store")

    def __reduce__(self):
        # Crossing a process boundary: arrive as the receiving
        # process's worker cache over the same disk tier.
        return (worker_cache, (str(self.disk_dir or ""),))

    # -- housekeeping ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier, if any, survives)."""
        with self._lock:
            self._memory.clear()


#: Per-process caches an unpickled :class:`ArtifactCache` resolves to,
#: keyed by resolved disk directory (``""``: memory only).
_WORKER_CACHES: Dict[str, ArtifactCache] = {}
_WORKER_CACHES_LOCK = threading.Lock()


def worker_cache(disk_dir: str) -> ArtifactCache:
    """This process's :class:`ArtifactCache` over ``disk_dir``
    (``""``: a memory-only one)."""
    key = str(Path(disk_dir).resolve()) if disk_dir else ""
    with _WORKER_CACHES_LOCK:
        cache = _WORKER_CACHES.get(key)
        if cache is None:
            cache = ArtifactCache(disk_dir=key or None)
            _WORKER_CACHES[key] = cache
        return cache


def worker_stats() -> Dict[str, object]:
    """The counters of every worker cache of this process, summed
    (a :meth:`CacheStats.as_dict` snapshot)."""
    total = CacheStats()
    with _WORKER_CACHES_LOCK:
        for cache in _WORKER_CACHES.values():
            total.apply_delta(cache.stats.as_dict())
    return total.as_dict()
