"""Request coalescing: share in-flight work across concurrent clients.

Two layers, both content-addressed:

* **Submission coalescing** (:class:`Coalescer`) — submissions
  normalize to a canonical job key (see :func:`repro.serve.jobs.job_key`);
  a submission whose key matches a queued or running job attaches to it
  as a *waiter* instead of spawning a duplicate: one execution, N
  byte-identical results.  A thousand users asking for the same figure
  share one in-flight graph.
* **Node coalescing** (:class:`KeyedMutex` + :class:`CoalescingRunner`)
  — distinct jobs whose graphs merely *overlap* share at node
  granularity: before executing a task, the runner takes a per-artifact
  mutex keyed by the node's store address and re-probes the shared
  store under it.  Whichever job gets there first computes and persists;
  everyone else's probe hits.  One compile serves every waiter, even
  across different job kinds.

The node layer lives in the daemon's address space, so it covers the
in-process backends the daemon runs (``inline`` and ``auto``'s
thread side).  Stages a backend ships to worker processes fall back to
the store's last-write-wins atomicity — still correct, at worst
duplicated effort.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.engine.store import ArtifactStore

_MISS = object()


def _unwrapped(runner):
    return runner


class KeyedMutex:
    """A mutex per key, created on demand and dropped when idle."""

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._entries: dict[str, list] = {}  # key -> [lock, holders]

    @contextmanager
    def holding(self, key: str):
        with self._guard:
            entry = self._entries.get(key)
            if entry is None:
                entry = [threading.Lock(), 0]
                self._entries[key] = entry
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._guard:
                entry[1] -= 1
                if entry[1] == 0:
                    self._entries.pop(key, None)

    def active_keys(self) -> int:
        with self._guard:
            return len(self._entries)


class CoalescingRunner:
    """Stage-runner wrapper that makes overlapping jobs share nodes.

    Wraps the engine's ``runner(task, deps)`` contract.  Execution of a
    node serializes on its content key; the loser of the race re-probes
    the store under the mutex and returns the winner's artifact instead
    of recomputing it.  Probes go through a private store handle (same
    root, separate counters) so coalescing bookkeeping never pollutes
    the daemon's headline hit/miss accounting.

    Counters: ``executed`` nodes this runner actually computed,
    ``coalesced`` executions it skipped because another job's result
    landed first.
    """

    def __init__(self, store: ArtifactStore | None, runner, keyer,
                 mutex: KeyedMutex | None = None) -> None:
        self.runner = runner
        self.keyer = keyer
        self.mutex = mutex if mutex is not None else KeyedMutex()
        self._store = None if store is None else ArtifactStore(
            root=store.root, schema_version=store.schema_version,
            toolchain=store.toolchain, max_bytes=None,
        )
        self._lock = threading.Lock()
        self.executed = 0
        self.coalesced = 0

    def __call__(self, task, deps):
        if self._store is None:
            return self.runner(task, deps)
        key = self._store.key_for(task.stage, **self.keyer(task))
        with self.mutex.holding(key):
            cached = self._store.get(key, _MISS)
            if cached is not _MISS:
                with self._lock:
                    self.coalesced += 1
                return cached
            value = self.runner(task, deps)
            # Persist under the mutex so a waiter's re-probe is already
            # a hit the moment it unblocks.  The scheduler's own put
            # then overwrites with identical bytes (atomic, safe).
            self._store.put(key, value, stage=task.stage)
            with self._lock:
                self.executed += 1
            return value

    def __reduce__(self):
        # Execution contexts are pickled to process/shard workers, and
        # our mutexes can't cross that boundary (nor would they help —
        # coalescing is an address-space property).  Degrade to the
        # wrapped runner; cross-process overlap falls back to the
        # store's last-write-wins atomicity.
        return (_unwrapped, (self.runner,))

    def snapshot(self) -> dict:
        with self._lock:
            return {"executed": self.executed, "coalesced": self.coalesced,
                    "in_flight_keys": self.mutex.active_keys()}


class Coalescer:
    """Submission-level index: job key → live (unfinished) job."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active: dict[str, object] = {}
        self.hits = 0
        self.misses = 0

    def attach_or_register(self, key: str, factory):
        """``(job, coalesced)`` — the live job for *key*, attaching to
        it when one is in flight, else registering ``factory()``."""
        with self._lock:
            job = self._active.get(key)
            if job is not None and not job.finished:
                job.add_waiter()
                self.hits += 1
                return job, True
            job = factory()
            self._active[key] = job
            self.misses += 1
            return job, False

    def release(self, key: str, job) -> None:
        """Drop the in-flight registration once *job* finishes (later
        identical submissions start fresh — and likely resolve warm)."""
        with self._lock:
            if self._active.get(key) is job:
                del self._active[key]

    def snapshot(self) -> dict:
        with self._lock:
            return {"in_flight": len(self._active), "hits": self.hits,
                    "misses": self.misses}
