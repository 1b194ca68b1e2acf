"""Single-host backends: inline and process pool.

* :class:`InlineBackend` — runs every stage synchronously in the
  scheduler's own process, in the deterministic sorted-ready order
  (``workers=1`` semantics).  The baseline every other backend's
  results are conformance-tested against.
* :class:`ProcessPoolBackend` — the historical multiprocessing fan-out,
  now an implementation detail behind the backend interface.  Workers
  receive dependency results by pickle and persist what they compute
  through their own store handle, so artifacts survive no matter which
  process produced them.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any

from repro.engine.backends.base import (
    ExecutionBackend,
    ExecutionContext,
    register_backend,
)
from repro.engine.store import ArtifactStore
from repro.engine.tasks import Task


@register_backend
class InlineBackend(ExecutionBackend):
    """Synchronous in-process execution, deterministic order."""

    name = "inline"
    deterministic = True
    dispatch_cost = 0.0

    def submit(self, task: Task, deps: dict[str, Any]) -> Future:
        future: Future = Future()
        try:
            future.set_result(self.context.runner(task, deps))
        except BaseException as exc:  # propagate via Future.result()
            future.set_exception(exc)
        return future


def _execute_and_persist(task: Task, deps: dict[str, Any], store_spec,
                         runner, keyer):
    """Run one task in a pool worker, persisting the result if possible."""
    started = time.perf_counter()
    value = runner(task, deps)
    elapsed = time.perf_counter() - started
    if store_spec is not None:
        root, schema_version, toolchain = store_spec
        # max_bytes deliberately stays None here: per-task stores would
        # rescan the objects directory on every put and run concurrent
        # LRU sweeps; the parent enforces the cap once per run instead.
        store = ArtifactStore(root=root, schema_version=schema_version,
                              toolchain=toolchain, max_bytes=None)
        store.put(store.key_for(task.stage, **keyer(task)), value,
                  stage=task.stage, seconds=elapsed)
    return value


@register_backend
class ProcessPoolBackend(ExecutionBackend):
    """Multiprocessing fan-out with worker-side persistence."""

    name = "process"
    persists = True
    dispatch_cost = 1.0

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._pool: ProcessPoolExecutor | None = None

    def start(self, context: ExecutionContext) -> None:
        super().start(context)
        self._store_spec = context.store_spec()

    def submit(self, task: Task, deps: dict[str, Any]) -> Future:
        if self._pool is None:  # lazy: cache-only graphs never pay for it
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(),
            )
        return self._pool.submit(_execute_and_persist, task, deps,
                                 self._store_spec, self.context.runner,
                                 self.context.keyer)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
