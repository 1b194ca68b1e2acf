"""The :class:`ExecutionBackend` contract and the backend registry.

A backend owns *how* task stages execute — in-process, on a process
pool, or in isolated shard subprocesses — while the scheduler
(:func:`repro.engine.scheduler.run_graph`) keeps owning *what* runs:
topological ordering, cache probing, dependency resolution, and store
accounting.  The scheduler's single probe pass resolves every memo
entry and cache hit first, so a backend only ever receives the pending
nodes — the misses a run actually has to execute.  The split is the
seam remote/distributed execution plugs into: a new backend only has
to honor this module's contract.

Contract
--------

Per-task backends implement ``submit(task, deps) -> Future`` (a
:class:`concurrent.futures.Future` or anything with the same
``done()``/``result()`` surface) plus the lifecycle hooks ``start`` and
``shutdown``.  The scheduler calls ``start(context)`` once before the
first submit, drains completions with ``wait``, and always calls
``shutdown`` — including on error paths.

Capability flags refine how the scheduler drives a backend:

* ``deterministic`` — execution follows the scheduler's sorted-ready
  order exactly (``workers=1`` semantics); results are byte-for-byte
  reproducible across runs.
* ``persists`` — workers write their own results into the store (the
  scheduler then only accounts for the put instead of re-writing).
* ``whole_graph`` — the backend takes entire task graphs via
  ``execute_graph`` (sharded/remote backends that partition work);
  ``submit`` is never called.

``dispatch_cost`` is the contract's scheduling hint: the relative
per-task overhead of handing work to this backend (a synchronous call
≪ pickling to a process pool ≪ spawning a shard subprocess), on a scale
where process-pool dispatch is 1.0.  Cost-aware composites — the
``auto`` backend — compare it against the scheduler's per-stage cost
table (:data:`repro.engine.tasks.STAGE_COSTS`) so a stage cheaper than
a pool's dispatch overhead is never shipped to that pool.

Selection
---------

Backends register by name (:func:`register_backend`).  Resolution order
for :func:`resolve_backend`: an explicit instance or name, the
``REPRO_BACKEND`` environment variable, then the default — ``inline``
for ``workers <= 1`` (preserving deterministic serial semantics),
``process`` otherwise (the historical multiprocessing fan-out).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable

from repro.engine.store import ArtifactStore, toolchain_fingerprint
from repro.engine.tasks import Task

#: Environment variable naming the default backend.
BACKEND_ENV = "REPRO_BACKEND"


@dataclass
class ExecutionContext:
    """Everything a backend needs to run stages: the shared store handle
    plus the (picklable) stage executor and content-address recipe.

    *metrics* and *tracer* are the scheduler's observability handles
    (``repro.obs``), or ``None`` when the run is uninstrumented.
    Whole-graph backends use them to fold worker-side registry
    snapshots and spans back into the parent (see
    ``backends.shard.SubprocessShardBackend.execute_graph``)."""

    store: ArtifactStore | None
    runner: Callable[[Task, dict], Any]
    keyer: Callable[[Task], dict]
    metrics: Any = None
    tracer: Any = None
    _store_spec: tuple | None = field(default=None, init=False, repr=False)

    def store_spec(self) -> tuple | None:
        """``(root, schema_version, toolchain)`` for worker-side store
        handles, or ``None`` when caching is off.

        The toolchain digest is resolved here, once per run, so workers
        don't each re-hash the whole package (and can't diverge if a
        source file changes mid-run).
        """
        if self.store is None:
            return None
        if self._store_spec is None:
            self._store_spec = (
                self.store.root,
                self.store.schema_version,
                self.store.toolchain or toolchain_fingerprint(),
            )
        return self._store_spec


class ExecutionBackend(ABC):
    """Where task stages run.  See the module docstring for the contract."""

    #: Registry name (``--backend`` / ``REPRO_BACKEND`` value).
    name: ClassVar[str]
    #: Execution follows the deterministic sorted-ready order.
    deterministic: ClassVar[bool] = False
    #: Workers persist results into the store themselves.
    persists: ClassVar[bool] = False
    #: The backend executes whole graphs (``execute_graph``), not tasks.
    whole_graph: ClassVar[bool] = False
    #: Relative per-task dispatch overhead (process-pool dispatch = 1.0).
    dispatch_cost: ClassVar[float] = 1.0

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self.context: ExecutionContext | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, context: ExecutionContext) -> None:
        """Called once per graph before the first ``submit``."""
        self.context = context

    def shutdown(self) -> None:
        """Called once per graph, on success and on error paths alike."""

    # -- execution ---------------------------------------------------------

    @abstractmethod
    def submit(self, task: Task, deps: dict[str, Any]) -> Future:
        """Begin executing *task* with its resolved *deps*; returns a
        future for the stage result."""

    def wait(self, pending: Iterable[Future]) -> set[Future]:
        """Block until at least one pending future completes."""
        done, _ = futures_wait(list(pending), return_when=FIRST_COMPLETED)
        return done

    def execute_graph(self, graph: dict[str, Task], pending: list[Task],
                      resolved: dict[str, Any],
                      context: ExecutionContext) -> dict[str, Any]:
        """Whole-graph capability hook (``whole_graph`` backends only).

        *pending* lists the tasks the scheduler's probe pass could not
        resolve from the memo or store, in deterministic topological
        order; every dep of a pending task is either pending itself or
        in *resolved*, which maps the task ids the probe pass resolved
        to their values (nodes no pending task needs are absent: their
        payloads are never loaded).  Returns ``{task_id: result}`` for
        every pending task.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not execute whole graphs"
        )


# -- registry ----------------------------------------------------------------

_REGISTRY: dict[str, type[ExecutionBackend]] = {}


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Class decorator adding a backend to the registry by its ``name``."""
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> type[ExecutionBackend]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r} "
            f"(available: {', '.join(backend_names())})"
        ) from None


def default_backend_name(workers: int = 1) -> str:
    """``$REPRO_BACKEND``, else inline for serial runs, process for
    parallel ones — the pre-backend behavior, now spelled out."""
    env = os.environ.get(BACKEND_ENV)
    if env:
        return env
    return "inline" if workers <= 1 else "process"


def resolve_backend(backend: "ExecutionBackend | str | None" = None,
                    workers: int = 1) -> ExecutionBackend:
    """Resolve a backend spec (instance, name, or ``None``) to a ready
    instance; ``None`` falls back to :func:`default_backend_name`."""
    if isinstance(backend, ExecutionBackend):
        return backend
    name = backend or default_backend_name(workers)
    return get_backend(name)(workers=workers)
