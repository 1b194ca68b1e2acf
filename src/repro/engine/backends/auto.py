"""Cost-aware composite backend: route each task to the pool it deserves.

The per-task backends treat every stage uniformly, which wastes either
side of the cost spectrum: a timing replay shipped to a process pool
pays to pickle its multi-megabyte trace dependency out and its result
back, while a compile on a thread pool serializes real work behind the
GIL.  :class:`AutoBackend` closes that gap with one rule, stated in the
units both tables share (process-pool dispatch = 1.0):

    route a task to the heavyweight pool only when its estimated
    compute (:func:`repro.engine.tasks.stage_cost`) is at least the
    pool's ``dispatch_cost``; otherwise keep it on threads.

With the default tables that sends ``replay`` (cost 0.5) to the thread
pool and ``compile``/``run``/``synthesize``/clone stages — and any
stage the table doesn't know — to the process pool.  Attaching a
learned cost model (``cost_model=`` — anything with ``cost(stage)`` in
the same units, typically :class:`repro.serve.costs.CostModel`) swaps
the estimate for an EWMA over measured stage wall-clock, so routing
follows reality when it diverges from the static prior.  Routing decisions
are recorded on the instance (``routed`` counts per pool,
``routed_stages`` stage → pool), which is the accounting the tests and
the acceptance criteria assert against.

Two consequences of the design are worth stating plainly:

* the scheduler resolves cache hits parent-side before dispatch, so
  *warm* replays never reach any pool — what the thread pool actually
  receives are cold replays, where thread dispatch trades the process
  pool's per-task trace pickling for GIL-serialized execution.  That
  trade favors threads for the mixed graphs this backend targets
  (replays interleaved with heavy compiles that keep the process pool
  busy); a replay-only cold storm would parallelize better on
  ``process``, which stays one ``--backend`` flag away.
* each pool is sized to ``workers``.  Thread-pool tasks are GIL-bound
  Python, so they add at most roughly one core of CPU on top of the
  process workers — not ``2×workers`` — but strict single-budget
  accounting should use a simple backend.

The composite does not persist worker-side (``persists = False``): the
scheduler writes every result from the parent, so mixed graphs keep one
uniform accounting no matter which pool computed a node.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any

from repro.engine.backends.base import ExecutionBackend, register_backend
from repro.engine.backends.local import ProcessPoolBackend
from repro.engine.tasks import Task, stage_cost


@register_backend
class AutoBackend(ExecutionBackend):
    """Composite thread+process backend routed by the stage cost table."""

    name = "auto"
    # Dispatch overhead of the composite is whichever pool a task lands
    # on; advertise the cheap side, a thread handoff (routing already
    # accounts for the expensive one).
    dispatch_cost = 0.05

    #: A stage at least this expensive amortizes process-pool dispatch.
    heavy_cost: float = ProcessPoolBackend.dispatch_cost

    def __init__(self, workers: int = 1, cost_model=None):
        super().__init__(workers)
        #: Optional learned cost source — anything with a
        #: ``cost(stage) -> float`` in static-table units, typically a
        #: :class:`repro.serve.costs.CostModel`.  When set, routing
        #: follows measured history (EWMA over observed wall-clock)
        #: instead of the static table, so a stage whose real cost
        #: diverges from its estimate re-routes itself.
        self.cost_model = cost_model
        self._threads: ThreadPoolExecutor | None = None
        self._processes: ProcessPoolExecutor | None = None
        #: Dispatch accounting: pool name -> tasks routed there.
        self.routed: Counter = Counter()
        #: stage -> pool name it was last routed to.
        self.routed_stages: dict[str, str] = {}

    def task_cost(self, stage: str) -> float:
        """The cost estimate routing uses: learned when a cost model is
        attached, the static table otherwise."""
        if self.cost_model is not None:
            return self.cost_model.cost(stage)
        return stage_cost(stage)

    def route(self, task: Task) -> str:
        """``"process"`` or ``"thread"`` for *task*, by the cost rule."""
        return "process" if self.task_cost(task.stage) >= self.heavy_cost \
            else "thread"

    def submit(self, task: Task, deps: dict[str, Any]) -> Future:
        pool_name = self.route(task)
        self.routed[pool_name] += 1
        self.routed_stages[task.stage] = pool_name
        if pool_name == "process":
            if self._processes is None:  # lazy, like the simple pools
                self._processes = ProcessPoolExecutor(
                    max_workers=self.workers)
            pool = self._processes
        else:
            if self._threads is None:
                self._threads = ThreadPoolExecutor(max_workers=self.workers)
            pool = self._threads
        return pool.submit(self.context.runner, task, deps)

    def shutdown(self) -> None:
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        if self._processes is not None:
            self._processes.shutdown(wait=True)
            self._processes = None
