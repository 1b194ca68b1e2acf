"""Topological DAG scheduler over pluggable execution backends.

:func:`run_graph` resolves a ``{task_id: Task}`` graph: every lookup in
the engine — a whole experiment grid or one figure's chain — goes
through it.  The scheduler owns ordering, cache probing, dependency
resolution, and store accounting; *where* stages run belongs to an
:class:`~repro.engine.backends.ExecutionBackend` (``inline``,
``process``, ``shard``, ``auto``, or anything registered by a third
party).  ``workers=1`` with no explicit backend resolves to the inline
backend and stays byte-for-byte deterministic (Kahn + sorted-ready
order); ``workers>1`` defaults to the process pool, the historical
fan-out, unless ``REPRO_BACKEND`` or the ``backend`` argument says
otherwise.  The scheduler's per-stage cost table lives in
:data:`repro.engine.tasks.STAGE_COSTS`; cost-aware backends (``auto``)
compare it against each pool's ``dispatch_cost`` to route cheap
replays to threads and heavy compiles to processes.

Cache discipline: one probe pass walks the graph backwards from its
sinks before anything is dispatched.  A needed node is taken from the
caller's memo (``preloaded``) or probed once in the store: a hit
resolves it and leaves its dependencies unread, a miss (counted toward
``store.stats.misses``) makes it pending and its dependencies needed.
Lookups are therefore lazy — a hit whose dependents are all hits never
loads its payload — and only the pending nodes reach the backend.
Backends that persist results themselves (``persists=True`` — the
process pool and shard backends) write through their own store handles
and the parent only accounts for the put, so a warm run reports zero
misses and performs zero compiles/runs no matter the backend.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.engine.backends import resolve_backend
from repro.engine.backends.base import ExecutionContext
from repro.engine.store import ArtifactStore
from repro.engine.tasks import Task, key_fields, run_stage

_MISS = object()


class GraphError(ValueError):
    """Raised for cyclic graphs or dangling dependency references."""


def topological_order(graph: dict[str, Task]) -> list[Task]:
    """Deterministic topological order (Kahn's algorithm, sorted ties)."""
    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {task_id: [] for task_id in graph}
    for task in graph.values():
        count = 0
        for dep in task.deps:
            if dep not in graph:
                raise GraphError(f"{task.id} depends on unknown task {dep!r}")
            dependents[dep].append(task.id)
            count += 1
        indegree[task.id] = count

    ready = sorted(task_id for task_id, deg in indegree.items() if deg == 0)
    order: list[Task] = []
    while ready:
        task_id = ready.pop(0)
        order.append(graph[task_id])
        newly_ready = []
        for child in dependents[task_id]:
            indegree[child] -= 1
            if indegree[child] == 0:
                newly_ready.append(child)
        if newly_ready:
            ready = sorted(ready + newly_ready)
    if len(order) != len(graph):
        unreached = sorted(set(graph) - {task.id for task in order})
        raise GraphError(f"dependency cycle involving: {', '.join(unreached)}")
    return order


def run_graph(
    graph: dict[str, Task],
    workers: int = 1,
    store: ArtifactStore | None = None,
    preloaded: Mapping[str, Any] | None = None,
    runner=run_stage,
    keyer=key_fields,
    backend=None,
    on_timing=None,
    stop=None,
    metrics=None,
    tracer=None,
) -> dict[str, Any]:
    """Resolve *graph*; returns ``{task_id: result}`` for every sink,
    plus every node the run loaded from the store or computed.

    Nodes whose ids appear in *preloaded* are taken as already resolved
    (no store lookup, no execution) — the engine passes its in-process
    memo here.  The mapping is read by id and never iterated, so its
    size costs nothing and other threads may add to it meanwhile.
    *runner* and *keyer* default to the experiment pipeline's stage
    executor and content-address recipe; tests (or future non-pipeline
    graphs) may substitute any picklable pair.

    *backend* selects where stages run: an
    :class:`~repro.engine.backends.ExecutionBackend` instance, a
    registered name (``inline``/``process``/``shard``/``auto``), or
    ``None`` for the default (``$REPRO_BACKEND``, else inline when
    ``workers <= 1``, else the process pool).

    *on_timing* — ``callable(stage, seconds)`` — observes each executed
    node's submit-to-completion wall-clock (cache hits are never
    reported).  The same measurement lands in the provenance sidecar of
    every parent-persisted put; worker-persisting backends record their
    own (exact, worker-side) seconds instead.  Whole-graph backends
    (``shard``) time inside their workers only.

    *stop* — ``callable() -> bool`` — polled before each dispatch; once
    true the scheduler submits nothing further, drains what is already
    in flight (persisting the results), and returns the partial result
    map, in which some sinks are missing.  This is the graceful-drain
    hook SIGTERM handling is built on.

    *metrics* — a :class:`repro.obs.MetricsRegistry` — collects cache
    probe outcomes, executed-stage counts, store-op deltas, and
    (volatile) ready-queue depth and dispatch latency.  *tracer* — a
    :class:`repro.obs.Tracer` — records one span per probed or executed
    node (category = stage, cache outcome in ``args``) plus a root
    ``run_graph`` span; shard workers report their own spans, which the
    backend remaps onto this tracer's timeline.  The store-op and
    cache-probe accounting is parent-side and therefore identical
    across backends for the same graph and store state.
    """
    order = topological_order(graph)
    if not graph:
        return {}
    if backend is None and len(graph) <= 1:
        # Nothing to fan out; don't pay pool startup for one node.  An
        # explicit backend choice is honored even here.
        backend = "inline"
    backend = resolve_backend(backend, workers=workers)
    if tracer is not None:
        # Worker threads record exact in-worker stage spans; the wrapper
        # degrades to the bare runner under pickling (process/shard),
        # where the parent-side dispatch span or the worker's own tracer
        # covers the node instead.
        from repro.obs.trace import TracedRunner
        runner = TracedRunner(tracer, runner)
    context = ExecutionContext(store=store, runner=runner, keyer=keyer,
                               metrics=metrics, tracer=tracer)
    stats_before = (store.stats.as_dict()
                    if metrics is not None and store is not None else None)
    root_start = tracer.now() if tracer is not None else 0.0

    try:
        results, pending, keys = _probe(graph, order, preloaded or {},
                                        store, context)
        if pending and backend.whole_graph:
            backend.start(context)
            try:
                results.update(backend.execute_graph(graph, pending,
                                                     dict(results), context))
            finally:
                backend.shutdown()
        elif pending:
            _run_submitting(pending, keys, results, store, backend, context,
                            on_timing=on_timing, stop=stop)
        if (store is not None and backend.persists
                and store.max_bytes is not None):
            # Workers write uncapped (see backends.local/shard); settle
            # the size cap once now that the run is complete.
            store.evict(max_bytes=store.max_bytes)
    finally:
        if tracer is not None:
            tracer.add_span("run_graph", "scheduler", root_start,
                            tracer.now() - root_start,
                            {"nodes": len(graph), "backend": backend.name})
        if stats_before is not None:
            for op, value in store.stats.as_dict().items():
                delta = value - stats_before.get(op, 0)
                if delta:
                    metrics.count("engine_store_ops", delta, tag=op,
                                  label="op")
    return results


def sinks(graph: dict[str, Task]) -> list[str]:
    """Ids of the nodes no other node of *graph* depends on, sorted."""
    deps = {dep for task in graph.values() for dep in task.deps}
    return sorted(task_id for task_id in graph if task_id not in deps)


def _probe(graph: dict[str, Task], order: list[Task], preloaded,
           store: ArtifactStore | None, context: ExecutionContext):
    """The one probe pass: resolve what a run needs, sinks first.

    Walks *order* backwards from the sinks.  A needed node is taken from
    *preloaded* (read by id, never iterated), else probed in *store*: a
    hit resolves it and leaves its deps unread, a miss makes it pending
    and its deps needed.  Returns ``(results, pending, keys)`` —
    resolved values, the pending tasks in topological order, and their
    store keys.  Hit/miss metrics and hit spans are recorded here.
    """
    metrics, tracer = context.metrics, context.tracer
    needed = set(sinks(graph))
    results: dict[str, Any] = {}
    pending: list[Task] = []
    keys: dict[str, str] = {}
    for task in reversed(order):
        if task.id not in needed:
            continue
        value = preloaded.get(task.id, _MISS)
        if value is _MISS and store is not None:
            keys[task.id] = store.key_for(task.stage, **context.keyer(task))
            value = store.get(keys[task.id], _MISS)
            if metrics is not None:
                metrics.count("engine_cache", label="outcome",
                              tag="miss" if value is _MISS else "hit")
            if tracer is not None and value is not _MISS:
                tracer.add_span(task.id, task.stage, tracer.now(), 0.0,
                                {"outcome": "hit"})
        if value is _MISS:
            pending.append(task)
            needed.update(task.deps)
        else:
            results[task.id] = value
    pending.reverse()
    return results, pending, keys


def _run_submitting(pending_tasks, keys, results, store, backend, context,
                    on_timing=None, stop=None):
    """The generic submit/wait loop shared by all per-task backends:
    executes *pending_tasks*, whose deps are in *results* or pending."""
    metrics, tracer = context.metrics, context.tracer
    graph = {task.id: task for task in pending_tasks}
    indegree = {task.id: 0 for task in pending_tasks}
    dependents: dict[str, list[str]] = {task_id: [] for task_id in graph}
    for task in pending_tasks:
        for dep in task.deps:
            if dep in graph:
                dependents[dep].append(task.id)
                indegree[task.id] += 1

    ready = sorted(task_id for task_id, deg in indegree.items() if deg == 0)
    in_flight: dict = {}

    def harvest(done) -> None:
        for future in done:
            task_id, submitted_at = in_flight.pop(future)
            task = graph[task_id]
            value = future.result()
            elapsed = time.perf_counter() - submitted_at
            if store is not None:
                if backend.persists:
                    # The worker performed the actual write; account for
                    # it here so the parent's counters cover the run.
                    store.stats.puts += 1
                else:
                    store.put(keys[task_id], value, stage=task.stage,
                              seconds=elapsed)
            if on_timing is not None:
                on_timing(task.stage, elapsed)
            if metrics is not None:
                metrics.count("engine_stages_executed", tag=task.stage,
                              label="stage")
                workload = task.payload.get("workload")
                if workload:
                    metrics.count("engine_workload_stages", tag=workload,
                                  label="workload")
                metrics.observe_latency("engine_dispatch_seconds", elapsed,
                                        tags={"stage": task.stage})
            if tracer is not None:
                tracer.add_span(task_id, task.stage,
                                submitted_at - tracer.epoch_perf, elapsed,
                                {"outcome": "executed"})
            results[task_id] = value
            for child in dependents[task_id]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        ready.sort()

    backend.start(context)
    try:
        while ready or in_flight:
            while ready:
                if stop is not None and stop():
                    # Draining: dispatch nothing further.
                    ready.clear()
                    break
                task = graph[ready.pop(0)]
                deps = {dep: results[dep] for dep in task.deps}
                if metrics is not None:
                    # Queue depth at dispatch (this task included);
                    # interleaving-dependent, hence volatile.
                    metrics.observe("engine_ready_depth", len(ready) + 1,
                                    volatile=True)
                # Clock starts before submit: synchronous backends
                # (inline) do the work inside the call itself.
                submitted_at = time.perf_counter()
                future = backend.submit(task, deps)
                in_flight[future] = (task.id, submitted_at)
                if future.done():
                    # Synchronous backends complete in submit; harvest
                    # now so execution keeps the sorted-ready order.
                    harvest((future,))
            if not in_flight:
                break
            harvest(backend.wait(in_flight))
    finally:
        backend.shutdown()
