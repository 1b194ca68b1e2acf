"""``python -m repro.engine.shard`` — execute one shard of a task graph.

The worker half of
:class:`repro.engine.backends.shard.SubprocessShardBackend`.  Input is a
pickled spec (``--input``): a dependency-closed subgraph, preloaded
boundary values, the runner/keyer pair, and optionally a private store
spec plus an export directory.  The worker runs the subgraph inline
(deterministic order) against its own store handle, exports exactly the
keys it computed via :meth:`ArtifactStore.export_keys`, and writes a
pickled result payload (``--output``) for the parent to merge.

Failures are reported in-band: the original exception is pickled into
the output payload when possible (so the parent re-raises the real
thing), with a traceback on stderr either way.

Graceful shutdown: SIGTERM/SIGINT flip a drain flag the scheduler polls
between dispatches — the in-flight task finishes, everything already
computed is persisted and exported, the payload is written with
``"drained": True``, and the worker exits 0.  No partial artifacts, no
orphaned work: what the worker finished, the parent (or the next cold
run, via the store) keeps.
"""

from __future__ import annotations

import argparse
import pickle
import signal
import sys
import threading
import traceback

from repro.engine.store import ArtifactStore


def run_shard(spec: dict, stop=None) -> dict:
    """Execute one shard spec; returns the worker's output payload.

    *stop* — optional ``callable() -> bool`` polled between task
    dispatches (see :func:`repro.engine.scheduler.run_graph`); once true
    the shard stops submitting, persists and exports what it computed,
    and reports ``"drained": True``.
    """
    from repro.engine.scheduler import run_graph, sinks

    graph = spec["graph"]
    preloaded = spec.get("preloaded") or {}
    store = None
    store_spec = spec.get("store_spec")
    if store_spec is not None:
        root, schema_version, toolchain = store_spec
        store = ArtifactStore(root=root, schema_version=schema_version,
                              toolchain=toolchain, max_bytes=None)

    # Per-worker observability.  The registry records only what the
    # parent cannot see from outside — which stages actually executed
    # here, and how long each took — via the on_timing hook; the
    # worker's private-store probe/put counters stay out of the
    # snapshot because the parent's own accounting (probe misses before
    # sharding, puts on import) is authoritative and already
    # backend-invariant.  The tracer records full per-node spans, which
    # the parent remaps onto its timeline.
    registry = None
    if spec.get("metrics"):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
    tracer = None
    if spec.get("trace"):
        from repro.obs.trace import Tracer
        tracer = Tracer()

    def observe_stage(stage: str, seconds: float) -> None:
        registry.count("engine_stages_executed", tag=stage, label="stage")
        registry.observe_latency("engine_dispatch_seconds", seconds,
                                 tags={"stage": stage})

    # Per-workload execution counts ride the same seam: the runner is
    # invoked exactly once per executed (cache-missed) node, matching
    # the parent scheduler's engine_workload_stages accounting on the
    # non-sharded backends, so merged snapshots stay backend-invariant.
    stage_runner = spec["runner"]
    if registry is not None:
        base_runner = stage_runner

        def stage_runner(task, deps):
            workload = task.payload.get("workload")
            if workload:
                registry.count("engine_workload_stages", tag=workload,
                               label="workload")
            return base_runner(task, deps)

    results = run_graph(
        graph,
        workers=1,
        store=store,
        preloaded=preloaded,
        runner=stage_runner,
        keyer=spec["keyer"],
        backend="inline",
        on_timing=observe_stage if registry is not None else None,
        tracer=tracer,
        stop=stop,
    )
    computed = {task_id: value for task_id, value in results.items()
                if task_id not in preloaded}
    export_dir = spec.get("export_dir")
    exported = 0
    if store is not None and export_dir:
        keyer = spec["keyer"]
        keys = [
            store.key_for(graph[task_id].stage, **keyer(graph[task_id]))
            for task_id in sorted(computed)
        ]
        exported = store.export_keys(keys, export_dir)
    # run_graph returns every sink of a completed run (and only the
    # nodes it needed besides), so a missing sink is exactly a drain
    # that left pending tasks unexecuted.
    unexecuted = [task_id for task_id in sinks(graph)
                  if task_id not in results]
    drained = bool(stop is not None and stop() and unexecuted)
    payload = {"results": computed, "exported": exported,
               "export_dir": export_dir, "drained": drained}
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    if tracer is not None:
        payload["spans"] = tracer.spans()
        payload["trace_epoch_wall"] = tracer.epoch_wall
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.shard",
        description="Run one shard of a repro task graph (worker process "
                    "of the 'shard' execution backend).",
    )
    parser.add_argument("--input", required=True,
                        help="pickled shard spec to execute")
    parser.add_argument("--output", required=True,
                        help="where to write the pickled result payload")
    args = parser.parse_args(argv)

    with open(args.input, "rb") as fh:
        spec = pickle.load(fh)

    # SIGTERM/SIGINT request a drain, not an abort: finish the task in
    # flight, persist + export everything computed, exit 0.  The parent
    # backend relies on this when it terminates workers on its own
    # error paths — no orphaned subprocesses, no torn artifacts.
    drain = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: drain.set())
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    try:
        payload = run_shard(spec, stop=drain.is_set)
        status = 0
    except BaseException as exc:
        traceback.print_exc(file=sys.stderr)
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(
                f"shard failed with unpicklable "
                f"{type(exc).__name__}: {exc}"
            )
        payload = {"error": exc, "traceback": traceback.format_exc()}
        status = 1
    with open(args.output, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
