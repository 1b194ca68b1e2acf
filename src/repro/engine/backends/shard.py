"""Sharded subprocess execution: partition a graph, run isolated workers.

:class:`SubprocessShardBackend` splits the unresolved portion of a task
graph into dependency-closed shards (weakly-connected components,
balanced across ``workers``), launches each shard as an isolated
``python -m repro.engine.shard`` worker process with its **own private
store handle**, and merges everything back through the content-addressed
store: each worker exports exactly the keys it computed
(:meth:`ArtifactStore.export_keys`) and the parent absorbs them
(:meth:`ArtifactStore.import_keys`).  Results needed for the caller ride
back in each shard's output pickle.

Because a shard never shares a store or an address space with its
siblings, this is the local stand-in for remote execution: an SSH or
cluster backend replaces the ``subprocess.Popen`` call and ships the
export directory over the wire, and nothing else changes.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.engine.backends.base import (
    ExecutionBackend,
    ExecutionContext,
    register_backend,
)
from repro.engine.tasks import Task


class ShardError(RuntimeError):
    """A shard worker failed without a picklable original exception."""


def partition_components(graph: dict[str, Task],
                         pending: list[Task]) -> list[list[str]]:
    """Weakly-connected components of the *pending* subgraph.

    Edges are dependency links between two pending tasks; links to
    already-resolved tasks don't connect components (their values are
    shipped to whichever shard needs them).  Components come back as
    sorted id lists, ordered by their smallest id — fully deterministic.
    """
    pending_ids = {task.id for task in pending}
    parent = {task_id: task_id for task_id in pending_ids}

    def find(task_id: str) -> str:
        root = task_id
        while parent[root] != root:
            root = parent[root]
        while parent[task_id] != root:  # path compression
            parent[task_id], task_id = root, parent[task_id]
        return root

    for task in pending:
        for dep in task.deps:
            if dep in pending_ids:
                left, right = sorted((find(task.id), find(dep)))
                parent[right] = left

    components: dict[str, list[str]] = {}
    for task_id in pending_ids:
        components.setdefault(find(task_id), []).append(task_id)
    return sorted((sorted(ids) for ids in components.values()),
                  key=lambda ids: ids[0])


def balance_shards(components: list[list[str]],
                   shards: int) -> list[list[str]]:
    """Pack components into at most *shards* bins, largest-first onto
    the least-loaded bin (deterministic ties: lowest bin index)."""
    count = max(1, min(shards, len(components)))
    bins: list[list[str]] = [[] for _ in range(count)]
    loads = [0] * count
    for component in sorted(components, key=lambda ids: (-len(ids), ids[0])):
        index = loads.index(min(loads))
        bins[index].extend(component)
        loads[index] += len(component)
    return [sorted(ids) for ids in bins if ids]


@register_backend
class SubprocessShardBackend(ExecutionBackend):
    """Partitioned execution in isolated worker processes."""

    name = "shard"
    whole_graph = True
    persists = True  # shards persist; the parent imports their exports
    dispatch_cost = 25.0  # subprocess spawn + pickle round trip

    def submit(self, task: Task, deps: dict[str, Any]):
        raise RuntimeError(
            "SubprocessShardBackend executes whole graphs; "
            "drive it through run_graph()"
        )

    # -- shard construction ------------------------------------------------

    def _shard_spec(self, graph: dict[str, Task], shard_ids: list[str],
                    resolved: dict[str, Any], context: ExecutionContext,
                    shard_dir: Path) -> dict:
        """The worker's input payload: a dependency-closed subgraph plus
        the resolved values it reads at its boundary.

        Resolved boundary tasks are included with their deps stripped,
        inputs too (which would refill them) — they never execute (their
        value ships in ``preloaded``), so the worker's graph stays closed
        without dragging in the transitive history behind them.
        """
        subgraph = {task_id: graph[task_id] for task_id in shard_ids}
        preloaded: dict[str, Any] = {}
        for task_id in shard_ids:
            for dep in graph[task_id].deps:
                if dep not in subgraph:
                    preloaded[dep] = resolved[dep]
                    subgraph[dep] = replace(graph[dep], deps=(), inputs=())
        spec = {
            "graph": subgraph,
            "preloaded": preloaded,
            "runner": context.runner,
            "keyer": context.keyer,
            "store_spec": None,
            "export_dir": None,
            # Observability flags: a worker asked for metrics ships a
            # registry snapshot back (merged into the parent's via the
            # same commutative seam store stats already use); one asked
            # for tracing ships its spans plus its wall-clock epoch so
            # the parent can remap them onto its own timeline.
            "metrics": context.metrics is not None,
            "trace": context.tracer is not None,
        }
        if context.store is not None:
            _, schema_version, toolchain = context.store_spec()
            # Own store handle per shard: a private root the worker
            # fills, then exports from — the isolation a future remote
            # backend inherits unchanged.
            spec["store_spec"] = (str(shard_dir / "store"), schema_version,
                                  toolchain)
            spec["export_dir"] = str(shard_dir / "export")
        return spec

    @staticmethod
    def _worker_env() -> dict[str, str]:
        """Propagate the parent's import path so workers can unpickle
        runner/keyer references from any currently-importable module."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            dict.fromkeys(p for p in sys.path if p)
        )
        return env

    # -- execution ---------------------------------------------------------

    #: Seconds a terminated worker gets to drain its in-flight task and
    #: write its payload before the parent resorts to SIGKILL.
    shutdown_grace: float = 10.0

    def _reap(self, launched) -> None:
        """Terminate still-running workers gracefully: SIGTERM (the
        worker drains, persists, exits 0), a grace period, then SIGKILL.
        No-op on the normal path, where every worker already exited."""
        alive = [proc for _, _, proc in launched if proc.poll() is None]
        for proc in alive:
            proc.terminate()
        deadline = time.monotonic() + self.shutdown_grace
        for proc in alive:
            try:
                proc.communicate(
                    timeout=max(0.1, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()

    def execute_graph(self, graph: dict[str, Task], pending: list[Task],
                      resolved: dict[str, Any],
                      context: ExecutionContext) -> dict[str, Any]:
        shards = balance_shards(
            partition_components(graph, pending), self.workers
        )
        computed: dict[str, Any] = {}
        with tempfile.TemporaryDirectory(prefix="repro-shard-") as tmp:
            launched = []
            try:
                for index, shard_ids in enumerate(shards):
                    shard_dir = Path(tmp) / f"shard{index:02d}"
                    shard_dir.mkdir(parents=True)
                    spec = self._shard_spec(graph, shard_ids, resolved,
                                            context, shard_dir)
                    input_path = shard_dir / "in.pkl"
                    output_path = shard_dir / "out.pkl"
                    with open(input_path, "wb") as fh:
                        pickle.dump(spec, fh,
                                    protocol=pickle.HIGHEST_PROTOCOL)
                    proc = subprocess.Popen(
                        [sys.executable, "-m", "repro.engine.shard",
                         "--input", str(input_path),
                         "--output", str(output_path)],
                        env=self._worker_env(),
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE,
                        text=True,
                    )
                    launched.append((shard_dir, output_path, proc))

                failures: list[BaseException] = []
                drained = False
                for shard_dir, output_path, proc in launched:
                    _, stderr = proc.communicate()
                    payload = None
                    if output_path.exists():
                        with open(output_path, "rb") as fh:
                            payload = pickle.load(fh)
                    if payload is None:
                        failures.append(ShardError(
                            f"shard worker exited with status "
                            f"{proc.returncode} and no output\n"
                            f"{stderr.strip()}"
                        ))
                        continue
                    if "error" in payload:
                        failures.append(payload["error"])
                        continue
                    computed.update(payload["results"])
                    drained = drained or payload.get("drained", False)
                    if context.metrics is not None and payload.get("metrics"):
                        context.metrics.merge(payload["metrics"])
                    if context.tracer is not None and payload.get("spans"):
                        context.tracer.absorb(payload["spans"],
                                              payload.get("trace_epoch_wall"))
                    if context.store is not None and payload["export_dir"]:
                        context.store.import_keys(payload["export_dir"])
                if failures:
                    raise failures[0]
                if drained:
                    # A worker was told to drain (SIGTERM mid-run): the
                    # finished prefix is already persisted and imported,
                    # so the interrupted remainder is a cache-resume
                    # away — report it rather than fabricate results.
                    raise ShardError(
                        "shard worker(s) drained before completing "
                        f"({len(computed)}/{len(pending)} tasks finished "
                        "and persisted; re-run resumes from the store)"
                    )
            finally:
                # Error paths (a failed sibling, KeyboardInterrupt in
                # the parent) must not orphan worker subprocesses.
                self._reap(launched)
        return computed
