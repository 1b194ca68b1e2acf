"""Backend conformance suite.

Every registered execution backend must produce the same results — and
byte-identical store artifacts — for the same graph: the diamond DAG,
a multi-component graph (what the shard backend actually partitions),
cold-vs-warm replay, and error propagation are exercised across all
four in-tree backends through the one scheduler entry point.
"""

import hashlib
from pathlib import Path

import pytest

from repro.engine.backends import (
    AutoBackend,
    BACKEND_ENV,
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    SubprocessShardBackend,
    backend_names,
    balance_shards,
    default_backend_name,
    partition_components,
    register_backend,
    resolve_backend,
)
from repro.engine.scheduler import run_graph
from repro.engine.store import ArtifactStore
from repro.engine.tasks import (
    DEFAULT_STAGE_COST,
    STAGE_COMPILE,
    STAGE_REPLAY,
    Task,
    stage_cost,
)

BACKENDS = ("inline", "process", "shard", "auto")


def _graph(*tasks: Task) -> dict[str, Task]:
    return {task.id: task for task in tasks}


# Module-level so worker processes can unpickle them by reference.
def arith_runner(task: Task, deps: dict) -> int:
    base = task.payload.get("value", 0)
    return base + sum(deps.values())


def arith_keyer(task: Task) -> dict:
    return {"value": task.payload.get("value", 0), "deps": sorted(task.deps)}


def _raise(task, deps):
    raise RuntimeError("stage failed")


DIAMOND = _graph(
    Task(id="top", stage="n", payload={"value": 1}),
    Task(id="left", stage="n", payload={"value": 10}, deps=("top",)),
    Task(id="right", stage="n", payload={"value": 100}, deps=("top",)),
    Task(id="bottom", stage="n", payload={"value": 1000},
         deps=("left", "right")),
)

# Three independent chains — what the shard backend splits apart.
COMPONENTS = _graph(
    Task(id="a0", stage="n", payload={"value": 1}),
    Task(id="a1", stage="n", payload={"value": 2}, deps=("a0",)),
    Task(id="b0", stage="n", payload={"value": 3}),
    Task(id="b1", stage="n", payload={"value": 4}, deps=("b0",)),
    Task(id="c0", stage="n", payload={"value": 5}),
)

DIAMOND_EXPECTED = {"top": 1, "left": 11, "right": 101, "bottom": 1112}
COMPONENTS_EXPECTED = {"a0": 1, "a1": 3, "b0": 3, "b1": 7, "c0": 5}


def _store_digests(store: ArtifactStore) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path, _, _ in store.entries()
    }


@pytest.mark.parametrize("backend", BACKENDS)
class TestConformance:
    def test_diamond_matches_inline(self, backend):
        results = run_graph(DIAMOND, workers=2, runner=arith_runner,
                            keyer=arith_keyer, backend=backend)
        assert results == DIAMOND_EXPECTED

    def test_multi_component_graph(self, backend):
        results = run_graph(COMPONENTS, workers=3, runner=arith_runner,
                            keyer=arith_keyer, backend=backend)
        assert results == COMPONENTS_EXPECTED

    def test_cold_then_warm_equivalence(self, backend, tmp_path):
        store = ArtifactStore(root=tmp_path)
        cold = run_graph(DIAMOND, workers=2, store=store,
                         runner=arith_runner, keyer=arith_keyer,
                         backend=backend)
        assert store.stats.misses == 4 and store.stats.puts == 4

        store.stats.reset()
        warm = run_graph(DIAMOND, workers=2, store=store,
                         runner=arith_runner, keyer=arith_keyer,
                         backend=backend)
        # Lazy from the sinks: only the warm sink is loaded.
        assert cold == DIAMOND_EXPECTED
        assert warm == {"bottom": 1112}
        assert store.stats.hits == 1 and store.stats.misses == 0
        assert store.stats.puts == 0

    def test_preloaded_nodes_not_recomputed(self, backend):
        results = run_graph(DIAMOND, workers=2, runner=arith_runner,
                            keyer=arith_keyer, preloaded={"top": 5},
                            backend=backend)
        assert results["top"] == 5
        assert results["bottom"] == 1000 + 15 + 105

    def test_exception_propagates(self, backend):
        graph = _graph(Task(id="a", stage="n"), Task(id="b", stage="n"))
        with pytest.raises(RuntimeError, match="stage failed"):
            run_graph(graph, workers=2, runner=_raise, keyer=arith_keyer,
                      backend=backend)


class TestIdenticalArtifacts:
    def test_all_backends_produce_identical_store_digests(self, tmp_path):
        digests = {}
        for backend in BACKENDS:
            store = ArtifactStore(root=tmp_path / backend)
            run_graph(COMPONENTS, workers=2, store=store,
                      runner=arith_runner, keyer=arith_keyer,
                      backend=backend)
            digests[backend] = _store_digests(store)
        baseline = digests["inline"]
        assert len(baseline) == len(COMPONENTS)
        for backend in BACKENDS:
            assert digests[backend] == baseline, backend

    def test_warm_replay_across_backends(self, tmp_path):
        """A store populated by one backend satisfies every other."""
        store = ArtifactStore(root=tmp_path)
        run_graph(DIAMOND, workers=2, store=store, runner=arith_runner,
                  keyer=arith_keyer, backend="shard")
        for backend in BACKENDS:
            store.stats.reset()
            results = run_graph(DIAMOND, workers=2, store=store,
                                runner=arith_runner, keyer=arith_keyer,
                                backend=backend)
            assert results == {"bottom": 1112}
            assert store.stats.misses == 0 and store.stats.hits == 1


class TestMetricsParity:
    """The registry merge seam is backend-invariant: identical
    non-volatile snapshots for the same graph across all backends."""

    @staticmethod
    def _run(backend, root):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = ArtifactStore(root=root)
        run_graph(COMPONENTS, workers=2, store=store,
                  runner=arith_runner, keyer=arith_keyer,
                  backend=backend, metrics=registry)
        return registry

    def test_cold_snapshots_identical_across_backends(self, tmp_path):
        snapshots = {
            backend: self._run(backend, tmp_path / backend)
            .snapshot(include_volatile=False)
            for backend in BACKENDS
        }
        baseline = snapshots["inline"]
        names = {e["name"] for e in baseline["metrics"]}
        assert {"engine_cache", "engine_stages_executed",
                "engine_store_ops"} <= names
        for backend in BACKENDS:
            assert snapshots[backend] == baseline, backend

    def test_warm_snapshots_identical_across_backends(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        run_graph(COMPONENTS, workers=2, store=store,
                  runner=arith_runner, keyer=arith_keyer, backend="inline")
        snapshots = {}
        for backend in BACKENDS:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            run_graph(COMPONENTS, workers=2, store=store,
                      runner=arith_runner, keyer=arith_keyer,
                      backend=backend, metrics=registry)
            snapshots[backend] = registry.snapshot(include_volatile=False)
        baseline = snapshots["inline"]
        entries = {e["name"]: e for e in baseline["metrics"]}
        # One hit per sink: a1, b1, c0; a0 and b0 are never loaded.
        assert entries["engine_cache"]["data"]["values"] == {"hit": 3}
        for backend in BACKENDS:
            assert snapshots[backend] == baseline, backend

    def test_volatile_metrics_present_but_excluded(self, tmp_path):
        registry = self._run("auto", tmp_path)
        full = {e["name"] for e in registry.snapshot()["metrics"]}
        stable = {e["name"] for e in
                  registry.snapshot(include_volatile=False)["metrics"]}
        assert "engine_dispatch_seconds" in full
        assert "engine_dispatch_seconds" not in stable
        assert "engine_ready_depth" not in stable


class TestResolution:
    def test_registry_names(self):
        assert set(BACKENDS) <= set(backend_names())

    def test_workers_one_defaults_to_inline(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(None, workers=1), InlineBackend)
        assert default_backend_name(1) == "inline"

    def test_parallel_defaults_to_process(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(None, workers=4),
                          ProcessPoolBackend)

    def test_env_var_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "auto")
        assert isinstance(resolve_backend(None, workers=4), AutoBackend)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "auto")
        assert isinstance(resolve_backend("shard", workers=2),
                          SubprocessShardBackend)

    def test_instance_passes_through(self):
        backend = AutoBackend(workers=3)
        assert resolve_backend(backend, workers=1) is backend

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="inline"):
            resolve_backend("ssh", workers=2)

    def test_third_party_registration(self):
        @register_backend
        class EchoBackend(InlineBackend):
            name = "test-echo"

        try:
            assert isinstance(resolve_backend("test-echo"), EchoBackend)
        finally:
            from repro.engine.backends import base

            base._REGISTRY.pop("test-echo")

    def test_inline_flags(self):
        assert InlineBackend.deterministic
        assert not InlineBackend.persists
        assert ProcessPoolBackend.persists
        assert SubprocessShardBackend.whole_graph
        assert not AutoBackend.persists  # parent writes for both pools

    def test_dispatch_costs_order_by_isolation(self):
        assert InlineBackend.dispatch_cost \
            < AutoBackend.dispatch_cost \
            < ProcessPoolBackend.dispatch_cost \
            < SubprocessShardBackend.dispatch_cost

    def test_shard_rejects_per_task_submit(self):
        with pytest.raises(RuntimeError, match="whole graphs"):
            SubprocessShardBackend(workers=2).submit(
                Task(id="t", stage="n"), {})

    def test_base_rejects_whole_graph_execution(self):
        backend = ProcessPoolBackend()
        with pytest.raises(NotImplementedError):
            backend.execute_graph({}, [], {}, None)


class TestAutoRouting:
    """The cost table × dispatch_cost routing rule, via the accounting
    the auto backend records per dispatch."""

    def _mixed_graph(self):
        # Stage names drive routing; arith_runner keeps execution cheap.
        return _graph(
            Task(id="c", stage=STAGE_COMPILE, payload={"value": 1}),
            Task(id="r", stage=STAGE_REPLAY, payload={"value": 10},
                 deps=("c",)),
        )

    def test_replay_goes_to_threads_compile_to_processes(self):
        backend = AutoBackend(workers=2)
        results = run_graph(self._mixed_graph(), workers=2,
                            runner=arith_runner, keyer=arith_keyer,
                            backend=backend)
        assert results == {"c": 1, "r": 11}
        assert backend.routed_stages[STAGE_COMPILE] == "process"
        assert backend.routed_stages[STAGE_REPLAY] == "thread"
        assert backend.routed == {"process": 1, "thread": 1}

    def test_unknown_stages_route_heavy(self):
        backend = AutoBackend(workers=2)
        run_graph(DIAMOND, workers=2, runner=arith_runner,
                  keyer=arith_keyer, backend=backend)
        assert backend.routed == {"process": len(DIAMOND)}
        assert stage_cost("n") == DEFAULT_STAGE_COST

    def test_heavy_cost_threshold_is_tunable(self):
        # The threshold is a class attribute; routing reads it per instance.
        backend = AutoBackend(workers=2)
        backend.heavy_cost = 1000.0
        run_graph(self._mixed_graph(), workers=2, runner=arith_runner,
                  keyer=arith_keyer, backend=backend)
        assert backend.routed == {"thread": 2}

    def test_instance_survives_multiple_graphs(self):
        # Engine.warm resolves per graph but an instance accumulates.
        backend = AutoBackend(workers=2)
        run_graph(self._mixed_graph(), workers=2, runner=arith_runner,
                  keyer=arith_keyer, backend=backend)
        run_graph(self._mixed_graph(), workers=2, runner=arith_runner,
                  keyer=arith_keyer, backend=backend)
        assert backend.routed == {"process": 2, "thread": 2}


class TestSharding:
    def test_partition_finds_components(self):
        pending = [COMPONENTS[tid] for tid in sorted(COMPONENTS)]
        comps = partition_components(COMPONENTS, pending)
        assert comps == [["a0", "a1"], ["b0", "b1"], ["c0"]]

    def test_partition_excludes_resolved_boundary(self):
        # With a0/b0 already resolved, the chains fall apart into
        # singleton components.
        pending = [COMPONENTS[tid] for tid in ("a1", "b1", "c0")]
        comps = partition_components(COMPONENTS, pending)
        assert comps == [["a1"], ["b1"], ["c0"]]

    def test_balance_is_deterministic_and_bounded(self):
        comps = [["a", "b", "c"], ["d"], ["e", "f"]]
        shards = balance_shards(comps, 2)
        assert shards == [["a", "b", "c"], ["d", "e", "f"]]
        # One component per shard when there's room, largest first.
        assert balance_shards(comps, 10) == [["a", "b", "c"], ["e", "f"],
                                             ["d"]]
        assert balance_shards(comps, 1) == [["a", "b", "c", "d", "e", "f"]]

    def test_shard_resumes_from_partially_resolved_graph(self, tmp_path):
        """Boundary values reach shards even when upstream tasks were
        resolved from the store by a previous run."""
        store = ArtifactStore(root=tmp_path)
        prefix = _graph(COMPONENTS["a0"], COMPONENTS["b0"])
        run_graph(prefix, workers=1, store=store, runner=arith_runner,
                  keyer=arith_keyer, backend="inline")

        store.stats.reset()
        results = run_graph(COMPONENTS, workers=2, store=store,
                            runner=arith_runner, keyer=arith_keyer,
                            backend="shard")
        assert results == COMPONENTS_EXPECTED
        assert store.stats.hits == 2      # a0, b0 replayed
        assert store.stats.misses == 3    # a1, b1, c0 computed in shards


class TestShardDrain:
    """Shard workers drain on request: the in-flight task finishes, its
    artifact is persisted and exported, and the payload says so."""

    @staticmethod
    def _chain_spec(tmp_path, runner=arith_runner, keyer=arith_keyer):
        graph = _graph(
            Task(id="n0", stage="n", payload={"value": 1}),
            Task(id="n1", stage="n", payload={"value": 10}, deps=("n0",)),
            Task(id="n2", stage="n", payload={"value": 100}, deps=("n1",)),
        )
        spec = {
            "graph": graph,
            "preloaded": {},
            "runner": runner,
            "keyer": keyer,
            "store_spec": (str(tmp_path / "store"), 1, "drain-test"),
            "export_dir": str(tmp_path / "export"),
        }
        return graph, spec

    def test_run_shard_drains_after_inflight_task(self, tmp_path):
        from repro.engine.shard import run_shard

        _, spec = self._chain_spec(tmp_path)
        polls = []
        # False on the first poll (n0 dispatches), True afterwards: the
        # drain request lands while n0 is "in flight".
        stop = lambda: polls.append(1) or len(polls) > 1  # noqa: E731

        payload = run_shard(spec, stop=stop)
        assert payload["drained"] is True
        assert payload["results"] == {"n0": 1}
        assert payload["exported"] == 1

    def test_drained_export_resumes_in_parent_store(self, tmp_path):
        from repro.engine.shard import run_shard

        graph, spec = self._chain_spec(tmp_path)
        polls = []
        payload = run_shard(
            spec, stop=lambda: polls.append(1) or len(polls) > 1)
        assert payload["drained"] is True

        # The parent imports what the drained worker managed to export,
        # then a cold rerun picks up exactly where the worker stopped.
        parent = ArtifactStore(root=tmp_path / "parent", schema_version=1,
                               toolchain="drain-test")
        assert parent.import_keys(payload["export_dir"]) == 1
        parent.stats.reset()
        results = run_graph(graph, workers=1, store=parent,
                            runner=arith_runner, keyer=arith_keyer,
                            backend="inline")
        assert results == {"n0": 1, "n1": 11, "n2": 111}
        assert parent.stats.hits == 1     # n0 came from the drained shard
        assert parent.stats.misses == 2   # n1, n2 computed fresh

    def test_full_run_reports_not_drained(self, tmp_path):
        from repro.engine.shard import run_shard

        _, spec = self._chain_spec(tmp_path)
        payload = run_shard(spec, stop=lambda: False)
        assert payload["drained"] is False
        assert payload["results"] == {"n0": 1, "n1": 11, "n2": 111}

    def test_worker_sigterm_exits_zero_with_drained_payload(self, tmp_path):
        """End to end: ``python -m repro.engine.shard`` under SIGTERM
        persists the in-flight task, writes a drained payload, exits 0."""
        import importlib
        import os
        import pickle
        import subprocess
        import sys
        import textwrap

        # The runner SIGTERMs its own process mid-task, which makes the
        # "signal arrives while a task is in flight" window deterministic.
        helper = tmp_path / "shard_drain_helper.py"
        helper.write_text(textwrap.dedent("""\
            import os
            import signal

            def runner(task, deps):
                os.kill(os.getpid(), signal.SIGTERM)
                return task.payload.get("value", 0) + sum(deps.values())

            def keyer(task):
                return {"value": task.payload.get("value", 0),
                        "deps": sorted(task.deps)}
        """))
        sys.path.insert(0, str(tmp_path))
        try:
            mod = importlib.import_module("shard_drain_helper")
            _, spec = self._chain_spec(tmp_path, runner=mod.runner,
                                       keyer=mod.keyer)
            in_path = tmp_path / "spec.pkl"
            out_path = tmp_path / "out.pkl"
            in_path.write_bytes(pickle.dumps(spec))

            import repro
            src_dir = str(Path(repro.__file__).resolve().parents[1])
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(tmp_path), src_dir, env.get("PYTHONPATH", "")])
            proc = subprocess.run(
                [sys.executable, "-m", "repro.engine.shard",
                 "--input", str(in_path), "--output", str(out_path)],
                env=env, capture_output=True, text=True, timeout=60)
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("shard_drain_helper", None)

        assert proc.returncode == 0, proc.stderr
        payload = pickle.loads(out_path.read_bytes())
        assert payload["drained"] is True
        assert payload["results"] == {"n0": 1}
        assert payload["exported"] == 1
