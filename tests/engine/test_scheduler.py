"""Scheduler: topological ordering, diamond DAGs, pool fan-out, caching."""

import sys
import threading
from collections.abc import Mapping

import pytest

from repro.engine.scheduler import GraphError, run_graph, topological_order
from repro.engine.store import ArtifactStore
from repro.engine.tasks import Task


def _graph(*tasks: Task) -> dict[str, Task]:
    return {task.id: task for task in tasks}


# Module-level so the multiprocessing pool can pickle them by reference.
def arith_runner(task: Task, deps: dict) -> int:
    base = task.payload.get("value", 0)
    return base + sum(deps.values())


def arith_keyer(task: Task) -> dict:
    return {"value": task.payload.get("value", 0), "deps": sorted(task.deps)}


DIAMOND = _graph(
    Task(id="top", stage="n", payload={"value": 1}),
    Task(id="left", stage="n", payload={"value": 10}, deps=("top",)),
    Task(id="right", stage="n", payload={"value": 100}, deps=("top",)),
    Task(id="bottom", stage="n", payload={"value": 1000},
         deps=("left", "right")),
)


class TestTopologicalOrder:
    def test_diamond_ordering(self):
        order = [task.id for task in topological_order(DIAMOND)]
        assert order.index("top") < order.index("left")
        assert order.index("top") < order.index("right")
        assert order.index("left") < order.index("bottom")
        assert order.index("right") < order.index("bottom")
        # Sorted tie-breaking makes the order fully deterministic.
        assert order == ["top", "left", "right", "bottom"]

    def test_cycle_detected(self):
        cyclic = _graph(
            Task(id="a", stage="n", deps=("b",)),
            Task(id="b", stage="n", deps=("a",)),
        )
        with pytest.raises(GraphError, match="cycle"):
            topological_order(cyclic)

    def test_unknown_dependency(self):
        dangling = _graph(Task(id="a", stage="n", deps=("ghost",)))
        with pytest.raises(GraphError, match="unknown task"):
            topological_order(dangling)


class TestInlineExecution:
    def test_diamond_values(self):
        results = run_graph(DIAMOND, workers=1, runner=arith_runner,
                            keyer=arith_keyer)
        assert results["top"] == 1
        assert results["left"] == 11
        assert results["right"] == 101
        assert results["bottom"] == 1112

    def test_preloaded_nodes_not_recomputed(self):
        results = run_graph(DIAMOND, workers=1, runner=arith_runner,
                            keyer=arith_keyer, preloaded={"top": 5})
        assert results["top"] == 5
        assert results["left"] == 15 and results["right"] == 105
        assert results["bottom"] == 1000 + 15 + 105

    def test_store_hit_skips_execution(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        first = run_graph(DIAMOND, workers=1, store=store,
                          runner=arith_runner, keyer=arith_keyer)
        assert store.stats.misses == 4 and store.stats.puts == 4
        store.stats.reset()
        second = run_graph(DIAMOND, workers=1, store=store,
                           runner=arith_runner, keyer=arith_keyer)
        # Lazy from the sinks: the warm sink is the only load.
        assert second == {"bottom": first["bottom"]} == {"bottom": 1112}
        assert store.stats.hits == 1 and store.stats.misses == 0
        assert store.stats.puts == 0


class ProbeOnlyMapping(Mapping):
    """A memo that may only be read by key, as the daemon's shared one
    must be (other job threads insert into it mid-run)."""

    def __init__(self, values: dict) -> None:
        self._values = values

    def __getitem__(self, key):
        return self._values[key]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        raise AssertionError("preloaded must not be iterated")

    def items(self):
        raise AssertionError("preloaded must not be iterated")


class TestLazyProbe:
    def test_preloaded_is_read_by_id_only(self):
        memo = ProbeOnlyMapping({"top": 5, "unrelated": object()})
        results = run_graph(DIAMOND, workers=1, runner=arith_runner,
                            keyer=arith_keyer, preloaded=memo)
        assert results == {"top": 5, "left": 15, "right": 105,
                           "bottom": 1120}

    def test_other_threads_may_grow_preloaded_meanwhile(self):
        """The serve daemon's job threads share one engine memo."""
        memo = {f"filler{i:04d}": i for i in range(2000)}
        done = threading.Event()
        errors = []

        def writer():
            while not done.is_set():
                for i in range(100):
                    memo[f"churn{i:03d}"] = i
                for i in range(100):
                    del memo[f"churn{i:03d}"]

        def reader():
            try:
                for _ in range(200):
                    results = run_graph(DIAMOND, runner=arith_runner,
                                        keyer=arith_keyer, preloaded=memo)
                    assert results["bottom"] == 1112
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        churner = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            churner.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            churner.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [churner])
        assert errors == []

    def test_hit_leaves_its_deps_unread(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        run_graph(DIAMOND, workers=1, store=store, runner=arith_runner,
                  keyer=arith_keyer)
        bottom = store.key_for("n", **arith_keyer(DIAMOND["bottom"]))
        store.path_for(bottom).unlink()
        store.stats.reset()
        executed = []

        def runner(task, deps):
            executed.append(task.id)
            return arith_runner(task, deps)

        results = run_graph(DIAMOND, workers=1, store=store, runner=runner,
                            keyer=arith_keyer)
        # The missing sink needs left and right; top stays unread.
        assert executed == ["bottom"]
        assert results == {"left": 11, "right": 101, "bottom": 1112}
        assert store.stats.as_dict() == {
            "hits": 2, "misses": 1, "puts": 1, "evictions": 0}

    def test_preloaded_sink_needs_no_store(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        results = run_graph(DIAMOND, workers=1, store=store,
                            runner=arith_runner, keyer=arith_keyer,
                            preloaded={"bottom": 7})
        assert results == {"bottom": 7}
        assert store.stats.hits == store.stats.misses == 0


class TestParallelExecution:
    def test_diamond_matches_inline(self):
        inline = run_graph(DIAMOND, workers=1, runner=arith_runner,
                           keyer=arith_keyer)
        pooled = run_graph(DIAMOND, workers=2, runner=arith_runner,
                           keyer=arith_keyer)
        assert pooled == inline

    def test_workers_persist_to_store(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        run_graph(DIAMOND, workers=2, store=store, runner=arith_runner,
                  keyer=arith_keyer)
        assert store.stats.misses == 4 and store.stats.puts == 4
        # A later serial run replays entirely from disk.
        store.stats.reset()
        replay = run_graph(DIAMOND, workers=1, store=store,
                           runner=arith_runner, keyer=arith_keyer)
        assert replay == {"bottom": 1112}
        assert store.stats.hits == 1 and store.stats.misses == 0

    def test_wide_fanout(self):
        tasks = [Task(id="root", stage="n", payload={"value": 1})]
        for i in range(12):
            tasks.append(Task(id=f"leaf{i:02d}", stage="n",
                              payload={"value": i}, deps=("root",)))
        graph = _graph(*tasks)
        results = run_graph(graph, workers=3, runner=arith_runner,
                            keyer=arith_keyer)
        for i in range(12):
            assert results[f"leaf{i:02d}"] == i + 1

    def test_worker_exception_propagates(self):
        graph = _graph(Task(id="a", stage="n"), Task(id="b", stage="n"))
        with pytest.raises(RuntimeError, match="stage failed"):
            run_graph(graph, workers=2, runner=_raise)


def _raise(task, deps):
    raise RuntimeError("stage failed")


class TestTiming:
    def test_on_timing_fires_per_executed_node(self):
        observed = []
        run_graph(DIAMOND, workers=1, runner=arith_runner,
                  keyer=arith_keyer,
                  on_timing=lambda stage, s: observed.append((stage, s)))
        assert len(observed) == 4
        assert all(stage == "n" and seconds >= 0
                   for stage, seconds in observed)

    def test_cache_hits_are_never_timed(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        run_graph(DIAMOND, workers=1, store=store, runner=arith_runner,
                  keyer=arith_keyer)
        observed = []
        run_graph(DIAMOND, workers=1, store=store, runner=arith_runner,
                  keyer=arith_keyer,
                  on_timing=lambda stage, s: observed.append(stage))
        assert observed == []

    def test_sidecars_carry_seconds(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        run_graph(DIAMOND, workers=1, store=store, runner=arith_runner,
                  keyer=arith_keyer)
        per_stage = store.by_stage()
        assert per_stage["n"]["entries"] == 4
        assert per_stage["n"]["mean_seconds"] is not None
        assert per_stage["n"]["mean_seconds"] >= 0

    def test_pooled_workers_time_too(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        observed = []
        run_graph(DIAMOND, workers=2, store=store, runner=arith_runner,
                  keyer=arith_keyer,
                  on_timing=lambda stage, s: observed.append(stage))
        assert observed == ["n"] * 4
        assert store.by_stage()["n"]["mean_seconds"] is not None


class TestDrain:
    def test_stop_before_start_resolves_nothing(self):
        results = run_graph(DIAMOND, workers=1, runner=arith_runner,
                            keyer=arith_keyer, stop=lambda: True)
        assert results == {}

    def test_stop_midway_keeps_finished_prefix(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        done = []

        def stop() -> bool:
            return len(done) >= 1

        def runner(task, deps):
            value = arith_runner(task, deps)
            done.append(task.id)
            return value

        results = run_graph(DIAMOND, workers=1, store=store,
                            runner=runner, keyer=arith_keyer, stop=stop)
        # Only the first dispatched node ran; its artifact persisted.
        assert list(results) == ["top"]
        assert store.stats.puts == 1

    def test_drained_prefix_resumes_from_store(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        done = []
        results = run_graph(
            DIAMOND, workers=1, store=store,
            runner=lambda t, d: (done.append(t.id),
                                 arith_runner(t, d))[1],
            keyer=arith_keyer, stop=lambda: len(done) >= 2)
        assert len(results) == 2
        # Re-run without the stop: the drained prefix is all hits.
        store.stats.reset()
        full = run_graph(DIAMOND, workers=1, store=store,
                         runner=arith_runner, keyer=arith_keyer)
        assert full["bottom"] == 1112
        assert store.stats.hits == 2 and store.stats.misses == 2
