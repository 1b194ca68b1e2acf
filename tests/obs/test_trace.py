"""Span tracing: recording, child-span absorption, Chrome export, and
end-to-end stage-span coverage through ``run_graph``."""

import json
import pickle

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    TracedRunner,
    Tracer,
    chrome_trace,
    load_trace,
    summarize,
)


class TestTracer:
    def test_add_span_records_and_sorts(self):
        tracer = Tracer()
        tracer.add_span("b", "stage", 2.0, 0.5)
        tracer.add_span("a", "stage", 1.0, 0.25, {"outcome": "hit"})
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["a", "b"]
        assert spans[0]["args"] == {"outcome": "hit"}
        assert spans[0]["pid"] == tracer.pid

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.add_span("x", "c", 0.0, -1.0)
        assert tracer.spans()[0]["dur"] == 0.0

    def test_span_context_manager_times_block(self):
        tracer = Tracer()
        with tracer.span("work", cat="test", stage="compile"):
            pass
        (span,) = tracer.spans()
        assert span["name"] == "work"
        assert span["cat"] == "test"
        assert span["args"] == {"stage": "compile"}
        assert span["dur"] >= 0.0

    def test_span_context_manager_records_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", cat="test"):
                raise ValueError("nope")
        (span,) = tracer.spans()
        assert span["args"]["error"] == "ValueError"

    def test_absorb_remaps_child_epoch(self):
        parent = Tracer()
        child_spans = [{"name": "n", "cat": "c", "ts": 0.5, "dur": 0.1,
                        "pid": 999, "tid": 1}]
        # Child epoch 2 wall-seconds after the parent's.
        parent.absorb(child_spans, epoch_wall=parent.epoch_wall + 2.0)
        (span,) = parent.spans()
        assert span["ts"] == pytest.approx(2.5)
        assert span["pid"] == 999

    def test_absorb_none_is_noop(self):
        tracer = Tracer()
        tracer.absorb(None)
        tracer.absorb([])
        assert tracer.spans() == []

    def test_save_load_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.add_span("x", "stage", 0.0, 1.0)
        registry = MetricsRegistry()
        registry.count("c")
        path = tracer.save(tmp_path / "t.json",
                           metrics=registry.snapshot())
        data = load_trace(path)
        assert data["format"] == "repro-trace"
        assert len(data["spans"]) == 1
        assert data["metrics"]["metrics"][0]["name"] == "c"

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-trace.json"
        path.write_text(json.dumps({"spans": []}))
        with pytest.raises(ValueError, match="not a repro-trace"):
            load_trace(path)


class TestExports:
    def test_chrome_trace_microseconds(self):
        tracer = Tracer()
        tracer.add_span("node", "run", 0.001, 0.002, {"outcome": "hit"})
        chrome = chrome_trace(tracer.to_dict())
        (event,) = chrome["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1000.0)
        assert event["dur"] == pytest.approx(2000.0)
        assert event["args"] == {"outcome": "hit"}

    def test_summarize_aggregates_by_category(self):
        tracer = Tracer()
        tracer.add_span("a", "run", 0.0, 1.0)
        tracer.add_span("b", "run", 1.0, 3.0)
        tracer.add_span("c", "compile", 0.0, 2.0)
        rows = {r["cat"]: r for r in summarize(tracer.to_dict())}
        assert rows["run"]["count"] == 2
        assert rows["run"]["total_seconds"] == pytest.approx(4.0)
        assert rows["run"]["max_seconds"] == pytest.approx(3.0)
        assert rows["compile"]["mean_seconds"] == pytest.approx(2.0)


class TestTracedRunner:
    def test_records_exec_span_around_runner(self):
        tracer = Tracer()

        class Task:
            id = "t1"
            stage = "run"

        runner = TracedRunner(tracer, lambda task, deps: "result")
        assert runner(Task(), {}) == "result"
        (span,) = tracer.spans()
        assert span["name"] == "t1"
        assert span["cat"] == "exec"
        assert span["args"] == {"stage": "run"}

    def test_pickling_degrades_to_wrapped_runner(self):
        # Mirrors CoalescingRunner: the tracer holds a lock, so the
        # wrapper must strip itself when shipped to a worker process.
        tracer = Tracer()
        runner = TracedRunner(tracer, _plain_runner)
        restored = pickle.loads(pickle.dumps(runner))
        assert restored is not runner
        assert restored is _plain_runner


def _plain_runner(task, deps):
    return task


# Module-level so worker processes can unpickle them by reference.
def graph_runner(task, deps):
    return task.payload.get("value", 0) + sum(deps.values())


def graph_keyer(task):
    return {"value": task.payload.get("value", 0),
            "deps": sorted(task.deps)}


def _diamond():
    from repro.engine.tasks import Task

    tasks = (
        Task(id="top", stage="compile", payload={"value": 1}),
        Task(id="left", stage="run", payload={"value": 10}, deps=("top",)),
        Task(id="right", stage="run", payload={"value": 100},
             deps=("top",)),
        Task(id="bottom", stage="profile", payload={"value": 1000},
             deps=("left", "right")),
    )
    return {task.id: task for task in tasks}


class TestGraphCoverage:
    """Acceptance: stage spans cover every graph node, per backend."""

    @pytest.mark.parametrize("backend", ["inline", "auto", "shard"])
    def test_spans_cover_all_nodes(self, backend, tmp_path):
        from repro.engine.scheduler import run_graph
        from repro.engine.store import ArtifactStore

        graph = _diamond()
        tracer = Tracer()
        store = ArtifactStore(root=tmp_path / backend)
        run_graph(graph, workers=2, store=store, runner=graph_runner,
                  keyer=graph_keyer, backend=backend, tracer=tracer)
        spans = tracer.spans()
        node_spans = {s["name"] for s in spans if s["cat"] != "scheduler"}
        assert set(graph) <= node_spans
        assert any(s["name"] == "run_graph" and s["cat"] == "scheduler"
                   for s in spans)

    def test_warm_run_emits_hit_spans(self, tmp_path):
        from repro.engine.scheduler import run_graph
        from repro.engine.store import ArtifactStore

        graph = _diamond()
        store = ArtifactStore(root=tmp_path)
        run_graph(graph, workers=2, store=store, runner=graph_runner,
                  keyer=graph_keyer, backend="inline")
        tracer = Tracer()
        run_graph(graph, workers=2, store=store, runner=graph_runner,
                  keyer=graph_keyer, backend="inline", tracer=tracer)
        outcomes = {s["name"]: s.get("args", {}).get("outcome")
                    for s in tracer.spans() if s["cat"] != "scheduler"}
        # Lazy from the sinks: only the probed sink gets a span.
        assert outcomes == {"bottom": "hit"}
