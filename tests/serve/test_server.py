"""The serve daemon: admission, coalescing, streaming, drain.

App-level tests drive :class:`ServeApp` directly (deterministic via a
gate around job execution); socket-level tests boot a real asyncio
server on an ephemeral port and talk to it with the stdlib client.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.serve.server as server_mod
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import CapacityError, QuotaExceeded, ReproServer, ServeApp
from repro.workloads import WORKLOADS

WORKLOAD = list(WORKLOADS)[0]

REPLAY_REQUEST = {
    "kind": "replay",
    "workload": WORKLOAD,
    "input": "small",
    "machine": {"width": 4},
    "client": "test",
}


@pytest.fixture()
def make_app(tmp_path):
    """ServeApp factory with an isolated store + DB per app — the
    session-shared REPRO_CACHE_DIR would otherwise leak warm artifacts
    between tests and break the miss-count assertions."""
    created = []

    def factory(**kwargs) -> ServeApp:
        kwargs.setdefault("log", lambda message: None)
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("backend", "inline")
        kwargs.setdefault("cache_dir", tmp_path / f"cache{len(created)}")
        kwargs.setdefault("db_path",
                          tmp_path / f"explore{len(created)}.sqlite3")
        app = ServeApp(**kwargs)
        created.append(app)
        return app

    yield factory
    for app in created:
        app.executor.shutdown(wait=False)


class Gate:
    """Stalls job execution until released — makes coalescing windows
    deterministic instead of racing the real (fast) pipeline."""

    def __init__(self, monkeypatch, wrap: bool = True):
        self.release = threading.Event()
        self.entered = threading.Event()
        real = server_mod.run_job

        def gated(job, engine, db_path=None):
            self.entered.set()
            assert self.release.wait(30.0), "gate never released"
            if wrap:
                return real(job, engine, db_path)
            return {"gated": job.kind}

        monkeypatch.setattr(server_mod, "run_job", gated)


class TestAdmission:
    def test_bad_request_raises(self, make_app):
        app = make_app()
        with pytest.raises(server_mod.BadRequest):
            app.submit({"kind": "nope"})

    def test_quota_denial(self, make_app):
        app = make_app(quota_rate=0.001, quota_burst=1.0)
        job, _, _ = app.submit(dict(REPLAY_REQUEST))
        assert job.wait(timeout=30.0)
        with pytest.raises(QuotaExceeded) as exc_info:
            app.submit(dict(REPLAY_REQUEST))
        assert exc_info.value.retry_after > 0

    def test_capacity_denial(self, make_app, monkeypatch):
        gate = Gate(monkeypatch, wrap=False)
        app = make_app(queue_limit=1)
        job, _, _ = app.submit(dict(REPLAY_REQUEST))
        gate.entered.wait(10.0)
        with pytest.raises(CapacityError):
            app.submit({**REPLAY_REQUEST, "machine": {"width": 2}})
        gate.release.set()
        assert job.wait(timeout=30.0)

    def test_coalesced_submission_does_not_hit_capacity(self, make_app,
                                                        monkeypatch):
        gate = Gate(monkeypatch, wrap=False)
        app = make_app(queue_limit=1)
        first, _, _ = app.submit(dict(REPLAY_REQUEST))
        gate.entered.wait(10.0)
        # Identical request attaches to the live job instead of tripping
        # the full queue.
        second, coalesced, _ = app.submit(dict(REPLAY_REQUEST))
        assert coalesced and second is first
        gate.release.set()
        assert first.wait(timeout=30.0)


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_execution(
            self, make_app, monkeypatch):
        """The acceptance check: N concurrent identical submissions →
        one job, every graph node executed exactly once, N identical
        results."""
        gate = Gate(monkeypatch)
        app = make_app()
        replies = [app.submit(dict(REPLAY_REQUEST)) for _ in range(5)]
        jobs = {id(reply[0]) for reply in replies}
        assert len(jobs) == 1, "all five submissions share one job"
        assert sum(1 for _, coalesced, _ in replies if coalesced) == 4
        job = replies[0][0]
        assert job.waiters == 5
        gate.release.set()
        assert job.wait(timeout=60.0)
        assert job.state == "done"

        # Scheduler/store accounting: the replay graph has exactly
        # three nodes (compile → run → replay) and each executed once.
        assert app.store.stats.misses == 3
        assert app.node_coalescer.snapshot()["executed"] == 3
        assert app.coalescer.snapshot()["hits"] == 4

        # Every waiter reads the same result object — byte-identical.
        payloads = {json.dumps(job.result, sort_keys=True)
                    for _ in replies}
        assert len(payloads) == 1

    def test_resubmit_after_completion_resolves_warm(self, make_app):
        app = make_app()
        first, _, _ = app.submit(dict(REPLAY_REQUEST))
        assert first.wait(timeout=60.0) and first.state == "done"
        misses_before = app.store.stats.misses

        second, coalesced, _ = app.submit(dict(REPLAY_REQUEST))
        assert not coalesced, "finished jobs don't coalesce"
        assert second is not first
        assert second.wait(timeout=60.0) and second.state == "done"
        assert app.store.stats.misses == misses_before, \
            "warm resubmit re-executes nothing"
        assert json.dumps(second.result, sort_keys=True) == \
            json.dumps(first.result, sort_keys=True)

    def test_overlapping_distinct_jobs_share_nodes(self, make_app):
        """Two different machines replay the same workload: the compile
        and run nodes are shared, only the replays differ — so exactly
        4 of the 6 requested node executions actually run."""
        app = make_app(max_inflight=2)
        first, _, _ = app.submit(dict(REPLAY_REQUEST))
        second, coalesced, _ = app.submit(
            {**REPLAY_REQUEST, "machine": {"width": 2}})
        assert not coalesced and second is not first
        assert first.wait(timeout=60.0) and second.wait(timeout=60.0)
        assert first.state == "done" and second.state == "done"
        # Shared compile + shared run + two distinct replays: whichever
        # job loses a node race coalesces (mutex) or resolves from
        # memo/store — nothing executes twice.
        assert app.node_coalescer.snapshot()["executed"] == 4
        assert first.result["timing"]["cycles"] != \
            second.result["timing"]["cycles"]


class TestStatsAndCosts:
    def test_stats_shape(self, make_app):
        stats = make_app().stats()
        assert set(stats) >= {"jobs", "store", "submissions", "nodes",
                              "quota", "stage_costs", "draining"}

    def test_execution_feeds_cost_model_and_persists(self, make_app,
                                                     tmp_path):
        db_path = tmp_path / "costs.sqlite3"
        app = make_app(db_path=db_path)
        job, _, _ = app.submit(dict(REPLAY_REQUEST))
        assert job.wait(timeout=60.0) and job.state == "done"
        assert app.cost_model.samples("replay") >= 1

        from repro.explore.db import ResultsDB

        with ResultsDB(db_path) as db:
            stats = db.stage_cost_stats()
        assert stats["replay"]["n"] >= 1

    def test_restart_warm_starts_from_persisted_history(self, make_app,
                                                        tmp_path):
        db_path = tmp_path / "history.sqlite3"
        from repro.explore.db import ResultsDB

        with ResultsDB(db_path) as db:
            db.record_stage_costs([("replay", 1.0)] * 5)
        app = make_app(db_path=db_path)
        assert app.cost_model.samples("replay") == 5


class TestDrain:
    def test_drain_finishes_in_flight_work(self, make_app, monkeypatch):
        gate = Gate(monkeypatch)
        app = make_app()
        job, _, _ = app.submit(dict(REPLAY_REQUEST))
        gate.entered.wait(10.0)

        drained = threading.Event()

        def drain():
            app.drain()
            drained.set()

        thread = threading.Thread(target=drain)
        thread.start()
        time.sleep(0.05)
        assert not drained.is_set(), "drain waits for in-flight jobs"
        gate.release.set()
        thread.join(timeout=30.0)
        assert drained.is_set()
        assert job.state == "done", "in-flight work finished, not dropped"
        assert app.draining

    def test_drain_is_idempotent(self, make_app):
        app = make_app()
        app.drain()
        app.drain()
        assert app.draining


def _start_server_thread(app):
    """Boot a ReproServer for *app* on an ephemeral port in its own
    loop thread; returns ``(server, stop)``."""
    server = ReproServer(app, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def loop_body():
        asyncio.set_event_loop(loop)
        server._stopping = asyncio.Event()

        async def run():
            await server.start()
            started.set()
            await server._stopping.wait()
            server._server.close()
            await server._server.wait_closed()

        loop.run_until_complete(run())
        loop.close()

    thread = threading.Thread(target=loop_body, daemon=True)
    thread.start()
    assert started.wait(10.0), "server never came up"

    def stop():
        loop.call_soon_threadsafe(server._stopping.set)
        thread.join(timeout=10.0)

    return server, stop


@pytest.fixture()
def live_server(make_app):
    """A real daemon on an ephemeral port, driven from a loop thread."""
    app = make_app()
    server, stop = _start_server_thread(app)
    yield app, server, ServeClient(port=server.port, client_id="pytest")
    stop()


class TestHTTP:
    def test_replay_round_trip(self, live_server):
        _, _, client = live_server
        reply = client.submit(dict(REPLAY_REQUEST))
        assert reply["_status"] == 202
        status = client.wait(reply["job"], timeout=60.0)
        assert status["state"] == "done"
        result = client.result(reply["job"])
        assert result["result"]["timing"]["cycles"] > 0
        assert result["result"]["workload"] == WORKLOAD

    def test_three_concurrent_clients_coalesce(self, live_server,
                                               monkeypatch):
        gate = Gate(monkeypatch)
        _, _, base = live_server

        def submit(index):
            client = ServeClient(port=base.port,
                                 client_id=f"client-{index}")
            return client.submit(dict(REPLAY_REQUEST))

        with ThreadPoolExecutor(3) as pool:
            first = pool.submit(submit, 0).result(timeout=30.0)
            assert gate.entered.wait(10.0)
            rest = list(pool.map(submit, (1, 2)))
        gate.release.set()

        replies = [first, *rest]
        assert len({reply["job"] for reply in replies}) == 1
        assert [r["coalesced"] for r in replies].count(True) == 2
        final = base.wait(first["job"], timeout=60.0)
        assert final["state"] == "done"
        assert final["waiters"] == 3
        bodies = {json.dumps(base.result(r["job"]), sort_keys=True)
                  for r in replies}
        assert len(bodies) == 1, "all three clients read identical bytes"

    def test_events_stream_until_done(self, live_server):
        _, _, client = live_server
        reply = client.submit(dict(REPLAY_REQUEST))
        events = client.events(reply["job"])
        names = [event["event"] for event in events]
        assert names[0] == "queued"
        assert names[-1] in ("done", "failed")
        assert [event["seq"] for event in events] == \
            list(range(len(events)))

    def test_unknown_job_404(self, live_server):
        _, _, client = live_server
        with pytest.raises(ServeError) as exc_info:
            client.status("j999999-deadbeef")
        assert exc_info.value.status == 404

    def test_bad_json_400(self, live_server):
        import http.client

        _, server, _ = live_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        conn.request("POST", "/v1/jobs", body=b"{nope",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 400
        conn.close()

    def test_bad_kind_400(self, live_server):
        _, _, client = live_server
        with pytest.raises(ServeError) as exc_info:
            client.submit({"kind": "espresso"})
        assert exc_info.value.status == 400

    def test_result_while_running_is_202(self, live_server, monkeypatch):
        gate = Gate(monkeypatch)
        _, _, client = live_server
        reply = client.submit(dict(REPLAY_REQUEST))
        assert gate.entered.wait(10.0)
        pending = client.result(reply["job"])
        assert pending["_status"] == 202
        gate.release.set()
        client.wait(reply["job"], timeout=60.0)

    def test_stats_and_health(self, live_server):
        _, _, client = live_server
        assert client.health()["ok"] is True
        stats = client.stats()
        assert "stage_costs" in stats and "submissions" in stats

    def test_draining_rejects_submissions_503(self, live_server):
        app, _, client = live_server
        app.draining = True
        try:
            with pytest.raises(ServeError) as exc_info:
                client.submit(dict(REPLAY_REQUEST))
            assert exc_info.value.status == 503
        finally:
            app.draining = False

    def test_quota_429_with_retry_after(self, make_app):
        app = make_app(quota_rate=0.001, quota_burst=1.0)
        server, stop = _start_server_thread(app)
        try:
            client = ServeClient(port=server.port, client_id="flood")
            first = client.submit(dict(REPLAY_REQUEST))
            client.wait(first["job"], timeout=60.0)
            with pytest.raises(ServeError) as exc_info:
                client.submit(dict(REPLAY_REQUEST))
            assert exc_info.value.status == 429
            assert exc_info.value.body["retry_after_seconds"] > 0
        finally:
            stop()


class TestObservability:
    def test_job_metrics_recorded(self, make_app):
        app = make_app()
        job, _, _ = app.submit(dict(REPLAY_REQUEST))
        assert job.wait(timeout=60.0)
        entries = {(e["name"], tuple(sorted(e["tags"].items()))): e
                   for e in app.metrics.snapshot()["metrics"]}
        assert entries[("serve_submissions", ())]["data"]["values"] == \
            {"replay": 1}
        latency = entries[("serve_job_seconds", (("kind", "replay"),))]
        assert latency["data"]["count"] == 1
        assert latency["volatile"] is True
        assert entries[("serve_job_waiters", ())]["data"]["count"] == 1
        store_ops = entries[("serve_store_ops", ())]["data"]["values"]
        assert store_ops.get("misses", 0) > 0

    def test_quota_rejection_counted(self, make_app):
        app = make_app(quota_rate=0.001, quota_burst=1.0)
        job, _, _ = app.submit(dict(REPLAY_REQUEST))
        assert job.wait(timeout=60.0)
        with pytest.raises(QuotaExceeded):
            app.submit(dict(REPLAY_REQUEST))
        assert app.metrics.counter("serve_quota_rejections").value == 1

    def test_stats_includes_metrics_snapshot(self, make_app):
        app = make_app()
        stats = app.stats()
        assert stats["metrics"]["format"] == "repro-metrics"

    def test_metrics_text_includes_live_gauges(self, make_app):
        app = make_app()
        job, _, _ = app.submit(dict(REPLAY_REQUEST))
        assert job.wait(timeout=60.0)
        text = app.metrics_text()
        assert 'repro_store_ops_total{op="misses"}' in text
        assert "repro_serve_submission_coalescer_hits 0" in text
        assert "repro_serve_node_coalescer_executed" in text
        assert "repro_serve_quota_enabled 0" in text
        assert "repro_serve_jobs_live 0" in text
        assert 'serve_submissions{kind="replay"} 1' in text
        assert "serve_job_seconds_count" in text

    def test_http_metrics_endpoint(self, live_server):
        import http.client

        app, server, client = live_server
        reply = client.submit(dict(REPLAY_REQUEST))
        client.wait(reply["job"], timeout=60.0)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        conn.request("GET", "/v1/metrics")
        response = conn.getresponse()
        body = response.read().decode()
        conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert "# TYPE serve_submissions counter" in body
        assert "repro_store_ops_total" in body
        assert "repro_serve_quota_denied_total 0" in body
        assert "serve_job_seconds_bucket" in body

    def test_default_log_is_structured(self, make_app):
        from repro.obs.log import StructuredLogger

        app = make_app(log=None)
        assert isinstance(app.log, StructuredLogger)
        assert app.log.name == "repro-serve"

    def test_log_helper_falls_back_to_plain_callable(self, make_app):
        lines = []
        app = make_app(log=lines.append)
        app._log("plain sink", level="error")
        assert lines == ["plain sink"]
