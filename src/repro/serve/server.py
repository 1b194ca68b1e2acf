"""The repro.serve daemon: a long-lived engine behind HTTP+JSON.

Hand-rolled HTTP/1.1 over :mod:`asyncio` — stdlib only, one process,
no framework.  The asyncio loop owns the sockets and admission control;
jobs execute on a bounded thread pool against ONE shared
:class:`~repro.engine.api.Engine`, so every client submission lands in
the same memo, the same content-addressed store, and the same
coalescing windows.

Endpoints::

    POST /v1/jobs               submit (figure/warm/replay/sweep/search)
    GET  /v1/jobs/<id>          status + progress counters
    GET  /v1/jobs/<id>/result   the result JSON (202 while running)
    GET  /v1/jobs/<id>/events   chunked JSON-lines progress stream
    GET  /v1/stats              store/coalescing/quota/cost-model stats
    GET  /v1/metrics            Prometheus text exposition
    GET  /healthz               liveness (also reports draining)

Admission runs in order: quota (per-client token bucket → 429 +
``Retry-After``), capacity (live-job bound → 429), coalescing (matching
in-flight job → attach as waiter, 202 with ``"coalesced": true``).
Only submissions that survive all three spawn work.

SIGTERM/SIGINT starts a graceful drain: new submissions get 503,
in-flight jobs finish and persist, measured stage costs flush to the
results DB, and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.api import Engine
from repro.engine.backends import resolve_backend
from repro.engine.store import ArtifactStore
from repro.obs.log import StructuredLogger
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.serve.coalesce import Coalescer, CoalescingRunner, KeyedMutex
from repro.serve.costs import CostModel
from repro.serve.jobs import (
    BadRequest,
    Job,
    JobRegistry,
    estimate_stages,
    job_key,
    normalize_request,
    run_job,
)
from repro.serve.quota import QuotaRegistry

PROTOCOL = "HTTP/1.1"
MAX_BODY_BYTES = 1 << 20  # a submission is small JSON; flood → 413

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class CapacityError(RuntimeError):
    """The live-job bound is full (HTTP 429 without a quota charge
    refund — a full server is exactly when quotas should bite)."""


class ServeApp:
    """All daemon state minus the sockets — testable without a port."""

    def __init__(
        self,
        cache_dir=None,
        db_path=None,
        workers: int = 2,
        backend: str | None = "inline",
        quota_rate: float | None = None,
        quota_burst: float | None = None,
        max_inflight: int = 4,
        queue_limit: int = 32,
        log=None,
    ) -> None:
        self.log = log if log is not None else StructuredLogger("repro-serve")
        self.metrics = MetricsRegistry()
        self.db_path = db_path
        self.queue_limit = max(1, queue_limit)
        self.max_inflight = max(1, max_inflight)

        self.cost_model = CostModel()
        self._pending_costs: list[tuple[str, float]] = []
        self._costs_lock = threading.Lock()
        self._warm_start_costs()

        self.store = ArtifactStore(root=cache_dir)
        self.mutex = KeyedMutex()
        runner = CoalescingRunner(self.store, _default_runner(),
                                  _default_keyer(), mutex=self.mutex)
        self.node_coalescer = runner
        resolved = resolve_backend(backend, workers=workers) \
            if backend is not None else None
        if resolved is not None and hasattr(resolved, "cost_model") \
                and resolved.cost_model is None:
            # The auto backend routes thread-vs-process through learned
            # costs once history exists.
            resolved.cost_model = self.cost_model
        self.engine = Engine(workers=workers, store=self.store,
                             backend=resolved, runner=runner,
                             on_timing=self._on_timing)

        self.jobs = JobRegistry()
        self.coalescer = Coalescer()
        self.quota = QuotaRegistry(quota_rate, quota_burst)
        self.executor = ThreadPoolExecutor(
            max_workers=self.max_inflight,
            thread_name_prefix="repro-serve-job",
        )
        self.started_at = time.time()
        self.draining = False

    def _log(self, message: str, level: str = "info") -> None:
        """Log with a severity when the sink understands one.

        Injected test sinks are often plain ``list.append``-style
        callables; fall back to message-only for those.
        """
        try:
            self.log(message, level=level)
        except TypeError:
            self.log(message)

    # -- learned costs -----------------------------------------------------

    def _warm_start_costs(self) -> None:
        """Replay persisted stage history into the cost model, so a
        restarted daemon routes and admits from day one."""
        from repro.explore.db import ResultsDB

        try:
            with ResultsDB(self.db_path) as db:
                replayed = self.cost_model.warm_start(db)
        except Exception as exc:  # a corrupt DB must not kill startup
            self._log(f"cost-model warm start skipped: {exc}",
                      level="warning")
            return
        if replayed:
            self.log(f"cost model warm-started from {replayed} "
                     "persisted stage observations")

    def _on_timing(self, stage: str, seconds: float) -> None:
        """Engine timing hook (any worker thread): learn immediately,
        buffer for persistence.

        SQLite connections are thread-affine, so observations queue
        here and :meth:`flush_costs` writes them from whichever thread
        flushes (each flush opens its own short-lived connection).
        """
        self.cost_model.observe(stage, seconds, persist=False)
        with self._costs_lock:
            self._pending_costs.append((stage, round(float(seconds), 6)))

    def flush_costs(self) -> int:
        """Persist buffered stage observations to the results DB."""
        with self._costs_lock:
            batch, self._pending_costs = self._pending_costs, []
        if not batch:
            return 0
        from repro.engine.store import toolchain_fingerprint
        from repro.explore.db import ResultsDB

        try:
            with ResultsDB(self.db_path) as db:
                return db.record_stage_costs(
                    batch, toolchain=toolchain_fingerprint())
        except Exception as exc:
            self._log(f"stage-cost flush failed ({len(batch)} dropped): "
                      f"{exc}", level="error")
            return 0

    # -- submission --------------------------------------------------------

    def live_jobs(self) -> int:
        counts = self.jobs.counts()
        return counts["queued"] + counts["running"]

    def submit(self, payload: dict, peer: str = "") -> tuple[Job, bool, dict]:
        """Admit one submission; returns ``(job, coalesced, extra)``.

        Raises :class:`BadRequest` (400), :class:`QuotaExceeded` (429 +
        Retry-After), or :class:`CapacityError` (429) — the HTTP layer
        maps each to its status.
        """
        kind, params, client = normalize_request(payload)
        if not payload.get("client") and peer:
            client = peer
        admitted, retry_after = self.quota.admit(client)
        if not admitted:
            self.metrics.count("serve_quota_rejections")
            raise QuotaExceeded(client, retry_after)
        self.metrics.count("serve_submissions", tag=kind, label="kind")
        key = job_key(kind, params)

        def factory() -> Job:
            if self.live_jobs() >= self.queue_limit:
                raise CapacityError(
                    f"server at capacity ({self.queue_limit} live jobs)")
            return self.jobs.create(kind, params, client, key)

        job, coalesced = self.coalescer.attach_or_register(key, factory)
        estimated = self.cost_model.estimate_seconds(
            estimate_stages(kind, params))
        if coalesced:
            self.metrics.count("serve_coalesced_attaches")
            job.add_event("coalesced", client=client)
            self.log(f"submit kind={kind} key={key[:12]} job={job.id} "
                     f"client={client} coalesced=true waiters={job.waiters}")
        else:
            self.log(f"submit kind={kind} key={key[:12]} job={job.id} "
                     f"client={client} coalesced=false "
                     f"estimated_seconds={estimated:.3f}")
            self.executor.submit(self._execute, job)
        return job, coalesced, {"estimated_seconds": round(estimated, 3)}

    def _execute(self, job: Job) -> None:
        """Worker-thread job body; owns the job's state transitions."""
        before = self.stats_snapshot_counters()
        job.set_running()
        try:
            result = run_job(job, self.engine, self.db_path)
        except Exception as exc:
            self.flush_costs()
            job.set_failed(f"{type(exc).__name__}: {exc}")
            self.metrics.count("serve_jobs_failed", tag=job.kind,
                               label="kind")
            self._log(f"failed job={job.id} error={exc}", level="error")
        else:
            # Flush measured costs before the job reads as finished, so
            # a client observing "done" sees the history persisted too.
            self.flush_costs()
            job.set_done(result)
        finally:
            self.coalescer.release(job.key, job)
        after = self.stats_snapshot_counters()
        for op in ("hits", "misses", "executed", "coalesced"):
            delta = after[op] - before[op]
            if delta:
                self.metrics.count("serve_store_ops", delta, tag=op,
                                   label="op")
        elapsed = (job.finished_at or 0) - (job.started_at or 0)
        self.metrics.observe_latency("serve_job_seconds", elapsed,
                                     tags={"kind": job.kind})
        self.metrics.observe("serve_job_waiters", job.waiters)
        self.log(
            f"finish job={job.id} state={job.state} "
            f"waiters={job.waiters} "
            f"seconds={(job.finished_at or 0) - (job.started_at or 0):.3f} "
            f"hits={after['hits'] - before['hits']} "
            f"misses={after['misses'] - before['misses']} "
            f"executed={after['executed'] - before['executed']} "
            f"coalesced={after['coalesced'] - before['coalesced']}"
        )

    # -- stats -------------------------------------------------------------

    def stats_snapshot_counters(self) -> dict:
        node = self.node_coalescer.snapshot()
        return {"hits": self.store.stats.hits,
                "misses": self.store.stats.misses,
                "executed": node["executed"],
                "coalesced": node["coalesced"]}

    def stats(self) -> dict:
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "draining": self.draining,
            "jobs": self.jobs.counts(),
            "store": self.store.stats.as_dict(),
            "submissions": self.coalescer.snapshot(),
            "nodes": self.node_coalescer.snapshot(),
            "quota": self.quota.snapshot(),
            "stage_costs": self.cost_model.snapshot(),
            "metrics": self.metrics.snapshot(),
        }

    def metrics_text(self) -> str:
        """Prometheus exposition: registry series plus live gauges
        sampled from the store, coalescers, and quota registry."""
        lines = [self.metrics.render_prometheus().rstrip("\n")]
        for op, value in sorted(self.store.stats.as_dict().items()):
            lines.append(
                f'repro_store_ops_total{{op="{op}"}} {int(value)}')
        submissions = self.coalescer.snapshot()
        for field in ("hits", "misses", "in_flight"):
            lines.append(f"repro_serve_submission_coalescer_{field} "
                         f"{int(submissions.get(field, 0))}")
        nodes = self.node_coalescer.snapshot()
        for field in ("executed", "coalesced"):
            lines.append(f"repro_serve_node_coalescer_{field} "
                         f"{int(nodes.get(field, 0))}")
        quota = self.quota.snapshot()
        denied = sum(entry.get("denied", 0)
                     for entry in quota.get("clients", {}).values())
        lines.append(
            f"repro_serve_quota_enabled {int(bool(quota.get('enabled')))}")
        lines.append(f"repro_serve_quota_denied_total {int(denied)}")
        lines.append(f"repro_serve_jobs_live {self.live_jobs()}")
        lines.append(f"repro_serve_uptime_seconds "
                     f"{time.time() - self.started_at:.3f}")
        return "\n".join(lines) + "\n"

    # -- shutdown ----------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting, finish in-flight jobs, persist, flush."""
        if self.draining:
            return
        self.draining = True
        self.log("draining: refusing new jobs, finishing in-flight work")
        self.executor.shutdown(wait=True)
        self.flush_costs()
        counts = self.jobs.counts()
        self.log(f"drained: {counts['done']} done, {counts['failed']} "
                 "failed; store persisted")


class QuotaExceeded(RuntimeError):
    def __init__(self, client: str, retry_after: float) -> None:
        super().__init__(f"quota exceeded for client {client!r}")
        self.client = client
        self.retry_after = retry_after


def _default_runner():
    from repro.engine.tasks import run_stage

    return run_stage


def _default_keyer():
    from repro.engine.tasks import key_fields

    return key_fields


# -- the HTTP layer ----------------------------------------------------------


class ReproServer:
    """asyncio socket frontend over a :class:`ServeApp`."""

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 8023) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _encode(status: int, body: dict, extra_headers: dict | None = None,
                ) -> bytes:
        payload = (json.dumps(body, sort_keys=True) + "\n").encode()
        headers = [
            f"{PROTOCOL} {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        return ("\r\n".join(headers) + "\r\n\r\n").encode() + payload

    @staticmethod
    def _encode_text(status: int, text: str, content_type: str) -> bytes:
        payload = text.encode()
        headers = [
            f"{PROTOCOL} {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        return ("\r\n".join(headers) + "\r\n\r\n").encode() + payload

    async def _read_request(self, reader: asyncio.StreamReader):
        """``(method, path, query, body)`` or None on a bad/empty read."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, target, _ = parts
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return None
        if content_length > MAX_BODY_BYTES:
            return method, target, None, _TOO_LARGE
        body = await reader.readexactly(content_length) \
            if content_length else b""
        path, _, query = target.partition("?")
        return method, path, query, body

    # -- handlers ----------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            if body is _TOO_LARGE:
                writer.write(self._encode(413, {"error": "body too large"}))
                return
            await self._route(method, path, query or "", body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _route(self, method: str, path: str, query: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        app = self.app
        if path == "/healthz":
            writer.write(self._encode(
                200, {"ok": True, "draining": app.draining}))
            return
        if path == "/v1/stats" and method == "GET":
            writer.write(self._encode(200, app.stats()))
            return
        if path == "/v1/metrics" and method == "GET":
            writer.write(self._encode_text(
                200, app.metrics_text(), PROMETHEUS_CONTENT_TYPE))
            return
        if path == "/v1/jobs" and method == "POST":
            await self._submit(body, writer)
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = app.jobs.get(job_id)
            if job is None:
                writer.write(self._encode(
                    404, {"error": f"unknown job {job_id!r}"}))
                return
            if method != "GET":
                writer.write(self._encode(405, {"error": "GET only"}))
                return
            if tail == "":
                writer.write(self._encode(200, job.status()))
                return
            if tail == "result":
                self._result(job, writer)
                return
            if tail == "events":
                await self._events(job, query, writer)
                return
        writer.write(self._encode(
            404, {"error": f"no route for {method} {path}"}))

    async def _submit(self, body: bytes,
                      writer: asyncio.StreamWriter) -> None:
        app = self.app
        if app.draining:
            writer.write(self._encode(503, {"error": "server is draining"}))
            return
        try:
            payload = json.loads(body.decode() or "{}")
        except (ValueError, UnicodeDecodeError):
            writer.write(self._encode(400, {"error": "body is not JSON"}))
            return
        peer = writer.get_extra_info("peername")
        peer_name = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else ""
        loop = asyncio.get_running_loop()
        try:
            # Submission can price a whole task graph; keep it off the
            # event loop so a burst can't stall health checks.
            job, coalesced, extra = await loop.run_in_executor(
                None, app.submit, payload, peer_name)
        except BadRequest as exc:
            writer.write(self._encode(400, {"error": str(exc)}))
            return
        except QuotaExceeded as exc:
            writer.write(self._encode(
                429,
                {"error": str(exc),
                 "retry_after_seconds": round(exc.retry_after, 3)},
                {"Retry-After": max(1, int(exc.retry_after + 0.999))},
            ))
            return
        except CapacityError as exc:
            writer.write(self._encode(
                429, {"error": str(exc)}, {"Retry-After": 5}))
            return
        writer.write(self._encode(202, {
            "job": job.id,
            "key": job.key,
            "state": job.state,
            "coalesced": coalesced,
            "waiters": job.waiters,
            **extra,
        }))

    def _result(self, job, writer: asyncio.StreamWriter) -> None:
        if job.state == "done":
            writer.write(self._encode(
                200, {"job": job.id, "state": job.state,
                      "result": job.result}))
        elif job.state == "failed":
            writer.write(self._encode(
                500, {"job": job.id, "state": job.state,
                      "error": job.error}))
        else:
            writer.write(self._encode(
                202, {"job": job.id, "state": job.state},
                {"Retry-After": 1}))

    async def _events(self, job, query: str,
                      writer: asyncio.StreamWriter) -> None:
        """Stream job events as chunked JSON lines until it finishes."""
        since = 0
        for param in query.split("&"):
            name, _, value = param.partition("=")
            if name == "since" and value.isdigit():
                since = int(value)
        headers = (
            f"{PROTOCOL} 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(headers.encode())
        loop = asyncio.get_running_loop()
        seq = since
        while True:
            events = job.events_since(seq)
            for event in events:
                line = (json.dumps(event, sort_keys=True) + "\n").encode()
                writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
            seq += len(events)
            await writer.drain()
            if job.finished and not job.events_since(seq):
                break
            # Block on the job's condition in a thread, not the loop.
            await loop.run_in_executor(
                None, job.wait_for_event, seq, 5.0)
        writer.write(b"0\r\n\r\n")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
        self.app.log(f"listening on http://{self.host}:{self.port}")

    def request_stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    async def serve_until_stopped(self) -> None:
        """Run until SIGTERM/SIGINT (or :meth:`request_stop`), then
        drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signals
        await self._stopping.wait()
        self.app.log("signal received, shutting down")
        self._server.close()
        await self._server.wait_closed()
        # Drain off-loop: in-flight jobs run on the app's executor.
        await loop.run_in_executor(None, self.app.drain)
        self.app.log("bye")


_TOO_LARGE = object()
