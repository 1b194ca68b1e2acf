"""Span tracing: perf_counter intervals exportable as Chrome trace JSON.

A :class:`Tracer` records complete spans (name, category, start, dur)
relative to its own ``perf_counter`` epoch.  The scheduler emits one
span per graph node (category = stage name, with the cache outcome in
``args``) plus a root ``run_graph`` span; shard workers run their own
tracer and the parent :meth:`absorb`\\ s their spans, remapped onto the
parent timeline via the wall-clock offset between the two epochs.

The native on-disk format keeps seconds and carries an optional
metrics snapshot::

    {"format": "repro-trace", "version": 1, "epoch_wall": ...,
     "spans": [{"name", "cat", "ts", "dur", "pid", "tid", "args"}, ...],
     "metrics": {...}}

:func:`chrome_trace` converts it to Chrome trace-event JSON
(microsecond ``ts``/``dur``, phase ``X``) loadable in Perfetto or
``chrome://tracing``.  The ``repro-trace`` CLI (:mod:`repro.obs.__main__`)
wraps record/summary/export.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


class Tracer:
    """Thread-safe recorder of completed spans on one timeline."""

    def __init__(self) -> None:
        self.epoch_perf = time.perf_counter()
        self.epoch_wall = time.time()
        self.pid = os.getpid()
        self._spans: list[dict] = []
        self._lock = threading.Lock()

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return time.perf_counter() - self.epoch_perf

    def add_span(self, name: str, cat: str, start: float, dur: float,
                 args: dict | None = None, pid: int | None = None,
                 tid: int | None = None) -> None:
        """Record a completed span; *start* is relative to the epoch."""
        span = {
            "name": name,
            "cat": cat,
            "ts": start,
            "dur": max(dur, 0.0),
            "pid": self.pid if pid is None else pid,
            "tid": threading.get_ident() if tid is None else tid,
        }
        if args:
            span["args"] = args
        with self._lock:
            self._spans.append(span)

    def span(self, name: str, cat: str = "", **args):
        """Context manager timing a block into a span."""
        return _SpanContext(self, name, cat, args)

    def absorb(self, spans: list[dict] | None,
               epoch_wall: float | None = None) -> None:
        """Fold spans from a child tracer onto this timeline.

        Child spans carry offsets from the *child's* epoch; the
        wall-clock difference between the epochs remaps them.  Perf
        counters are process-local, so wall time is the only shared
        clock — good to a few ms, plenty for stage-scale spans.
        """
        if not spans:
            return
        shift = 0.0 if epoch_wall is None else epoch_wall - self.epoch_wall
        with self._lock:
            for span in spans:
                remapped = dict(span)
                remapped["ts"] = span.get("ts", 0.0) + shift
                self._spans.append(remapped)

    def spans(self) -> list[dict]:
        """Spans so far, sorted by start time."""
        with self._lock:
            return sorted((dict(s) for s in self._spans),
                          key=lambda s: (s["ts"], s["name"]))

    def to_dict(self, metrics: dict | None = None) -> dict:
        data = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "epoch_wall": self.epoch_wall,
            "spans": self.spans(),
        }
        if metrics is not None:
            data["metrics"] = metrics
        return data

    def save(self, path: Path | str, metrics: dict | None = None) -> Path:
        """Write the native trace JSON (plus optional metrics snapshot)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(metrics), indent=2,
                                   sort_keys=True))
        return path


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, cat: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._start = self.tracer.now()
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.args = {**self.args, "error": exc_type.__name__}
        self.tracer.add_span(self.name, self.cat, self._start,
                             self.tracer.now() - self._start,
                             self.args or None)


def _unwrapped_runner(runner):
    return runner


class TracedRunner:
    """Wraps a stage runner so every execution records an ``exec`` span.

    Mirrors ``CoalescingRunner``: unpicklable by value (the tracer holds
    a lock), so ``__reduce__`` degrades to the wrapped runner when a
    process/shard backend ships it to a worker — workers that want spans
    run their own tracer (see ``repro.engine.shard``).
    """

    def __init__(self, tracer: Tracer, runner) -> None:
        self.tracer = tracer
        self.runner = runner

    def __call__(self, task, deps):
        with self.tracer.span(task.id, cat="exec", stage=task.stage):
            return self.runner(task, deps)

    def __reduce__(self):
        return (_unwrapped_runner, (self.runner,))


def load_trace(path: Path | str) -> dict:
    """Load a native trace file (validating the format marker)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} file")
    return data


def chrome_trace(trace: dict) -> dict:
    """Convert a native trace dict to Chrome trace-event JSON."""
    events = []
    for span in trace.get("spans", ()):
        event = {
            "name": span["name"],
            "cat": span.get("cat") or "span",
            "ph": "X",
            "ts": span["ts"] * 1e6,
            "dur": span["dur"] * 1e6,
            "pid": span.get("pid", 0),
            "tid": span.get("tid", 0),
        }
        if span.get("args"):
            event["args"] = span["args"]
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize(trace: dict) -> list[dict]:
    """Aggregate spans per category: count, total, mean, max seconds."""
    by_cat: dict[str, list[float]] = {}
    for span in trace.get("spans", ()):
        by_cat.setdefault(span.get("cat") or "span", []).append(span["dur"])
    rows = []
    for cat in sorted(by_cat):
        durs = by_cat[cat]
        rows.append({
            "cat": cat,
            "count": len(durs),
            "total_seconds": sum(durs),
            "mean_seconds": sum(durs) / len(durs),
            "max_seconds": max(durs),
        })
    return rows
