"""Declarative metrics: counters, tagged counters, exp-histograms.

A :class:`MetricsRegistry` holds named metrics keyed by ``(name, tags)``.
Four metric kinds cover everything the pipeline wants to report:

* :class:`Counter` — a monotonically increasing integer.
* :class:`TaggedCounter` — one counter per dynamic tag value (stage
  names, cache outcomes, store ops) under a single metric name.
* :class:`ExpHistogram` — a sparse base-2 exponential histogram; bucket
  ``k`` holds values in ``[2**(k-1), 2**k)``, so one dict entry per
  occupied power-of-two band records a full latency distribution.
* :class:`LatencyMeasurer` — an exp-histogram of seconds plus a context
  manager that times a block.  Always *volatile* (see below).

Every metric serializes to a deterministic JSON snapshot and merges
commutatively — counts add, mins/maxes combine — so per-worker
registries from the process/shard backends fold into the parent's
through the same seam that already merges store stats.  Metrics whose
values depend on wall-clock timing or dispatch interleaving (latency
measurers, queue-depth histograms) are flagged ``volatile``; dropping
them from a snapshot leaves exactly the backend-invariant part, which
the conformance suite asserts is identical across all four backends.

:func:`MetricsRegistry.render_prometheus` emits the text exposition
format served by the daemon's ``/v1/metrics`` endpoint.
"""

from __future__ import annotations

import math
import threading

#: Prometheus text exposition content type served by ``/v1/metrics``.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

SNAPSHOT_FORMAT = "repro-metrics"
SNAPSHOT_VERSION = 1


def bucket_index(value: float) -> int:
    """Base-2 exponential bucket for *value*.

    Bucket ``k`` covers ``[2**(k-1), 2**k)``; non-positive values land
    in bucket 0.  Works for sub-unit floats (seconds) via negative
    exponents: 1.5 ms falls in bucket -9 (``2**-10 <= v < 2**-9``).
    """
    if value <= 0:
        return 0
    return math.frexp(value)[1]


class Counter:
    """Monotonic integer counter."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot_data(self) -> dict:
        return {"value": self.value}

    def merge_data(self, data: dict) -> None:
        self.value += data.get("value", 0)


class TaggedCounter:
    """One counter per dynamic label value under a single name.

    *label* is the Prometheus label the values render under, e.g.
    ``engine_stages_executed{stage="compile"}``.
    """

    kind = "tagged_counter"

    def __init__(self, label: str = "key") -> None:
        self.label = label
        self.values: dict[str, int] = {}

    def inc(self, key: str, n: int = 1) -> None:
        self.values[key] = self.values.get(key, 0) + n

    def snapshot_data(self) -> dict:
        return {"label": self.label,
                "values": {k: self.values[k] for k in sorted(self.values)}}

    def merge_data(self, data: dict) -> None:
        for key, n in (data.get("values") or {}).items():
            self.inc(key, n)


class ExpHistogram:
    """Sparse base-2 exponential histogram with count/sum/min/max."""

    kind = "exp_histogram"

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def add(self, value: float) -> None:
        idx = bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def snapshot_data(self) -> dict:
        # Int bucket keys: they pickle by value (no string-identity
        # memoization), keeping artifact pickles byte-identical across
        # process boundaries; JSON encoding coerces them to strings and
        # merge_data()/hist_distance() normalize either form back.
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {k: self.buckets[k] for k in sorted(self.buckets)},
        }

    def merge_data(self, data: dict) -> None:
        for key, n in (data.get("buckets") or {}).items():
            idx = int(key)
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += data.get("count", 0)
        self.sum += data.get("sum", 0.0)
        for attr, pick in (("min", min), ("max", max)):
            other = data.get(attr)
            if other is None:
                continue
            ours = getattr(self, attr)
            setattr(self, attr, other if ours is None else pick(ours, other))


class LatencyMeasurer:
    """Times code blocks into an exp-histogram of seconds.

    Use :meth:`observe` with a measured duration, or as a context
    manager around the block to time.  Always volatile: wall-clock
    durations are never backend-invariant.
    """

    kind = "latency"

    def __init__(self) -> None:
        self.hist = ExpHistogram()
        self._start: float | None = None

    def observe(self, seconds: float) -> None:
        self.hist.add(seconds)

    def __enter__(self) -> "LatencyMeasurer":
        from time import perf_counter
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        from time import perf_counter
        if self._start is not None:
            self.hist.add(perf_counter() - self._start)
            self._start = None

    def snapshot_data(self) -> dict:
        return self.hist.snapshot_data()

    def merge_data(self, data: dict) -> None:
        self.hist.merge_data(data)


_KINDS = {cls.kind: cls for cls in
          (Counter, TaggedCounter, ExpHistogram, LatencyMeasurer)}

#: Kinds that are volatile by construction, regardless of the flag
#: passed at registration.
_ALWAYS_VOLATILE = {"latency"}


def _tags_key(tags: dict | None) -> tuple:
    return tuple(sorted((tags or {}).items()))


class MetricsRegistry:
    """Named metrics with deterministic snapshots and commutative merge.

    Accessors are get-or-create: ``registry.counter("x").inc()`` works
    whether or not ``x`` exists yet.  All mutation through the
    convenience methods (:meth:`count`, :meth:`observe`,
    :meth:`observe_latency`) is lock-protected, so the daemon's worker
    threads can share one registry.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}
        self._volatile: set[tuple] = set()
        self._lock = threading.Lock()

    # -- get-or-create accessors ------------------------------------

    def _get(self, cls, name: str, tags: dict | None, volatile: bool,
             **kwargs):
        key = (name, _tags_key(tags))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(**kwargs)
            self._metrics[key] = metric
        if volatile or metric.kind in _ALWAYS_VOLATILE:
            self._volatile.add(key)
        return metric

    def counter(self, name: str, tags: dict | None = None,
                volatile: bool = False) -> Counter:
        return self._get(Counter, name, tags, volatile)

    def tagged(self, name: str, label: str = "key",
               tags: dict | None = None,
               volatile: bool = False) -> TaggedCounter:
        return self._get(TaggedCounter, name, tags, volatile, label=label)

    def histogram(self, name: str, tags: dict | None = None,
                  volatile: bool = False) -> ExpHistogram:
        return self._get(ExpHistogram, name, tags, volatile)

    def latency(self, name: str, tags: dict | None = None) -> LatencyMeasurer:
        return self._get(LatencyMeasurer, name, tags, True)

    # -- thread-safe convenience mutators ----------------------------

    def count(self, name: str, n: int = 1, tag: str | None = None,
              label: str = "key", tags: dict | None = None,
              volatile: bool = False) -> None:
        """Increment a counter (or, with *tag*, a tagged counter)."""
        with self._lock:
            if tag is None:
                self.counter(name, tags, volatile).inc(n)
            else:
                self.tagged(name, label, tags, volatile).inc(tag, n)

    def observe(self, name: str, value: float, tags: dict | None = None,
                volatile: bool = False) -> None:
        """Record *value* into an exp-histogram."""
        with self._lock:
            self.histogram(name, tags, volatile).add(value)

    def observe_latency(self, name: str, seconds: float,
                        tags: dict | None = None) -> None:
        """Record a measured duration into a latency measurer."""
        with self._lock:
            self.latency(name, tags).observe(seconds)

    # -- snapshot / merge seam ---------------------------------------

    def snapshot(self, include_volatile: bool = True) -> dict:
        """Deterministic JSON-able snapshot, sorted by (name, tags)."""
        with self._lock:
            entries = []
            for key in sorted(self._metrics):
                if not include_volatile and key in self._volatile:
                    continue
                name, tags = key
                metric = self._metrics[key]
                entries.append({
                    "name": name,
                    "kind": metric.kind,
                    "tags": dict(tags),
                    "volatile": key in self._volatile,
                    "data": metric.snapshot_data(),
                })
            return {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION,
                    "metrics": entries}

    def merge(self, other: "MetricsRegistry | dict | None") -> None:
        """Fold another registry (or its snapshot) into this one.

        Commutative and associative: counters add, histogram buckets
        add, mins/maxes combine — merging worker snapshots in any order
        yields the same registry.
        """
        if other is None:
            return
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) \
            else other
        for entry in snapshot.get("metrics", ()):
            cls = _KINDS[entry["kind"]]
            kwargs = {}
            if cls is TaggedCounter:
                kwargs["label"] = entry["data"].get("label", "key")
            with self._lock:
                metric = self._get(cls, entry["name"], entry["tags"],
                                   entry.get("volatile", False), **kwargs)
                metric.merge_data(entry["data"])

    # -- exposition --------------------------------------------------

    def render_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        snapshot = self.snapshot()
        lines: list[str] = []
        typed: set[str] = set()
        for entry in snapshot["metrics"]:
            lines.extend(_prometheus_lines(entry, typed))
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "_:") else "_" for c in name)


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _prom_labels(tags: dict, extra: dict | None = None) -> str:
    items = dict(tags)
    if extra:
        items.update(extra)
    if not items:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{_prom_escape(str(v))}"'
                     for k, v in sorted(items.items()))
    return "{" + inner + "}"


def _prometheus_lines(entry: dict, typed: set[str]) -> list[str]:
    name = _prom_name(entry["name"])
    tags = entry["tags"]
    data = entry["data"]
    kind = entry["kind"]
    lines: list[str] = []

    def declare(prom_type: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {prom_type}")

    if kind == "counter":
        declare("counter")
        lines.append(f"{name}{_prom_labels(tags)} {data['value']}")
    elif kind == "tagged_counter":
        declare("counter")
        label = data.get("label", "key")
        for key, value in data.get("values", {}).items():
            lines.append(f"{name}{_prom_labels(tags, {label: key})} {value}")
    else:  # exp_histogram / latency: cumulative buckets + sum + count
        declare("histogram")
        cumulative = 0
        for bucket, count in sorted(((int(k), v) for k, v in
                                     data.get("buckets", {}).items())):
            cumulative += count
            le = 2.0 ** bucket
            lines.append(
                f"{name}_bucket{_prom_labels(tags, {'le': repr(le)})} "
                f"{cumulative}")
        lines.append(
            f"{name}_bucket{_prom_labels(tags, {'le': '+Inf'})} "
            f"{data.get('count', 0)}")
        lines.append(f"{name}_sum{_prom_labels(tags)} {data.get('sum', 0.0)}")
        lines.append(f"{name}_count{_prom_labels(tags)} "
                     f"{data.get('count', 0)}")
    return lines


# -- histogram-dict helpers for fidelity scoring ---------------------
#
# Simulator histograms travel as snapshot_data() dicts inside
# TimingResult; the sweep aggregates per side and compares.

def merge_hist_data(into: dict | None, data: dict | None) -> dict | None:
    """Merge two ``ExpHistogram.snapshot_data()`` dicts (either None)."""
    if data is None:
        return into
    if into is None:
        hist = ExpHistogram()
        hist.merge_data(data)
        return hist.snapshot_data()
    hist = ExpHistogram()
    hist.merge_data(into)
    hist.merge_data(data)
    return hist.snapshot_data()


def hist_distance(a: dict | None, b: dict | None) -> float | None:
    """Total-variation distance between two histogram snapshots.

    Normalizes each bucket map to a probability distribution and
    returns ``0.5 * sum(|p - q|)`` — 0 for identical shapes, 1 for
    disjoint support.  None when either side is missing or empty, so
    callers can skip the component rather than score garbage.
    """
    if not a or not b:
        return None
    pa = {int(k): v for k, v in (a.get("buckets") or {}).items()}
    pb = {int(k): v for k, v in (b.get("buckets") or {}).items()}
    ta, tb = sum(pa.values()), sum(pb.values())
    if not ta or not tb:
        return None
    keys = set(pa) | set(pb)
    return 0.5 * sum(abs(pa.get(k, 0) / ta - pb.get(k, 0) / tb)
                     for k in keys)
