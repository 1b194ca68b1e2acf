"""Set-associative LRU data-cache simulation.

Two implementations of one LRU level live here:

* :func:`lru_hits`, the stream kernel: it replays a whole recorded
  address stream and returns one hit flag per access.  Every stream
  consumer is built on it, one call per cache configuration:
  per-instruction Table I classification during profiling
  (:mod:`repro.profiling.memory_profile`), Figs. 7/8's hit-rate-vs-size
  sweeps (:func:`sweep_cache_sizes`) and the L1/L2 latency codes of the
  batched replay kernel (:mod:`repro.sim.kernels`);
* :class:`Cache`, the per-access reference model the python timing
  models drive access by access; the tests pin the kernel against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import ExpHistogram


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int = 32
    associativity: int = 4

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.associativity)
        return max(1, sets)

    def describe(self) -> str:
        kib = self.size_bytes / 1024
        return f"{kib:g}KB/{self.line_bytes}B/{self.associativity}-way"


class Cache:
    """One LRU set-associative cache level."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.line_shift = config.line_bytes.bit_length() - 1
        self.assoc = config.associativity
        # Per-set dict tag -> None; insertion order is LRU order.
        self.sets: list[dict] = [dict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        #: Distribution of resolved access latencies (cycles), fed by
        #: the timing models via :meth:`record_latency`.  Scalar
        #: hit/miss rates can agree while the latency *shape* differs
        #: (e.g. all misses clustered vs. spread); fidelity scoring
        #: compares these histograms between clone and original.
        self.latency_hist = ExpHistogram()

    def access(self, byte_addr: int) -> bool:
        """Access one address; returns True on hit."""
        line = byte_addr >> self.line_shift
        index = line % self.num_sets
        ways = self.sets[index]
        if line in ways:
            del ways[line]  # refresh LRU position
            ways[line] = None
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.assoc:
            ways.pop(next(iter(ways)))
        ways[line] = None
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 1.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate

    def record_latency(self, cycles: int) -> None:
        """Record one access's resolved latency (hit, L2, or memory)."""
        self.latency_hist.add(cycles)


def simulate_cache(addresses, config: CacheConfig) -> Cache:
    """Replay *addresses* (byte granularity) through a fresh cache."""
    cache = Cache(config)
    access = cache.access
    for addr in addresses:
        access(addr)
    return cache


def lru_hits(addresses, config: CacheConfig) -> bytearray:
    """One hit flag (1 = hit) per access of *addresses* through one fresh
    LRU level — the flags :meth:`Cache.access` would return, access by
    access.

    A repeat of the line just touched is a guaranteed hit on the
    most-recently-used way and leaves the LRU order unchanged, so it
    keeps its hit flag without touching the sets.
    """
    shift = config.line_bytes.bit_length() - 1
    num_sets = config.num_sets
    assoc = config.associativity
    sets = [dict() for _ in range(num_sets)]
    hits = bytearray(b"\x01") * len(addresses)
    last = None
    for i, addr in enumerate(addresses):
        line = addr >> shift
        if line == last:
            continue
        last = line
        ways = sets[line % num_sets]
        # The pop is the lookup: a hit takes the line out for re-insertion
        # at the MRU end, a miss returns the default.
        if ways.pop(line, True):
            hits[i] = 0
            if len(ways) >= assoc:
                del ways[next(iter(ways))]
        ways[line] = None
    return hits


def sweep_cache_sizes(
    addresses,
    sizes_bytes,
    line_bytes: int = 32,
    associativity: int = 4,
) -> dict[int, float]:
    """Hit rate per cache size for one recorded address stream.

    One :func:`lru_hits` replay per size; pinned against per-config
    :class:`Cache` replays by the regression suite.
    """
    total = len(addresses)
    results = {}
    for size in sizes_bytes:
        hits = lru_hits(addresses,
                        CacheConfig(size, line_bytes, associativity))
        results[size] = hits.count(1) / total if total else 1.0
    return results
