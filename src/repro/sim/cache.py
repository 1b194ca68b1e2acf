"""Set-associative LRU data-cache simulation.

Two implementations of one LRU level live here:

* :func:`lru_sweep`, the stream kernel: it replays a whole recorded
  address stream through one or more cache configurations and returns
  one hit-flag row per configuration.  Every stream consumer is built
  on it: per-instruction Table I classification during profiling
  (:mod:`repro.profiling.memory_profile`) and Figs. 7/8's
  hit-rate-vs-size sweeps (:func:`sweep_cache_sizes`) run every size
  in one call, the batched replay kernel (:mod:`repro.sim.kernels`) one
  call per level for its L1/L2 latency codes;
* :class:`Cache`, the per-access reference model the python timing
  models drive access by access; the tests pin the kernel against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import ExpHistogram
from repro.sim.trace import as_array


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


def lru_sweep(addresses, configs) -> np.ndarray:
    """One hit-flag row (1 = hit) per configuration of *configs*: row
    ``k`` holds the flags :meth:`Cache.access` would return for each
    access of *addresses* through a fresh ``Cache(configs[k])``.

    Only the accesses whose outcome needs the LRU state are walked.  A
    repeat of the last line touched *in its own set* is a hit on that
    set's most-recently-used way and leaves the LRU order unchanged, so
    it keeps its hit flag without a walk.  Two vectorised passes find
    those repeats: one over the whole stream at the finest line size of
    *configs* (a repeat there repeats in every set of every
    configuration), then one per configuration over the survivors,
    grouped by set index.  What is left is walked in program order in
    python, one configuration at a time.
    """
    stream = as_array(addresses)
    n = stream.size
    rows = np.ones((len(configs), n), dtype=np.uint8)
    if n == 0 or not configs:
        return rows
    finest = min(config.line_bytes for config in configs)
    lines = stream >> (finest.bit_length() - 1)
    new_line = np.empty(n, dtype=bool)
    new_line[0] = True
    np.not_equal(lines[1:], lines[:-1], out=new_line[1:])
    kept = np.flatnonzero(new_line)
    # Widened once: set arithmetic in a uint8/uint16 stream's own dtype
    # overflows on a divisor past its range.
    kept_addrs = stream[kept].astype(np.int64)
    for row, config in zip(rows, configs):
        lines = kept_addrs >> (config.line_bytes.bit_length() - 1)
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            set_of = lines % num_sets
        else:  # same sets, ~6x faster than an int64 %
            set_of = lines & (num_sets - 1)
        if num_sets <= 1 << 16:  # uint16 keys take numpy's radix sort
            set_of = set_of.astype(np.uint16)
        order = np.argsort(set_of, kind="stable")
        by_set = set_of[order]
        by_line = lines[order]
        walk = np.ones(kept.size, dtype=bool)
        walk[order[1:]] = ((by_set[1:] != by_set[:-1])
                           | (by_line[1:] != by_line[:-1]))
        walked = np.flatnonzero(walk)
        hits = bytearray(b"\x01") * walked.size
        sets = [dict() for _ in range(num_sets)]
        assoc = config.associativity
        for i, line in enumerate(lines[walked].tolist()):
            ways = sets[line % num_sets]
            if ways.pop(line, True):
                hits[i] = 0
                if len(ways) >= assoc:
                    del ways[next(iter(ways))]
            ways[line] = None
        row[kept[walked]] = np.frombuffer(hits, dtype=np.uint8)
    return rows


def sweep_cache_sizes(
    addresses,
    sizes_bytes,
    line_bytes: int = 32,
    associativity: int = 4,
) -> dict[int, float]:
    """Hit rate per cache size for one recorded address stream.

    One :func:`lru_sweep` over every size; pinned against per-config
    :class:`Cache` replays by the regression suite.
    """
    total = len(addresses)
    sizes_bytes = list(sizes_bytes)
    rows = lru_sweep(addresses, [CacheConfig(size, line_bytes, associativity)
                                 for size in sizes_bytes])
    return {size: int(np.count_nonzero(row)) / total if total else 1.0
            for size, row in zip(sizes_bytes, rows)}
