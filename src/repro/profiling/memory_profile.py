"""Memory access profiling (§III-A.3, Table I).

Each static memory instruction gets a hit/miss ratio against the
*profiling cache* (default 8 KB, 32-byte lines, 4-way — the mid-point of
the paper's Fig. 7 sweep) and is classified into one of the nine Table I
miss-rate classes, which map to byte strides 0..32 assuming 32-byte lines.

Additionally, per-instruction miss rates are measured at every sweep size:
one :func:`repro.sim.cache.lru_hits` replay of the trace per size gives
per-access hit flags, and one walk over the accesses that missed somewhere
attributes the misses to their instructions.  The smallest cache at which
an access stops missing estimates its working set, which the synthesizer
uses to size the stride-walk arrays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import and_

from repro.isa.machine import Binary
from repro.sim.cache import CacheConfig, lru_hits
from repro.sim.trace import ExecutionTrace

# Table I: class index -> stride in bytes (32-byte line, 32-bit words).
MISS_CLASS_STRIDES = (0, 4, 8, 12, 16, 20, 24, 28, 32)

# Cache sizes measured during profiling (bytes).
PROFILE_SWEEP_SIZES = tuple(kb * 1024 for kb in (1, 2, 4, 8, 16, 32))
DEFAULT_PROFILE_SIZE = 8 * 1024


def miss_class_for_rate(miss_rate: float) -> int:
    """Map a miss rate to its Table I class (0..8)."""
    return min(8, int(miss_rate * 8 + 0.5))


@dataclass
class MemoryStats:
    """Profile of one static memory instruction."""

    uid: int
    accesses: int = 0
    misses_by_size: dict[int, int] = field(default_factory=dict)
    profile_size: int = DEFAULT_PROFILE_SIZE

    def miss_rate(self, size: int | None = None) -> float:
        size = size or self.profile_size
        if not self.accesses:
            return 0.0
        return self.misses_by_size.get(size, 0) / self.accesses

    @property
    def miss_class(self) -> int:
        return miss_class_for_rate(self.miss_rate())

    @property
    def stride_bytes(self) -> int:
        return MISS_CLASS_STRIDES[self.miss_class]

    def working_set_bytes(self, sweep=PROFILE_SWEEP_SIZES) -> int:
        """Smallest sweep size whose miss rate falls in class 0."""
        for size in sweep:
            if miss_class_for_rate(self.miss_rate(size)) == 0:
                return size
        return 2 * sweep[-1]


@dataclass
class MemoryProfile:
    """Per-instruction memory statistics plus aggregate hit rates."""

    stats: dict[int, MemoryStats] = field(default_factory=dict)
    hit_rates_by_size: dict[int, float] = field(default_factory=dict)
    profile_size: int = DEFAULT_PROFILE_SIZE

    def stats_for(self, uid: int) -> MemoryStats | None:
        return self.stats.get(uid)

    @property
    def total_accesses(self) -> int:
        return sum(s.accesses for s in self.stats.values())


def _memory_uids_per_block(binary: Binary) -> list[list[int]]:
    per_block: list[list[int]] = []
    for func_idx, blk_idx in binary.block_map:
        block = binary.functions[func_idx].blocks[blk_idx]
        per_block.append([ins.uid for ins in block.instrs if ins.is_memory])
    return per_block


def profile_memory(
    binary: Binary,
    trace: ExecutionTrace,
    sweep_sizes=PROFILE_SWEEP_SIZES,
    profile_size: int = DEFAULT_PROFILE_SIZE,
    line_bytes: int = 32,
    associativity: int = 4,
) -> MemoryProfile:
    """Replay the memory trace once per sweep size, attributing each
    miss to the instruction that issued it."""
    uids_per_block = _memory_uids_per_block(binary)
    uids = [uid for gbid in trace.block_seq for uid in uids_per_block[gbid]]
    addrs = trace.mem_addrs
    profile = MemoryProfile(profile_size=profile_size)
    rows = []
    for size in sweep_sizes:
        hits = lru_hits(addrs, CacheConfig(size, line_bytes, associativity))
        profile.hit_rates_by_size[size] = (
            hits.count(1) / len(hits) if hits else 1.0)
        rows.append((size, hits))
    stats = profile.stats
    for uid, count in Counter(uids).items():  # first-access order
        stats[uid] = MemoryStats(uid=uid, accesses=count,
                                 profile_size=profile_size)
    if rows:
        # Only accesses that miss at some size need walking: AND-ing the
        # flag rows as big integers leaves a zero byte at exactly those.
        hit_everywhere = reduce(
            and_, (int.from_bytes(hits, "little") for _, hits in rows)
        ).to_bytes(len(addrs), "little")
        i = hit_everywhere.find(0)
        while i >= 0:
            misses = stats[uids[i]].misses_by_size
            for size, hits in rows:
                if not hits[i]:
                    misses[size] = misses.get(size, 0) + 1
            i = hit_everywhere.find(0, i + 1)
    return profile
