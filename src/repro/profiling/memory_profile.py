"""Memory access profiling (§III-A.3, Table I).

Each static memory instruction gets a hit/miss ratio against the
*profiling cache* (default 8 KB, 32-byte lines, 4-way — the mid-point of
the paper's Fig. 7 sweep) and is classified into one of the nine Table I
miss-rate classes, which map to byte strides 0..32 assuming 32-byte lines.

Additionally, per-instruction miss rates are measured at every sweep size:
one :func:`repro.sim.cache.lru_sweep` over the trace's packed address
stream gives one hit-flag row per size, and one ``np.bincount`` per row
attributes its misses to the instructions that issued them.  The smallest
cache at which an instruction stops missing estimates its working set,
which the synthesizer uses to size the stride-walk arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.machine import Binary
from repro.sim.cache import CacheConfig, lru_sweep
from repro.sim.trace import ExecutionTrace, as_array

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


def _access_uids(binary: Binary, block_seq) -> tuple[list[int], np.ndarray]:
    """The binary's memory-instruction uids, and per access of a trace
    with block sequence *block_seq* the index of its uid in that list."""
    slot_uids: list[int] = []
    per_block = []
    for func_idx, blk_idx in binary.block_map:
        block = binary.functions[func_idx].blocks[blk_idx]
        uids = [ins.uid for ins in block.instrs if ins.is_memory]
        per_block.append(len(uids))
        slot_uids.extend(uids)
    uids, slot_index = np.unique(np.asarray(slot_uids, dtype=np.int64),
                                 return_inverse=True)
    nmem = np.asarray(per_block, dtype=np.int64)
    first_slot = np.concatenate(([0], np.cumsum(nmem)[:-1]))
    blocks = as_array(block_seq)
    counts = nmem[blocks]
    # Access j of block occurrence b is slot first_slot[b] + (j - start[b]).
    starts = np.cumsum(counts) - counts
    slots = (np.repeat(first_slot[blocks] - starts, counts)
             + np.arange(int(counts.sum()), dtype=np.int64))
    return uids.tolist(), slot_index.reshape(-1)[slots]


def _first_positions(index: np.ndarray, positions: np.ndarray) -> dict:
    """``{index value: first position}`` over parallel arrays."""
    values, first = np.unique(index, return_index=True)
    return dict(zip(values.tolist(), positions[first].tolist()))


def profile_memory(
    binary: Binary,
    trace: ExecutionTrace,
    sweep_sizes=PROFILE_SWEEP_SIZES,
    profile_size: int = DEFAULT_PROFILE_SIZE,
    line_bytes: int = 32,
    associativity: int = 4,
) -> MemoryProfile:
    """Replay the memory trace through every sweep size in one
    :func:`lru_sweep`, attributing each miss to the instruction that
    issued it."""
    uids, access_uid = _access_uids(binary, trace.block_seq)
    sweep_sizes = list(sweep_sizes)
    rows = lru_sweep(trace.mem_addrs, [
        CacheConfig(size, line_bytes, associativity) for size in sweep_sizes])
    total = len(trace.mem_addrs)
    profile = MemoryProfile(profile_size=profile_size)
    for size, row in zip(sweep_sizes, rows):
        profile.hit_rates_by_size[size] = (
            int(np.count_nonzero(row)) / total if total else 1.0)
    positions = np.arange(access_uid.size)
    accesses = np.bincount(access_uid, minlength=len(uids)).tolist()
    first_access = _first_positions(access_uid, positions)
    stats = profile.stats
    for index in sorted(first_access, key=first_access.get):
        uid = uids[index]
        stats[uid] = MemoryStats(uid=uid, accesses=accesses[index],
                                 profile_size=profile_size)
    # Per instruction, the sizes it missed at, in the order its misses
    # first happened (ties in sweep order): a dict's key order is part
    # of the pickled profile.
    missed: dict[int, list] = {}
    for k, (size, row) in enumerate(zip(sweep_sizes, rows)):
        miss_at = np.flatnonzero(row == 0)
        miss_uid = access_uid[miss_at]
        counts = np.bincount(miss_uid, minlength=len(uids))
        for index, first in _first_positions(miss_uid, miss_at).items():
            missed.setdefault(index, []).append(
                (first, k, size, int(counts[index])))
    for index, entries in missed.items():
        misses = stats[uids[index]].misses_by_size
        for _, _, size, count in sorted(entries):
            misses[size] = misses.get(size, 0) + count
    return profile
