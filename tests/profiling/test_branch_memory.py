"""Branch taken/transition-rate and Table I memory-class profiling tests."""

import pickle

import pytest

from repro.profiling.branch_profile import BranchStats, profile_branches
from repro.profiling.memory_profile import (
    MISS_CLASS_STRIDES,
    PROFILE_SWEEP_SIZES,
    MemoryProfile,
    MemoryStats,
    miss_class_for_rate,
    profile_memory,
)
from repro.profiling.profile import profile_workload
from repro.sim.cache import Cache, CacheConfig
from repro.workloads import get_workload
from tests.conftest import run_source


def cache_oracle_profile(binary, trace, sweep_sizes=PROFILE_SWEEP_SIZES):
    """Reference profile: every access replayed through one :class:`Cache`
    per sweep size, misses attributed as they happen."""
    uids_per_block = []
    for func_idx, blk_idx in binary.block_map:
        block = binary.functions[func_idx].blocks[blk_idx]
        uids_per_block.append(
            [ins.uid for ins in block.instrs if ins.is_memory])
    caches = [(size, Cache(CacheConfig(size, 32, 4))) for size in sweep_sizes]
    profile = MemoryProfile()
    stats = profile.stats
    addrs = iter(trace.mem_addrs)
    for gbid in trace.block_seq:
        for uid in uids_per_block[gbid]:
            addr = next(addrs)
            entry = stats.get(uid)
            if entry is None:
                entry = stats[uid] = MemoryStats(uid=uid)
            entry.accesses += 1
            for size, cache in caches:
                if not cache.access(addr):
                    misses = entry.misses_by_size
                    misses[size] = misses.get(size, 0) + 1
    for size, cache in caches:
        profile.hit_rates_by_size[size] = cache.hit_rate
    return profile


def log_for(outcomes, pc=5):
    return [(pc << 1) | int(t) for t in outcomes]


class TestBranchProfile:
    def test_taken_rate(self):
        profile = profile_branches(log_for([1, 1, 1, 0]))
        stats = profile.stats(5)
        assert stats.taken_rate == 0.75
        assert stats.executions == 4

    def test_transition_rate_alternating_is_easy(self):
        """High transition rate = easy (predictable) per Huang et al."""
        profile = profile_branches(log_for([1, 0, 1, 0, 1]))
        stats = profile.stats(5)
        assert stats.transition_rate == 1.0
        assert stats.is_easy

    def test_transition_rate_constant(self):
        profile = profile_branches(log_for([1] * 10))
        stats = profile.stats(5)
        assert stats.transition_rate == 0.0
        assert stats.is_easy

    def test_transition_rate_mixed_is_hard(self):
        outcomes = [1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1]
        profile = profile_branches(log_for(outcomes))
        stats = profile.stats(5)
        assert 0.1 < stats.transition_rate < 0.9
        assert not stats.is_easy

    def test_multiple_branches_separate(self):
        log = log_for([1, 1], pc=1) + log_for([0, 0], pc=2)
        profile = profile_branches(log)
        assert profile.stats(1).taken_rate == 1.0
        assert profile.stats(2).taken_rate == 0.0

    def test_hard_fraction(self):
        log = log_for([1, 0] * 20, pc=1) + log_for([1] * 10, pc=2)
        profile = profile_branches(log)
        # pc=1 alternates (transition 1.0 -> easy-high); pc=2 constant easy.
        assert profile.hard_fraction() == 0.0


class TestMissClasses:
    def test_table_i_boundaries(self):
        """Table I: the nine classes and their strides."""
        assert miss_class_for_rate(0.0) == 0
        assert miss_class_for_rate(0.05) == 0
        assert miss_class_for_rate(0.10) == 1
        assert miss_class_for_rate(0.25) == 2
        assert miss_class_for_rate(0.50) == 4
        assert miss_class_for_rate(0.75) == 6
        assert miss_class_for_rate(0.95) == 8
        assert miss_class_for_rate(1.0) == 8

    def test_stride_table_matches_paper(self):
        assert MISS_CLASS_STRIDES == (0, 4, 8, 12, 16, 20, 24, 28, 32)

    def test_class_to_stride_roundtrip(self):
        """Stride s produces miss rate ~s/32, classifying back to itself."""
        for klass, stride in enumerate(MISS_CLASS_STRIDES):
            rate = stride / 32
            assert miss_class_for_rate(rate) == klass


class TestMemoryProfiling:
    STREAMING = """
    unsigned buf[65536];
    int main() {
      unsigned total = 0u;
      int i;
      for (i = 0; i < 65536; i = i + 8) {
        total = total + buf[i];
      }
      printf("%u", total);
      return 0;
    }
    """

    HOT_SCALAR = """
    int main() {
      int total = 0;
      int i;
      for (i = 0; i < 500; i++) {
        total = total + i;
      }
      printf("%d", total);
      return 0;
    }
    """

    def test_streaming_access_classified_missy(self):
        trace = run_source(self.STREAMING)
        profile = profile_memory(trace.binary, trace)
        # The buf[i] load walks 32 bytes per access -> class 8 (always miss).
        classes = [
            stats.miss_class
            for stats in profile.stats.values()
            if stats.accesses > 1000
        ]
        assert max(classes) == 8

    def test_hot_scalars_class_zero(self):
        trace = run_source(self.HOT_SCALAR)
        profile = profile_memory(trace.binary, trace)
        hot = [s for s in profile.stats.values() if s.accesses > 100]
        assert hot
        assert all(s.miss_class == 0 for s in hot)

    def test_accesses_sum_to_trace(self):
        trace = run_source(self.HOT_SCALAR)
        profile = profile_memory(trace.binary, trace)
        assert profile.total_accesses == len(trace.mem_addrs)

    def test_working_set_estimate(self):
        trace = run_source(self.HOT_SCALAR)
        profile = profile_memory(trace.binary, trace)
        hot = [s for s in profile.stats.values() if s.accesses > 100]
        assert all(s.working_set_bytes() <= 2048 for s in hot)

    def test_hit_rates_monotonic_with_size(self):
        trace = run_source(self.STREAMING)
        profile = profile_memory(trace.binary, trace)
        sizes = sorted(profile.hit_rates_by_size)
        rates = [profile.hit_rates_by_size[s] for s in sizes]
        # LRU inclusion: doubling the set count never turns a hit into
        # a miss, so the hit rate never drops as the cache grows.
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize(
        "pair", ["crc32/small", "dijkstra/small", "bitcount/small"])
    def test_profile_pickles_like_cache_oracle(self, pair):
        """The kernel-based profile is byte-identical to the per-access
        :class:`Cache` replay, dict insertion orders included."""
        name, inp = pair.split("/")
        trace = run_source(get_workload(name).source_for(inp))
        profile = profile_memory(trace.binary, trace)
        oracle = cache_oracle_profile(trace.binary, trace)
        assert pickle.dumps(profile) == pickle.dumps(oracle)


class TestFullProfile:
    def test_profile_workload_end_to_end(self, fib_source):
        profile, trace = profile_workload(fib_source)
        assert profile.total_instructions == trace.instructions
        assert profile.sfgl.blocks
        assert profile.mix.total == trace.instructions

    def test_reduction_for_target(self, fib_source):
        profile, _ = profile_workload(fib_source)
        assert profile.reduction_for_target(profile.total_instructions) == 1
        assert profile.reduction_for_target(100) >= 1
        with pytest.raises(ValueError):
            profile.reduction_for_target(0)
