"""Cache model tests, including the LRU stack property."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import (
    Cache,
    CacheConfig,
    lru_sweep,
    simulate_cache,
    sweep_cache_sizes,
)


def _hits(addrs, config) -> bytearray:
    return bytearray(lru_sweep(addrs, [config])[0].tobytes())


class TestBasicBehaviour:
    def test_first_access_misses(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        assert cache.access(0) is False

    def test_same_line_hits(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        cache.access(0)
        assert cache.access(4) is True  # same 32-byte line
        assert cache.access(31) is True

    def test_next_line_misses(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        cache.access(0)
        assert cache.access(32) is False

    def test_lru_eviction_order(self):
        # Direct-mapped-by-set: 2 ways, force 3 lines into one set.
        config = CacheConfig(size_bytes=64 * 2, line_bytes=32, associativity=2)
        cache = Cache(config)
        num_sets = config.num_sets
        stride = 32 * num_sets  # same set every time
        cache.access(0)
        cache.access(stride)
        cache.access(2 * stride)  # evicts line 0 (LRU)
        assert cache.access(stride) is True
        assert cache.access(0) is False

    def test_lru_refresh_on_hit(self):
        config = CacheConfig(size_bytes=64 * 2, line_bytes=32, associativity=2)
        cache = Cache(config)
        stride = 32 * config.num_sets
        cache.access(0)
        cache.access(stride)
        cache.access(0)  # refresh: line 0 becomes MRU
        cache.access(2 * stride)  # evicts `stride`, not 0
        assert cache.access(0) is True

    def test_counters(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        for addr in (0, 0, 32, 0):
            cache.access(addr)
        assert cache.hits == 2
        assert cache.misses == 2
        assert cache.hit_rate == 0.5


class TestStridePatterns:
    """Table I's foundation: stride s over a huge array misses s/32."""

    def _miss_rate(self, stride_bytes: int) -> float:
        cache = Cache(CacheConfig(8 * 1024, 32, 4))
        address = 0
        span = 1 << 22  # far larger than the cache
        for _ in range(20000):
            cache.access(address % span)
            address += stride_bytes
        return cache.miss_rate

    def test_stride_zero_always_hits(self):
        assert self._miss_rate(0) < 0.01

    def test_stride_4_misses_one_in_eight(self):
        assert abs(self._miss_rate(4) - 0.125) < 0.01

    def test_stride_16_misses_half(self):
        assert abs(self._miss_rate(16) - 0.5) < 0.01

    def test_stride_32_always_misses(self):
        assert self._miss_rate(32) > 0.99


class TestSweep:
    def test_sweep_returns_all_sizes(self):
        addrs = list(range(0, 4096, 4))
        rates = sweep_cache_sizes(addrs, [1024, 2048, 4096])
        assert set(rates) == {1024, 2048, 4096}

    def test_working_set_knee(self):
        """Miss rate collapses once the cache covers the working set."""
        working_set = list(range(0, 8 * 1024, 4)) * 8  # 8KB, re-walked
        rates = sweep_cache_sizes(working_set, [2 * 1024, 16 * 1024])
        miss_small = 1.0 - rates[2 * 1024]
        miss_large = 1.0 - rates[16 * 1024]
        assert miss_small > 5 * miss_large  # ~8x fewer misses past the knee

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 16), min_size=10, max_size=300),
        st.sampled_from([1024, 2048, 4096]),
    )
    def test_hit_rate_monotonic_in_size_fully_assoc(self, addrs, size):
        """LRU inclusion property: bigger fully-associative cache never
        hits less (classic stack property of LRU)."""
        small = CacheConfig(size, 32, size // 32)  # fully associative
        big = CacheConfig(size * 2, 32, size * 2 // 32)
        small_hits = simulate_cache(addrs, small).hits
        big_hits = simulate_cache(addrs, big).hits
        assert big_hits >= small_hits

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
    def test_counters_sum_to_accesses(self, addrs):
        cache = simulate_cache(addrs, CacheConfig(2048, 32, 4))
        assert cache.hits + cache.misses == len(addrs)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 1 << 11), st.integers(1, 3)),
                 min_size=100, max_size=400),
        st.sampled_from([16, 32, 64]),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_sweep_matches_per_config_cache_replay(self, runs, line,
                                                   assoc):
        """Pin the stream kernel against a per-config :class:`Cache`
        replay of the same stream: ``lru_sweep`` flag by flag, and the
        sweep's hit rates exactly, for every size.  Addresses span 2 KB,
        so lines are reused and evicted at the small sizes, and each
        repeats 1-3 times in a row (byte offsets within its line), so
        the kernel's repeat-skip path is exercised."""
        addrs = [addr + k for addr, reps in runs for k in range(reps)]
        sizes = [512, 2048, 8192, 64 * 1024]
        swept = sweep_cache_sizes(addrs, sizes, line_bytes=line,
                                  associativity=assoc)
        for size in sizes:
            config = CacheConfig(size, line, assoc)
            cache = Cache(config)
            expected = bytearray(cache.access(addr) for addr in addrs)
            assert _hits(addrs, config) == expected, (size, line, assoc)
            assert swept[size] == cache.hit_rate, (size, line, assoc)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 14), min_size=0, max_size=400),
        st.sampled_from([16, 32, 64]),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4, 8, 16]),
    )
    def test_lru_inclusion_when_sets_double(self, addrs, line, assoc, sets):
        """LRU inclusion across set counts: at fixed line size and
        associativity, an access that hits with S sets also hits with 2S
        sets (each big-cache set holds a refinement of a small-cache
        set's lines)."""
        small = _hits(addrs, CacheConfig(sets * line * assoc, line, assoc))
        big = _hits(addrs, CacheConfig(2 * sets * line * assoc, line, assoc))
        assert all(b >= s for s, b in zip(small, big))

    def test_sweep_empty_stream_reports_unit_hit_rate(self):
        assert sweep_cache_sizes([], [1024]) == {1024: 1.0}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 1 << 13), st.integers(1, 3)),
                 max_size=300),
        st.lists(st.tuples(st.sampled_from([64, 96, 256, 1000, 3072, 8192]),
                           st.sampled_from([8, 16, 32, 64]),
                           st.integers(1, 5)),
                 min_size=1, max_size=5),
        st.sampled_from([None, "H", "I"]),
    )
    def test_lru_sweep_rows_match_per_config_cache(self, runs, shapes,
                                                   typecode):
        """Every row of one sweep equals a fresh :class:`Cache`'s flags
        for its own config, whatever the config list: mixed line sizes
        and associativities, non-doubling and non-power-of-two sizes,
        repeats, and empty streams; over a list or a packed array."""
        addrs = [addr + k for addr, reps in runs for k in range(reps)]
        configs = [CacheConfig(size, line, assoc)
                   for size, line, assoc in shapes]
        stream = array(typecode, addrs) if typecode else addrs
        rows = lru_sweep(stream, configs)
        assert rows.shape == (len(configs), len(addrs))
        for row, config in zip(rows, configs):
            cache = Cache(config)
            assert row.tolist() == [int(cache.access(a)) for a in addrs], \
                config

    @pytest.mark.parametrize("typecode", ["B", "H"])
    def test_lru_sweep_narrow_stream_with_many_sets(self, typecode):
        """A uint8/uint16 stream swept through configs whose set counts
        do not fit its dtype (512 sets; 131072 sets) matches per-config
        :class:`Cache` flags."""
        top = 0xFF if typecode == "B" else 0xFFFF
        addrs = [(i * 37) % (top + 1) for i in range(600)] + [0, top, 8]
        configs = [CacheConfig(512 * 8, 8, 1), CacheConfig(1 << 20, 8, 1)]
        rows = lru_sweep(array(typecode, addrs), configs)
        for row, config in zip(rows, configs):
            cache = Cache(config)
            assert row.tolist() == [int(cache.access(a)) for a in addrs], \
                config

    def test_lru_sweep_without_configs_is_empty(self):
        assert lru_sweep([0, 32], []).shape == (0, 2)


class TestLatencyHistogram:
    def test_record_latency_populates_histogram(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        for cycles in (2, 2, 12, 120):
            cache.record_latency(cycles)
        data = cache.latency_hist.snapshot_data()
        assert data["count"] == 4
        assert data["min"] == 2
        assert data["max"] == 120
        assert sum(data["buckets"].values()) == 4
