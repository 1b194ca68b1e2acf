"""Timing model tests: OoO, in-order, machine models."""

import pytest

from repro.sim.cache import CacheConfig
from repro.sim.inorder import InOrderModel
from repro.sim.machines import ITANIUM2, MACHINES, PENTIUM4_3GHZ
from repro.sim.ooo import OutOfOrderModel, TimingConfig
from tests.conftest import run_source

DEPENDENT_CHAIN = """
int main() {
  int x = 1;
  int i;
  for (i = 0; i < 2000; i++) {
    x = x * 3;
    x = x + 7;
    x = x ^ 11;
    x = x - 2;
  }
  printf("%d", x & 255);
  return 0;
}
"""

FLOAT_HEAVY = """
int main() {
  float x = 1.1;
  float total = 0.0;
  int i;
  for (i = 0; i < 1500; i++) {
    total = total + sin(x) * cos(x);
    x = x + 0.01;
  }
  printf("%.2f", total);
  return 0;
}
"""

MEMORY_STREAM = """
unsigned buf[16384];
int main() {
  unsigned total = 0u;
  int i;
  int r;
  for (r = 0; r < 6; r++) {
    for (i = 0; i < 16384; i = i + 8) {
      total = total + buf[i];
    }
  }
  printf("%u", total);
  return 0;
}
"""


def cpi_of(model, source, opt_level=0):
    trace = run_source(source, opt_level=opt_level)
    return model.simulate(trace).cpi


class TestOutOfOrder:
    def test_cpi_positive_and_sane(self, fib_source):
        trace = run_source(fib_source)
        result = OutOfOrderModel().simulate(trace)
        assert 0.3 < result.cpi < 10
        assert result.instructions == trace.instructions

    def test_float_code_has_higher_cpi(self):
        model = OutOfOrderModel()
        assert cpi_of(model, FLOAT_HEAVY) > cpi_of(model, DEPENDENT_CHAIN)

    def test_cache_misses_raise_cpi(self):
        small = TimingConfig(l1=CacheConfig(1024, 32, 4), l2=None)
        large = TimingConfig(l1=CacheConfig(256 * 1024, 32, 4), l2=None)
        trace = run_source(MEMORY_STREAM)
        cpi_small = OutOfOrderModel(small).simulate(trace).cpi
        cpi_large = OutOfOrderModel(large).simulate(trace).cpi
        assert cpi_small > cpi_large * 1.2

    def test_wider_dispatch_not_slower(self, loopy_source):
        trace = run_source(loopy_source)
        narrow = OutOfOrderModel(TimingConfig(width=1)).simulate(trace).cycles
        wide = OutOfOrderModel(TimingConfig(width=4)).simulate(trace).cycles
        assert wide <= narrow

    def test_bigger_rob_not_slower(self, loopy_source):
        trace = run_source(loopy_source)
        small = OutOfOrderModel(TimingConfig(rob_size=8)).simulate(trace).cycles
        big = OutOfOrderModel(TimingConfig(rob_size=256)).simulate(trace).cycles
        assert big <= small

    def test_branch_stats_recorded(self, fib_source):
        trace = run_source(fib_source)
        result = OutOfOrderModel().simulate(trace)
        assert result.branch_hits + result.branch_misses == len(trace.branch_log)


class TestInOrder:
    def test_in_order_slower_than_ooo_on_chains(self):
        trace = run_source(DEPENDENT_CHAIN)
        in_order = InOrderModel().simulate(trace).cycles
        out_of_order = OutOfOrderModel().simulate(trace).cycles
        assert in_order >= out_of_order

    def test_optimization_helps_itanium_substantially(self, loopy_source):
        """The paper's Itanium observation (Fig. 11): the statically
        scheduled machine gains a lot from compiler optimization and
        stays the slowest machine even at -O2.  (The stronger
        "gains *more* than x86" claim is suite-level and asserted by
        tests/experiments/test_paper_shapes.py::test_fig11.)"""
        o0 = run_source(loopy_source, isa=ITANIUM2.isa.name, opt_level=0)
        o2 = run_source(loopy_source, isa=ITANIUM2.isa.name, opt_level=2)
        speedup = ITANIUM2.runtime_seconds(o0) / ITANIUM2.runtime_seconds(o2)
        assert speedup > 1.3
        p4_o2 = run_source(loopy_source, isa="x86", opt_level=2)
        assert ITANIUM2.runtime_seconds(o2) > PENTIUM4_3GHZ.runtime_seconds(p4_o2)


class TestMachines:
    def test_table_iii_has_five_machines(self):
        assert len(MACHINES) == 5
        names = {machine.name for machine in MACHINES}
        assert "Itanium 2" in names
        assert "Core i7" in names

    def test_itanium_is_in_order(self):
        assert ITANIUM2.in_order is True
        assert ITANIUM2.isa.name == "ia64"

    def test_pentium4_is_x86(self):
        assert PENTIUM4_3GHZ.isa.name == "x86"
        assert PENTIUM4_3GHZ.frequency_ghz == 3.0

    def test_runtime_scales_with_frequency(self, fib_source):
        trace = run_source(fib_source)
        p4_time = PENTIUM4_3GHZ.runtime_seconds(trace)
        assert p4_time > 0

    def test_itanium_slowest_at_o0(self, loopy_source):
        """Fig. 11's headline ordering at -O0."""
        times = {}
        for machine in MACHINES:
            trace = run_source(loopy_source, isa=machine.isa.name, opt_level=0)
            times[machine.name] = machine.runtime_seconds(trace)
        slowest = max(times, key=times.get)
        assert slowest == "Itanium 2"


class TestDecodeCache:
    """The module-level weak decode cache: one decode per live binary."""

    def test_same_binary_decodes_once(self, fib_source):
        from repro.sim.timing_common import decode_binary

        trace = run_source(fib_source)
        first = decode_binary(trace.binary)
        assert decode_binary(trace.binary) is first
        assert len(first) == len(trace.binary.block_map)

    def test_models_share_the_decode(self, fib_source):
        """N machine configurations on one trace decode exactly once."""
        from repro.sim import timing_common
        from repro.sim.timing_common import decode_binary

        trace = run_source(fib_source)
        decoded = decode_binary(trace.binary)
        seen = []
        original = timing_common.decode_instruction

        def counting(ins):
            seen.append(ins)
            return original(ins)

        timing_common.decode_instruction = counting
        try:
            for machine in MACHINES:
                machine.simulate(trace)
        finally:
            timing_common.decode_instruction = original
        assert seen == []  # every model reused the cached decode
        assert decode_binary(trace.binary) is decoded

    def test_cache_entries_die_with_their_binary(self, fib_source):
        import gc

        from repro.sim.timing_common import decode_binary, decode_cache_size

        trace = run_source(fib_source)
        decode_binary(trace.binary)
        before = decode_cache_size()
        del trace
        gc.collect()
        assert decode_cache_size() < before

    def test_decoded_binary_is_indexable(self, fib_source):
        from repro.sim.timing_common import DecodedOp, decode_binary

        trace = run_source(fib_source)
        decoded = decode_binary(trace.binary)
        assert all(isinstance(op, DecodedOp) for op in decoded[0])


class TestResultHistograms:
    """TimingResult carries the simulator latency/run distributions the
    sweep scores as divergence components."""

    def test_memory_code_fills_mem_latency_histogram(self):
        model = OutOfOrderModel(TimingConfig(
            l1=CacheConfig(4096, 32, 2), l2=None, memory_cycles=100))
        trace = run_source(MEMORY_STREAM)
        result = model.simulate(trace)
        hist = result.mem_lat_hist
        assert hist is not None
        assert hist["count"] > 0
        assert hist["max"] >= hist["min"] > 0
        assert all(isinstance(k, int) for k in hist["buckets"])

    def test_branchy_code_fills_run_histogram(self):
        model = OutOfOrderModel(TimingConfig())
        trace = run_source(DEPENDENT_CHAIN)
        result = model.simulate(trace)
        assert result.branch_run_hist is not None
        assert result.branch_run_hist["count"] > 0

    def test_in_order_model_also_records(self):
        model = InOrderModel(TimingConfig(l1=CacheConfig(4096, 32, 2)))
        trace = run_source(MEMORY_STREAM)
        result = model.simulate(trace)
        assert result.mem_lat_hist is not None
        assert result.mem_lat_hist["count"] > 0

    def test_repeat_simulation_is_deterministic(self):
        model = OutOfOrderModel(TimingConfig())
        trace = run_source(DEPENDENT_CHAIN)
        first = model.simulate(trace)
        second = model.simulate(trace)
        assert first.mem_lat_hist == second.mem_lat_hist
        assert first.branch_run_hist == second.branch_run_hist
