"""Batched replay kernels: byte-identical equivalence, the single
replay path through ``TimingModel.simulate``, and the per-trace stream
results and segment-memo hit chain a machine sweep reuses.

The contract under test is absolute: for every trace and every
configuration, :func:`repro.sim.kernels.replay_trace` must produce a
:class:`TimingResult` whose *pickle bytes* equal the pure-python
model's — scalars and exp-histogram snapshots alike.  Equivalence is
checked three ways:

* real workload traces (a cross-section of the suite's small inputs,
  both cycle models; every pair + Table III machine with
  ``REPRO_KERNEL_EQUIV_ALL=1``);
* the five Table III machines on one trace (distinct cache/ROB/width
  geometries, in-order and out-of-order);
* seeded random mutations of a real trace (addresses and branch
  outcomes rewritten), so the segment memo and periodic-region paths
  see streams no real program produces.

``REPRO_KERNEL_EQUIV_ALL=1`` also checks the kernel's speed floor: a
warm replay of the longest trace at least 10x faster than python.
"""

from __future__ import annotations

import gc
import pickle
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.cc.driver import compile_program
from repro.sim import kernels
from repro.sim.cache import CacheConfig
from repro.sim.functional import run_binary
from repro.sim.inorder import InOrderModel
from repro.sim.machines import MACHINES
from repro.sim.ooo import OutOfOrderModel
from repro.sim.timing_common import TimingConfig, decode_binary
from repro.sim.trace import ExecutionTrace
from repro.workloads import WORKLOADS

# Loop-heavy, call-heavy, FP-heavy and branchy workloads; small inputs
# keep the tier-1 run fast.  REPRO_KERNEL_EQUIV_ALL=1 widens this to
# every pair (a CI step of the test job).
SAMPLE_PAIRS = (
    ("bitcount", "small"),
    ("crc32", "small"),
    ("fft", "small"),
    ("qsort", "small"),
    ("sha", "small"),
    ("stringsearch", "small"),
)

_TRACES: dict[tuple, ExecutionTrace] = {}


def trace_for(workload: str, input_name: str) -> ExecutionTrace:
    key = (workload, input_name)
    if key not in _TRACES:
        source = WORKLOADS[workload].source_for(input_name)
        binary = compile_program(source, "x86", 0).binary
        _TRACES[key] = run_binary(binary)
    return _TRACES[key]


def assert_equivalent(model, trace) -> None:
    decoded = decode_binary(trace.binary)
    py = model.replay(trace, decoded)
    fast = kernels.replay_trace(model, trace, decoded)
    assert pickle.dumps(py) == pickle.dumps(fast), (
        f"{type(model).__name__} diverged: py={py} np={fast}")


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("workload,input_name", SAMPLE_PAIRS)
    def test_ooo_byte_identical(self, workload, input_name):
        assert_equivalent(OutOfOrderModel(), trace_for(workload, input_name))

    @pytest.mark.parametrize("workload,input_name", SAMPLE_PAIRS)
    def test_inorder_byte_identical(self, workload, input_name):
        assert_equivalent(InOrderModel(), trace_for(workload, input_name))

    def test_segment_memo_engages(self):
        """The block-memoized path must actually carry real traces —
        otherwise the equivalence above only covers the interpreter."""
        trace = trace_for("crc32", "small")
        kernels.SEG_DEBUG = {}
        try:
            assert_equivalent(OutOfOrderModel(), trace)
            assert kernels.SEG_DEBUG.get("hit", 0) > 0, kernels.SEG_DEBUG
        finally:
            kernels.SEG_DEBUG = None

    def test_memo_persists_across_replays_of_one_binary(self):
        """Second replay of the same binary under the same config must
        hit the per-binary memo far more than it misses."""
        trace = trace_for("sha", "small")
        model = InOrderModel()
        kernels.replay_trace(model, trace)  # populate
        kernels.SEG_DEBUG = {}
        try:
            kernels.replay_trace(model, trace)
            hits = kernels.SEG_DEBUG.get("hit", 0)
            misses = kernels.SEG_DEBUG.get("miss", 0)
            assert hits > 10 * max(misses, 1), kernels.SEG_DEBUG
        finally:
            kernels.SEG_DEBUG = None


class TestMachineMatrix:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_table_iii_byte_identical(self, machine):
        trace = trace_for("fft", "small")
        model = machine.model()
        assert_equivalent(model, trace)


@pytest.mark.skipif("not __import__('os').environ.get('REPRO_KERNEL_EQUIV_ALL')")
class TestFullSuiteEquivalence:
    """The acceptance sweep: every pair, both models, and the kernel's
    speed floor (a CI step)."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("input_name", ("small", "large"))
    def test_every_pair(self, workload, input_name):
        trace = trace_for(workload, input_name)
        assert_equivalent(OutOfOrderModel(), trace)
        assert_equivalent(InOrderModel(), trace)

    @pytest.mark.parametrize("model_class", [OutOfOrderModel, InOrderModel])
    def test_speed_floor_longest_trace(self, model_class):
        """A warm kernel replay of the suite's longest trace
        (bitcount/large at the engine's x86 -O0 reference, ~2.8M
        instructions) is at least 10x faster than ``model.replay``."""
        trace = trace_for("bitcount", "large")
        decoded = decode_binary(trace.binary)
        model = model_class()
        start = time.perf_counter()
        py = model.replay(trace, decoded)
        t_py = time.perf_counter() - start
        kernels.replay_trace(model, trace, decoded)  # warm pack and memo
        start = time.perf_counter()
        fast = kernels.replay_trace(model, trace, decoded)
        t_np = time.perf_counter() - start
        assert py == fast
        assert t_py / t_np >= 10.0, (t_py, t_np)


def _mutated(trace: ExecutionTrace, seed: int) -> ExecutionTrace:
    """A trace no real program produces, yet valid by construction:
    same block sequence (so stream lengths still match the binary),
    random data addresses, random branch outcomes."""
    rng = random.Random(seed)
    mem = [rng.randrange(0, 1 << 20) & ~3 for _ in trace.mem_addrs]
    branches = [(entry & ~1) | rng.randint(0, 1) for entry in trace.branch_log]
    return ExecutionTrace(
        binary=trace.binary,
        block_seq=list(trace.block_seq),
        mem_addrs=mem,
        branch_log=branches,
        output=trace.output,
        exit_value=trace.exit_value,
        instructions=trace.instructions,
    )


class TestRandomTraceProperty:
    """Seeded random streams through both kernels (property-style)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_stay_byte_identical(self, seed):
        base = trace_for("qsort", "small")
        trace = _mutated(base, seed)
        model = OutOfOrderModel() if seed % 2 else InOrderModel()
        assert_equivalent(model, trace)

    @pytest.mark.parametrize("seed", (7, 8))
    def test_random_streams_under_nondefault_geometry(self, seed):
        trace = _mutated(trace_for("fft", "small"), seed)
        config = TimingConfig(width=4, rob_size=16, l1_hit_cycles=2,
                              l2_hit_cycles=9, memory_cycles=200,
                              mispredict_penalty=5)
        assert_equivalent(OutOfOrderModel(config), trace)


class TestSelection:
    """``TimingModel.simulate`` replays every trace on the batched
    kernel for models that have one, and in python otherwise."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Records every ``replay_trace`` call ``simulate`` makes."""
        calls = []
        real = kernels.replay_trace

        def spy(model, trace, decoded=None):
            calls.append(type(model).__name__)
            return real(model, trace, decoded)

        monkeypatch.setattr(kernels, "replay_trace", spy)
        return calls

    @pytest.fixture
    def trace(self, fib_source):
        return run_binary(compile_program(fib_source, "x86", 0).binary)

    @pytest.mark.parametrize("model_cls", (OutOfOrderModel, InOrderModel))
    @pytest.mark.parametrize("source", ("fib", "int main(){ return 0; }"),
                             ids=("fib", "return-0"))
    def test_simulate_always_uses_kernel(self, source, model_cls,
                                         kernel_calls, fib_source):
        """No length threshold: a loop and a near-empty trace alike."""
        text = fib_source if source == "fib" else source
        trace = run_binary(compile_program(text, "x86", 0).binary)
        model = model_cls()
        result = model.simulate(trace)
        assert kernel_calls == [model_cls.__name__]
        assert pickle.dumps(result) == pickle.dumps(
            model.replay(trace, decode_binary(trace.binary)))

    def test_unbatched_model_replays_in_python(self, trace, kernel_calls):
        class Unbatched(OutOfOrderModel):
            kernel_kind = None

        result = Unbatched().simulate(trace)
        assert kernel_calls == []
        assert pickle.dumps(result) == pickle.dumps(OutOfOrderModel().replay(
            trace, decode_binary(trace.binary)))

    def test_unknown_kernel_rejected(self, trace):
        class Fortran(OutOfOrderModel):
            kernel_kind = "fortran"

        with pytest.raises(ValueError, match="no batched kernel"):
            kernels.replay_trace(Fortran(), trace)

    def test_simulate_dispatch_is_byte_identical(self, kernel_calls):
        """The TimingModel.simulate hook end to end on a long trace: the
        kernel gives the python model's bytes."""
        trace = trace_for("crc32", "small")
        model = OutOfOrderModel()
        fast = model.simulate(trace)
        assert kernel_calls == ["OutOfOrderModel"]
        slow = model.replay(trace, decode_binary(trace.binary))
        assert pickle.dumps(fast) == pickle.dumps(slow)


class TestPackCacheLifetime:
    def test_pack_dies_with_its_trace(self, loopy_source):
        binary = compile_program(loopy_source, "x86", 0).binary
        trace = run_binary(binary)
        gc.collect()  # reap packs of earlier tests' dead traces first
        before = kernels.pack_cache_size()
        kernels.replay_trace(InOrderModel(), trace)
        assert kernels.pack_cache_size() == before + 1
        del trace
        gc.collect()
        assert kernels.pack_cache_size() == before


def _pack(trace):
    decoded = decode_binary(trace.binary)
    return kernels._trace_pack(trace, kernels._binary_stat(trace.binary,
                                                           decoded))


def assert_simulate_pinned(model, trace) -> None:
    """``simulate`` (the sweep's entry point) gives the python bytes."""
    fast = model.simulate(trace)
    slow = model.replay(trace, decode_binary(trace.binary))
    assert pickle.dumps(fast) == pickle.dumps(slow), type(model).__name__


class TestStreamMemo:
    """Cache and predictor streams are simulated once per trace and
    geometry, however many machines replay the trace."""

    def test_each_geometry_simulated_once(self, loopy_source, monkeypatch):
        calls = {"cache": 0, "predictor": 0}
        cache_sim, predictor_sim = kernels._cache_sim, kernels._predictor_sim

        def count(name, real):
            def spy(*args):
                calls[name] += 1
                return real(*args)
            return spy

        monkeypatch.setattr(kernels, "_cache_sim", count("cache", cache_sim))
        monkeypatch.setattr(kernels, "_predictor_sim",
                            count("predictor", predictor_sim))
        trace = run_binary(compile_program(loopy_source, "x86", 0).binary)
        for l1_kb in (1, 8):
            for l2_kb in (16, 512):
                for rob in (16, 64, 128):
                    config = TimingConfig(
                        rob_size=rob, l1=CacheConfig(l1_kb * 1024, 32, 4),
                        l2=CacheConfig(l2_kb * 1024, 32, 8))
                    assert_simulate_pinned(OutOfOrderModel(config), trace)
        assert calls == {"cache": 4, "predictor": 1}
        for result in _pack(trace).streams.values():
            assert not result[0].flags.writeable

    def test_streams_stay_bounded(self, loopy_source):
        trace = run_binary(compile_program(loopy_source, "x86", 0).binary)
        bound = kernels.STREAMS_CACHE_SIZE
        for size in range(bound + 3):
            config = TimingConfig(l1=CacheConfig(512 << size, 32, 2))
            assert_simulate_pinned(InOrderModel(config), trace)
            assert len(_pack(trace).streams) <= bound
        assert len(_pack(trace).streams) == bound
        # The predictor result, used by every replay, is never the
        # least recently used entry, so it survives the evictions.
        assert TimingConfig().predictor_entries in _pack(trace).streams

    def test_threads_sharing_a_trace_agree(self, loopy_source):
        """Thread-backend replays of one trace share its pack."""
        trace = run_binary(compile_program(loopy_source, "x86", 0).binary)
        configs = [TimingConfig(l1=CacheConfig(512 << size, 32, 2))
                   for size in range(kernels.STREAMS_CACHE_SIZE + 2)]
        decoded = decode_binary(trace.binary)
        expected = [pickle.dumps(InOrderModel(c).replay(trace, decoded))
                    for c in configs]
        results = {}

        def work(index):
            order = configs[index:] + configs[:index]
            results[index] = {
                c.l1.size_bytes: pickle.dumps(InOrderModel(c).simulate(trace))
                for c in order}

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        want = {c.l1.size_bytes: e for c, e in zip(configs, expected)}
        assert results == {i: want for i in range(4)}
        assert len(_pack(trace).streams) == kernels.STREAMS_CACHE_SIZE


# Warm phase-1 loop iterations that memoize, then a loop whose single
# iteration (~4.2k blocks) overflows a memo segment and is locked as a
# periodic region instead; on the third outer pass the segment just
# before that region is a memo hit, so the scoreboard is rebuilt from
# its relative form right before the locked region runs.
HIT_THEN_REGION_SOURCE = r"""
int data[64];
int main() {
  int acc = 0;
  int t;
  int r;
  int i;
  for (i = 0; i < 64; i++) { data[i] = i * 3 - 17; }
  for (t = 0; t < 3; t++) {
    for (r = 0; r < 12; r++) {
      for (i = 0; i < 24; i++) {
        acc = acc + data[i];
        if ((i & 7) == 0) { acc = acc + 3; }
      }
    }
    if (data[3] > 5) { acc = acc - 1; }
    if (data[4] < 3) { acc = acc + 2; }
    if ((data[5] & 1) == 0) { acc = acc + 1; }
    for (r = 0; r < 6; r++) {
      for (i = 0; i < 1400; i++) { acc = acc + (i ^ r); }
    }
  }
  printf("%d\n", acc);
  return 0;
}
"""


class TestHitChain:
    """Memo hits chain in relative form; the absolute scoreboard is
    rebuilt only before a chunk that has to be interpreted."""

    @pytest.fixture(autouse=True)
    def seg_debug(self):
        kernels.SEG_DEBUG = {}
        yield kernels.SEG_DEBUG
        kernels.SEG_DEBUG = None

    @pytest.mark.parametrize("model", (
        OutOfOrderModel(TimingConfig(rob_size=128)), InOrderModel()),
        ids=("ooo-rob128", "inorder"))
    def test_loopy_trace_hits(self, model, loopy_source, seg_debug):
        trace = run_binary(compile_program(loopy_source, "x86", 0).binary)
        assert_simulate_pinned(model, trace)
        assert seg_debug.get("hit", 0) > 0, seg_debug

    @pytest.mark.parametrize("model", (OutOfOrderModel(), InOrderModel()),
                             ids=("ooo", "inorder"))
    def test_locked_region_after_hits(self, model, seg_debug):
        trace = run_binary(compile_program(HIT_THEN_REGION_SOURCE, "x86",
                                           0).binary)
        assert_simulate_pinned(model, trace)
        pack = _pack(trace)
        config = model.config
        codes = pack.streams[(config.l1, config.l2)][0]
        correct = pack.streams[config.predictor_entries][0]
        rob = config.rob_size if model.kernel_kind == "ooo" else 0
        assert kernels._steady_regions(pack, codes, correct, rob)
        assert seg_debug.get("hit", 0) > 0, seg_debug
        assert seg_debug.get("expand", 0) > 0, seg_debug


class TestPredictorVectorization:
    """The segmented-scan predictor pass is pinned to the reference loop."""

    def test_composition_table_semantics(self):
        """_COMP[a, b] must encode f_b . f_a over all 4 counter states."""
        decode = lambda c: [(c >> (2 * s)) & 3 for s in range(4)]
        rng = np.random.default_rng(0)
        for a, b in rng.integers(0, 256, (500, 2)):
            fa, fb = decode(a), decode(b)
            assert decode(int(kernels._COMP[a, b])) == [
                fb[fa[s]] for s in range(4)
            ]

    @pytest.mark.parametrize("entries", [64, 1024, 4096])
    def test_pin_on_random_streams(self, entries):
        rng = np.random.default_rng(entries)
        for n in (4096, 5001, 20000):
            pcs = rng.integers(0, 150, n, dtype=np.int64)
            taken = rng.integers(0, 2, n, dtype=np.int64)
            br = (pcs << 1) | taken
            ref = kernels._predictor_sim_python(br, entries)
            vec = kernels._predictor_sim_numpy(br, entries)
            assert np.array_equal(ref[0], vec[0])
            assert ref[1:] == vec[1:]

    def test_pin_on_workload_stream(self):
        br = np.asarray(trace_for("crc32", "small").branch_log, dtype=np.int64)
        ref = kernels._predictor_sim_python(br, 2048)
        vec = kernels._predictor_sim_numpy(br, 2048)
        assert np.array_equal(ref[0], vec[0])
        assert ref[1:] == vec[1:]

    def test_dispatcher_matches_reference_below_threshold(self):
        rng = np.random.default_rng(7)
        n = kernels._PREDICTOR_VECTOR_MIN // 2
        br = (rng.integers(0, 50, n, dtype=np.int64) << 1) | rng.integers(
            0, 2, n, dtype=np.int64)
        ref = kernels._predictor_sim_python(br, 1024)
        got = kernels._predictor_sim(br, 1024)
        assert np.array_equal(ref[0], got[0])
        assert ref[1:] == got[1:]
