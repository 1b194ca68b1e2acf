"""Packed traces: narrow typed buffers, zero-copy numpy views, and
run artifacts that round-trip through the store unchanged."""

import pickle
from array import array

import numpy as np
import pytest

from repro.cc.driver import compile_program
from repro.engine.api import Engine
from repro.sim.functional import Simulator, run_binary
from repro.sim.trace import ExecutionTrace, as_array, pack_buffer
from repro.workloads import WORKLOADS

_NARROW_FIRST = ("B", "H", "I")
_LIMITS = {"B": 0xFF, "H": 0xFFFF, "I": 0xFFFFFFFF}


def assert_narrowest(buffer) -> None:
    """*buffer* is an array of the narrowest unsigned type its values
    fit (int64 only when uint32 does not)."""
    assert isinstance(buffer, array)
    if not len(buffer):
        assert buffer.typecode == "B"
        return
    low, high = min(buffer), max(buffer)
    fits = [code for code in _NARROW_FIRST if low >= 0 and high <= _LIMITS[code]]
    assert buffer.typecode == (fits[0] if fits else "q")


class TestPackBuffer:
    @pytest.mark.parametrize("values,typecode", [
        ([], "B"),
        ([0, 255], "B"),
        ([256], "H"),
        ([3, 65535], "H"),
        ([65536], "I"),
        ([0xFFFFFFFF], "I"),
        ([1 << 32], "q"),
        ([5, -1], "q"),
    ])
    def test_narrowest_typecode(self, values, typecode):
        packed = pack_buffer(values)
        assert packed.typecode == typecode
        assert packed.tolist() == values

    def test_as_array_is_a_zero_copy_view(self):
        buffer = pack_buffer([1, 70000, 3])
        view = as_array(buffer)
        assert view.dtype == np.uint32
        assert view.tolist() == [1, 70000, 3]
        assert np.shares_memory(view, np.frombuffer(buffer, dtype=np.uint32))

    def test_list_built_trace_is_packed(self):
        binary = compile_program("int main() { return 0; }").binary
        trace = ExecutionTrace(binary=binary, block_seq=[0, 300],
                               mem_addrs=[], branch_log=[7], output="",
                               exit_value=0, instructions=2)
        assert [trace.block_seq.typecode, trace.mem_addrs.typecode,
                trace.branch_log.typecode] == ["H", "B", "B"]


class TestRunArtifacts:
    @pytest.mark.parametrize("workload", ["crc32", "sha"])
    def test_store_round_trip_keeps_the_narrowest_buffers(self, tmp_path,
                                                          workload):
        engine = Engine(cache_dir=tmp_path / "store")
        cold = engine.original_trace(workload, "small")
        warm = Engine(cache_dir=tmp_path / "store").original_trace(
            workload, "small")
        for name in ("block_seq", "mem_addrs", "branch_log"):
            buffer = getattr(warm, name)
            assert buffer == getattr(cold, name)
            assert buffer.typecode == getattr(cold, name).typecode
            assert_narrowest(buffer)
            assert buffer.itemsize <= 2  # small inputs fit 16 bits

    @pytest.mark.parametrize("workload", ["crc32", "dijkstra"])
    def test_fast_and_reference_traces_stay_pickle_equal(self, workload):
        binary = compile_program(WORKLOADS[workload].source_for("small"),
                                 "x86", 2).binary
        ref = Simulator(binary)._run_python(True)
        fast = run_binary(binary)
        for buffer in (fast.block_seq, fast.mem_addrs, fast.branch_log):
            assert_narrowest(buffer)
        assert pickle.dumps(ref) == pickle.dumps(fast)
