"""Functional-execution throughput: python vs fast engine.

Times one functional run of the suite's longest workload —
bitcount/large at the engine's ``-O0`` reference — through both
execution engines:

* ``python`` — the reference per-instruction interpreter
  (``Simulator._run_python``);
* ``fast-cold`` — the block-compiling engine from nothing: per-binary
  source generation + ``exec`` compile + the run (the first run of a
  binary in a fresh process);
* ``fast-warm`` — the steady state the engine actually lives in, with
  the compiled unit cached and the segment-memo anchor tables adapted
  (every run of a binary after its first).

Each measurement records ``extra_info["functional"]`` — engine, pair,
instruction count and instrs/sec — so the ``BENCH_engine.json``
trajectory artifact carries python-vs-fast functional throughput
(``scripts/print_bench_summary.py`` renders the table).

``test_speedup_longest_workload`` is the acceptance gate: the warm fast
engine must execute bitcount/large >= 5x faster than the reference
interpreter with a pickle-equal trace.
"""

from __future__ import annotations

import pickle
import time

from repro.cc.driver import compile_program
from repro.sim import fastexec
from repro.sim.functional import Simulator
from repro.workloads import WORKLOADS

#: The suite's longest functional run at the engine's reference config
#: (``repro.engine.tasks``: x86, -O0) — ~2.8M dynamic instructions.
LONGEST_PAIR = ("bitcount", "large")

_BINARY = {}


def _ref_binary():
    if "binary" not in _BINARY:
        workload, input_name = LONGEST_PAIR
        source = WORKLOADS[workload].source_for(input_name)
        _BINARY["binary"] = compile_program(source, "x86", 0).binary
    return _BINARY["binary"]


def _timed_run(benchmark, engine: str, fn) -> float:
    elapsed = []

    def run():
        start = time.perf_counter()
        result = fn()
        elapsed.append(time.perf_counter() - start)
        return result

    trace = benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = elapsed[0]
    benchmark.extra_info["functional"] = {
        "engine": engine,
        "pair": "/".join(LONGEST_PAIR) + "@x86-O0",
        "instructions": trace.instructions,
        "instrs_per_sec": trace.instructions / seconds if seconds else 0.0,
    }
    return seconds


def test_python_run(benchmark):
    binary = _ref_binary()
    _timed_run(benchmark, "python",
               lambda: Simulator(binary)._run_python(True))


def test_fast_run_cold(benchmark):
    binary = _ref_binary()
    fastexec._UNIT_CACHE.clear()
    _timed_run(benchmark, "fast-cold",
               lambda: Simulator(binary).run(True))


def test_fast_run_warm(benchmark):
    binary = _ref_binary()
    Simulator(binary).run(True)  # compile unit, adapt anchors
    _timed_run(benchmark, "fast-warm",
               lambda: Simulator(binary).run(True))


def test_speedup_longest_workload(benchmark):
    """Acceptance: warm fast >= 5x python on bitcount/large, traces
    pickle-equal; the measured ratio lands in extra_info."""
    binary = _ref_binary()
    measured = {}

    def measure():
        start = time.perf_counter()
        ref = Simulator(binary)._run_python(True)
        t_py = time.perf_counter() - start
        Simulator(binary).run(True)  # warm up
        start = time.perf_counter()
        fast = Simulator(binary).run(True)
        t_fast = time.perf_counter() - start
        assert pickle.dumps(ref) == pickle.dumps(fast)
        measured["speedup"] = t_py / t_fast
        return measured

    benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["functional"] = {
        "engine": "speedup",
        "pair": "/".join(LONGEST_PAIR) + "@x86-O0",
        "speedup": round(measured["speedup"], 2),
    }
    print(f"\nfast functional speedup: {measured['speedup']:.1f}x")
    assert measured["speedup"] >= 5.0, measured
