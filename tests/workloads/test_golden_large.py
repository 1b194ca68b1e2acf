"""Large-input golden tests for the cheaper workloads.

(The heavyweights — susan, jpeg, dijkstra — run their large inputs in
the gated full-suite equivalence sweeps, ``REPRO_EXEC_EQUIV_ALL=1`` and
``REPRO_KERNEL_EQUIV_ALL=1``, and dijkstra/large also in
tests/experiments/test_paper_shapes.py.)
"""

import pytest

from repro.cc.driver import compile_program
from repro.sim.functional import run_binary
from repro.workloads import WORKLOADS

LARGE_FAST = ("adpcm", "basicmath", "crc32", "fft", "gsm", "patricia", "qsort")


@pytest.mark.parametrize("name", LARGE_FAST)
def test_large_input_matches_reference_o0(name):
    workload = WORKLOADS[name]
    trace = run_binary(
        compile_program(workload.source_for("large"), "x86", 0).binary
    )
    assert trace.output == workload.expected_output("large")


@pytest.mark.parametrize("name", ("crc32", "qsort"))
def test_large_input_matches_reference_o2(name):
    workload = WORKLOADS[name]
    trace = run_binary(
        compile_program(workload.source_for("large"), "x86_64", 2).binary
    )
    assert trace.output == workload.expected_output("large")
