"""Fig. 9 runs on the replay kernels' predictor: it must agree with the
reference :class:`~repro.sim.branch.HybridPredictor` loop."""

import pytest

from repro.experiments.runner import QUICK_PAIRS
from repro.sim.branch import (
    HybridPredictor,
    hybrid_accuracy,
    simulate_predictor,
)


@pytest.mark.parametrize("level", [0, 2])
@pytest.mark.parametrize("side", ["ORG", "SYN"])
def test_kernel_accuracy_equals_reference_predictor(runner, side, level):
    for workload, input_name in QUICK_PAIRS:
        trace = (runner.original_trace if side == "ORG"
                 else runner.synthetic_trace)(workload, input_name, "x86",
                                              level)
        reference = simulate_predictor(trace.branch_log, HybridPredictor())
        assert hybrid_accuracy(trace.branch_log) == reference.accuracy, \
            (workload, input_name)


def test_empty_log_is_fully_accurate():
    assert hybrid_accuracy([]) == simulate_predictor([]).accuracy == 1.0
