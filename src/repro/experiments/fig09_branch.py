"""Fig. 9 — branch prediction accuracy.

Hybrid (bimodal + gshare + chooser) predictor accuracy per benchmark,
original vs synthetic, at -O0 and -O2.  The paper's marker: adpcm is the
most predictor-sensitive benchmark, in both originals and clones.

Accuracies come from the replay kernels' vectorised predictor
(:func:`repro.sim.branch.hybrid_accuracy`), which reads the packed
branch log zero-copy and equals a fresh
:class:`~repro.sim.branch.HybridPredictor`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import ExperimentRunner, QUICK_PAIRS, format_table
from repro.sim.branch import hybrid_accuracy


@dataclass
class Fig09Result:
    rows: list[dict] = field(default_factory=list)

    def accuracy(self, workload: str, input_name: str, side: str, level: int) -> float:
        for row in self.rows:
            if (
                row["workload"] == workload
                and row["input"] == input_name
                and row["side"] == side
                and row["level"] == level
            ):
                return row["accuracy"]
        raise KeyError((workload, input_name, side, level))

    def format_table(self) -> str:
        table_rows = [
            [
                f"{row['workload']}/{row['input']}",
                f"O{row['level']}",
                row["side"],
                row["accuracy"],
            ]
            for row in self.rows
        ]
        return format_table(
            ["benchmark", "level", "side", "accuracy"],
            table_rows,
            title="Fig. 9: hybrid branch predictor accuracy",
        )


def run_fig09(
    runner: ExperimentRunner, pairs=QUICK_PAIRS, levels=(0, 2), isa: str = "x86"
) -> Fig09Result:
    result = Fig09Result()
    for workload, input_name in pairs:
        for level in levels:
            for side in ("ORG", "SYN"):
                trace = (
                    runner.original_trace(workload, input_name, isa, level)
                    if side == "ORG"
                    else runner.synthetic_trace(workload, input_name, isa, level)
                )
                result.rows.append(
                    {
                        "workload": workload,
                        "input": input_name,
                        "level": level,
                        "side": side,
                        "accuracy": hybrid_accuracy(trace.branch_log),
                    }
                )
    return result
