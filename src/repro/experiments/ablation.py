"""Ablation — SFGL synthesis vs the linear-sequence baseline.

Prior benchmark synthesizers (Bell & John) emit one flat block sequence
iterated in a big loop: no nested loops, no calls, no conditional
structure.  This experiment quantifies what the SFGL buys by comparing
both clones' fidelity to the original on three axes the paper's figures
read off: branch-prediction accuracy, instruction mix and cache hit
rate.  The three traces' metrics are one small artifact of the
engine's ``ablation`` stage, which also builds, compiles and runs the
linear clone; a warm report only computes the errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import ExperimentRunner, QUICK_PAIRS, format_table


def _mix_error(a: dict, b: dict) -> float:
    return sum(abs(a[key] - b[key]) for key in a) / len(a)


@dataclass
class AblationResult:
    rows: list[dict] = field(default_factory=list)

    def average(self, field_name: str) -> float:
        values = [row[field_name] for row in self.rows]
        return sum(values) / len(values) if values else 0.0

    def format_table(self) -> str:
        table_rows = [
            [
                f"{row['workload']}/{row['input']}",
                row["sfgl_branch_err"],
                row["linear_branch_err"],
                row["sfgl_mix_err"],
                row["linear_mix_err"],
                row["sfgl_cache_err"],
                row["linear_cache_err"],
            ]
            for row in self.rows
        ]
        table_rows.append(
            [
                "AVERAGE",
                self.average("sfgl_branch_err"),
                self.average("linear_branch_err"),
                self.average("sfgl_mix_err"),
                self.average("linear_mix_err"),
                self.average("sfgl_cache_err"),
                self.average("linear_cache_err"),
            ]
        )
        return format_table(
            [
                "benchmark",
                "SFGL br.err",
                "linear br.err",
                "SFGL mix.err",
                "linear mix.err",
                "SFGL $.err",
                "linear $.err",
            ],
            table_rows,
            title="Ablation: SFGL synthesis vs linear-sequence baseline",
        )


def run_ablation(
    runner: ExperimentRunner, pairs=QUICK_PAIRS, target_instructions: int = 20_000
) -> AblationResult:
    result = AblationResult()
    for workload, input_name in pairs:
        metrics = runner.ablation(workload, input_name, target_instructions)
        original, sfgl, linear = (metrics["original"], metrics["sfgl"],
                                  metrics["linear"])
        result.rows.append(
            {
                "workload": workload,
                "input": input_name,
                "sfgl_branch_err": abs(
                    sfgl["branch_accuracy"] - original["branch_accuracy"]
                ),
                "linear_branch_err": abs(
                    linear["branch_accuracy"] - original["branch_accuracy"]
                ),
                "sfgl_mix_err": _mix_error(sfgl["mix"], original["mix"]),
                "linear_mix_err": _mix_error(linear["mix"], original["mix"]),
                "sfgl_cache_err": abs(
                    sfgl["cache_hit_rate"] - original["cache_hit_rate"]
                ),
                "linear_cache_err": abs(
                    linear["cache_hit_rate"] - original["cache_hit_rate"]
                ),
            }
        )
    return result
