"""Ablation — SFGL synthesis vs the linear-sequence baseline.

Prior benchmark synthesizers (Bell & John) emit one flat block sequence
iterated in a big loop: no nested loops, no calls, no conditional
structure.  This experiment quantifies what the SFGL buys by comparing
both clones' fidelity to the original on three axes the paper's figures
read off: branch-prediction accuracy, instruction mix and cache hit
rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.driver import compile_program
from repro.experiments.runner import ExperimentRunner, QUICK_PAIRS, format_table
from repro.sim.branch import HybridPredictor, simulate_predictor
from repro.sim.cache import sweep_cache_sizes
from repro.sim.functional import run_binary
from repro.synthesis.baseline import synthesize_linear

_CACHE_SIZE = 8 * 1024  # 32-byte lines, 4-way: the sweep defaults


def _metrics(trace) -> dict:
    mix = trace.instruction_mix().paper_mix()
    branch = simulate_predictor(trace.branch_log, HybridPredictor()).accuracy
    cache = sweep_cache_sizes(trace.mem_addrs, [_CACHE_SIZE])[_CACHE_SIZE]
    return {"mix": mix, "branch_accuracy": branch, "cache_hit_rate": cache}


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
        original = _metrics(runner.original_trace(workload, input_name, "x86", 0))
        sfgl = _metrics(runner.synthetic_trace(workload, input_name, "x86", 0))
        profile = runner.profile(workload, input_name)
        linear_clone = synthesize_linear(profile, target_instructions)
        linear_binary = compile_program(linear_clone.source, "x86", 0).binary
        linear = _metrics(run_binary(linear_binary))
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
