"""§V-E — benchmark obfuscation check with Moss- and JPlag-style tools.

For every (workload, input) pair: similarity of the original source and
its synthetic clone under both detectors.  The paper reports that
neither tool finds any similarity; the sanity rows confirm the tools do
fire on actual copies (original vs itself ~= 1.0).  Each row is one
small artifact of the engine's ``similarity`` stage, so a warm report
neither lexes nor tiles anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import ExperimentRunner, QUICK_PAIRS, format_table
from repro.obfuscation.report import SUSPICION_THRESHOLD


@dataclass
class ObfuscationResult:
    rows: list[dict] = field(default_factory=list)

    @property
    def any_flagged(self) -> bool:
        return any(row["flagged"] for row in self.rows)

    def format_table(self) -> str:
        table_rows = [
            [
                f"{row['workload']}/{row['input']}",
                row["moss"],
                row["jplag"],
                "FLAGGED" if row["flagged"] else "clean",
                row["self_moss"],
            ]
            for row in self.rows
        ]
        return format_table(
            ["benchmark", "moss(orig,syn)", "jplag(orig,syn)", "verdict",
             "moss(orig,orig)"],
            table_rows,
            title=(
                "Obfuscation (§V-E): plagiarism-detector similarity "
                f"(flag threshold {SUSPICION_THRESHOLD})"
            ),
        )


def run_obfuscation(runner: ExperimentRunner, pairs=QUICK_PAIRS) -> ObfuscationResult:
    """Read each pair's row from the engine's cached similarity stage."""
    result = ObfuscationResult()
    for workload, input_name in pairs:
        result.rows.append({"workload": workload, "input": input_name,
                            **runner.similarity(workload, input_name)})
    return result
