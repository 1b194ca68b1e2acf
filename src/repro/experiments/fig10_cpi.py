"""Fig. 10 — CPI on a 2-wide out-of-order core across cache sizes.

Per benchmark: CPI with 8/16/32 KB data caches on the 2-wide OoO model
(the paper's PTLSim setup), original vs synthetic.  The paper's markers:
fft has the highest CPI (floating point), sha the lowest, and cache-size
sensitivity (dijkstra, qsort) carries over to the clones.

Each (pair, side, cache size) is a node of the engine's cached
``replay`` stage on a :class:`~repro.sim.machines.MachineSpec`, so a
warm report reads six small timing results per pair and loads no
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import ExperimentRunner, QUICK_PAIRS, format_table
from repro.sim.machines import spec_from_axes

CACHE_SIZES_KB = (8, 16, 32)


def cpi_spec(isa: str, cache_kb: int):
    """The 2-wide OoO core with a *cache_kb* L1 and a 512 KB L2."""
    return spec_from_axes(isa=isa, width=2, rob=64, l1_kb=cache_kb,
                          l2_kb=512)


@dataclass
class Fig10Result:
    rows: list[dict] = field(default_factory=list)

    def cpi(self, workload: str, input_name: str, side: str, cache_kb: int) -> float:
        for row in self.rows:
            if (
                row["workload"] == workload
                and row["input"] == input_name
                and row["side"] == side
            ):
                return row["cpi"][cache_kb]
        raise KeyError((workload, input_name, side))

    def format_table(self) -> str:
        headers = ["benchmark", "side"] + [f"{kb}KB" for kb in CACHE_SIZES_KB]
        table_rows = [
            [f"{row['workload']}/{row['input']}", row["side"]]
            + [row["cpi"][kb] for kb in CACHE_SIZES_KB]
            for row in self.rows
        ]
        return format_table(
            headers,
            table_rows,
            title="Fig. 10: CPI, 2-wide out-of-order, varying D-cache size",
        )


def run_fig10(
    runner: ExperimentRunner,
    pairs=QUICK_PAIRS,
    isa: str = "x86",
    opt_level: int = 0,
    cache_sizes_kb=CACHE_SIZES_KB,
) -> Fig10Result:
    result = Fig10Result()
    specs = {cache_kb: cpi_spec(isa, cache_kb) for cache_kb in cache_sizes_kb}
    runner.warm(pairs, (), machine_points=[(spec, opt_level)
                                           for spec in specs.values()])
    for workload, input_name in pairs:
        for side in ("ORG", "SYN"):
            cpis = {
                cache_kb: runner.replay_timing(workload, input_name, spec,
                                               opt_level, side.lower()).cpi
                for cache_kb, spec in specs.items()
            }
            result.rows.append(
                {
                    "workload": workload,
                    "input": input_name,
                    "side": side,
                    "cpi": cpis,
                }
            )
    return result
