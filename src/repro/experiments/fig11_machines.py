"""Fig. 11 — normalized execution time across machines and compilers.

The paper's cross-platform experiment: five machines (Table III), four
optimization levels, original workloads (suite average) vs a consolidated
synthetic benchmark.  Everything is normalized to -O0 on the Pentium 4
3 GHz machine.  Shape targets:

* Core i7 fastest, Itanium 2 slowest;
* -O2/-O3 give the Itanium a substantial extra boost (~25% over -O1)
  that the out-of-order x86 machines do not show;
* the synthetic's speedup-vs-O0 error stays under ~20% (avg ~7% in the
  paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import ExperimentRunner, QUICK_PAIRS, format_table
from repro.sim.machines import MACHINES

OPT_LEVELS = (0, 1, 2, 3)


@dataclass
class Fig11Result:
    # (machine name, level) -> normalized execution time
    original: dict[tuple[str, int], float] = field(default_factory=dict)
    synthetic: dict[tuple[str, int], float] = field(default_factory=dict)

    def speedup_error(self) -> dict[tuple[str, int], float]:
        """Relative error of the synthetic's predicted speedup vs -O0."""
        errors: dict[tuple[str, int], float] = {}
        for key, org_time in self.original.items():
            syn_time = self.synthetic.get(key)
            if syn_time is None or org_time <= 0 or syn_time <= 0:
                continue
            org_speedup = 1.0 / org_time
            syn_speedup = 1.0 / syn_time
            errors[key] = abs(syn_speedup - org_speedup) / org_speedup
        return errors

    @property
    def average_error(self) -> float:
        errors = self.speedup_error()
        return sum(errors.values()) / len(errors) if errors else 0.0

    @property
    def max_error(self) -> float:
        errors = self.speedup_error()
        return max(errors.values()) if errors else 0.0

    def format_table(self) -> str:
        headers = ["machine", "level", "original", "synthetic", "rel.err"]
        errors = self.speedup_error()
        rows = []
        for (machine, level), org in sorted(self.original.items()):
            rows.append(
                [
                    machine,
                    f"O{level}",
                    org,
                    self.synthetic.get((machine, level), float("nan")),
                    errors.get((machine, level), float("nan")),
                ]
            )
        rows.append(["AVERAGE ERROR", "", "", "", self.average_error])
        return format_table(
            headers,
            rows,
            title="Fig. 11: normalized execution time across machines/compilers",
        )


def run_fig11(
    runner: ExperimentRunner,
    pairs=QUICK_PAIRS,
    machines=MACHINES,
    levels=OPT_LEVELS,
    target_instructions: int | None = None,
) -> Fig11Result:
    """The machines are :class:`Machine` instances built from a
    :class:`MachineSpec` — the five Table III constants by default, but
    any parametric machine (``machine_from_axes`` / ``spec.build()``)
    slots in unchanged; the explorer's ``table3`` preset runs this same
    grid as a sweep.  A machine without a spec raises ``ValueError``.
    """
    if target_instructions is None:
        target_instructions = runner.target_instructions
    for machine in machines:
        if machine.spec is None:
            raise ValueError(f"fig11 needs machines built from a "
                             f"MachineSpec; {machine.name!r} has none")
    result = Fig11Result()
    # Original side: suite-average runtime per (machine, level), timed
    # through the engine's replay stage — each (machine, level, pair)
    # is a content-addressed replay node, so a warm store serves the
    # whole grid without loading a single trace, and machines sharing
    # cycle-model axes share artifacts.
    machine_points = {
        (m.spec.fingerprint(), level): (m.spec, level)
        for m in machines for level in levels
    }
    runner.warm(pairs, (), sides=("org",),
                machine_points=[machine_points[key]
                                for key in sorted(machine_points)])
    # Synthetic side: one consolidated clone of the whole set (§II-B.e),
    # timed per (ISA, level) by the engine's consolidated-timing stage.
    syn_timings = runner.consolidated_timings(
        pairs, [m.spec for m in machines], levels,
        target_instructions * len(pairs))
    org_times: dict[tuple[str, int], float] = {}
    syn_times: dict[tuple[str, int], float] = {}
    for machine in machines:
        hz = machine.frequency_ghz * 1e9
        for level in levels:
            total = 0.0
            for workload, input_name in pairs:
                timing = runner.replay_timing(workload, input_name,
                                              machine.spec, level)
                total += timing.cycles / hz
            org_times[(machine.name, level)] = total / len(pairs)
            syn = syn_timings[(machine.spec.isa, level)][
                machine.spec.fingerprint()]
            syn_times[(machine.name, level)] = syn.cycles / hz
    # Normalize both sides to P4-3GHz at -O0 (the paper's baseline).
    baseline_machine = machines[0].name
    org_base = org_times[(baseline_machine, 0)]
    syn_base = syn_times[(baseline_machine, 0)]
    for key, value in org_times.items():
        result.original[key] = value / org_base
    for key, value in syn_times.items():
        result.synthetic[key] = value / syn_base
    return result
