"""The statistical profile: everything benchmark synthesis consumes.

Bundles the SFGL, branch profile, memory profile and instruction mix from
one profiled run.  The paper profiles binaries compiled at a *low*
optimization level (-O0) so that pattern recognition sees canonical
load/compute/store shapes; :func:`profile_workload` encapsulates that
convention (compile at O0 on the reference ISA, simulate, profile).

Profiles are derived from the trace alone, and both execution engines
(:mod:`repro.sim.fastexec` and its reference interpreter) produce
byte-identical traces, so profiling output never depends on the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.driver import compile_program
from repro.isa.machine import Binary
from repro.isa.targets import ISA, X86
from repro.profiling.branch_profile import BranchProfile, profile_branches
from repro.profiling.memory_profile import MemoryProfile, profile_memory
from repro.profiling.sfgl import SFGL, build_sfgl
from repro.sim.functional import run_binary
from repro.sim.trace import ExecutionTrace, InstructionMix


@dataclass
class StatisticalProfile:
    """The paper's statistical profile (§II-A, Fig. 1)."""

    sfgl: SFGL
    branches: BranchProfile
    memory: MemoryProfile
    mix: InstructionMix
    total_instructions: int
    binary: Binary = field(repr=False)
    source_name: str = "workload"

    def reduction_for_target(self, target_instructions: int) -> int:
        """Reduction factor R so the synthetic hits ~target instructions.

        The paper chooses R empirically so the synthetic executes about
        10M instructions (Fig. 4's caption); we do the equivalent
        division, clamped to at least 1 (short-running workloads keep
        R = 1, as the paper notes happens for some MiBench programs).
        """
        if target_instructions <= 0:
            raise ValueError("target must be positive")
        return max(1, round(self.total_instructions / target_instructions))


def profile_trace(
    binary: Binary, trace: ExecutionTrace, source_name: str = "workload"
) -> StatisticalProfile:
    """Build the full statistical profile from one recorded execution."""
    return StatisticalProfile(
        sfgl=build_sfgl(binary, trace),
        branches=profile_branches(trace.branch_log),
        memory=profile_memory(binary, trace),
        mix=trace.instruction_mix(),
        total_instructions=trace.instructions,
        binary=binary,
        source_name=source_name,
    )


def profile_workload(
    source: str,
    isa: ISA | str = X86,
    source_name: str = "workload",
) -> tuple[StatisticalProfile, ExecutionTrace]:
    """Compile *source* at -O0 (the paper's convention), run and profile."""
    result = compile_program(source, isa, opt_level=0)
    trace = run_binary(result.binary)
    return profile_trace(result.binary, trace, source_name), trace
