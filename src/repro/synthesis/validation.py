"""Clone-fidelity validation and representativeness-driven sizing.

The paper picks the reduction factor empirically (a fixed synthetic size)
and lists as future work choosing it "based on how representative the
synthetic workload is relative to the real workload" (§III-D).  This
module implements that extension:

* :func:`validate_clone` scores a clone against its source profile on
  the axes the evaluation section measures — instruction mix, cache hit
  rate at the profiling size, branch-predictor accuracy, and size;
* :func:`synthesize_validated` grows the synthetic size target until the
  fidelity score clears a threshold (or a budget is exhausted), returning
  the smallest clone that is representative enough.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.driver import compile_program
from repro.profiling.profile import StatisticalProfile
from repro.sim.branch import hybrid_accuracy
from repro.sim.cache import sweep_cache_sizes
from repro.sim.functional import run_binary
from repro.sim.trace import ExecutionTrace
from repro.synthesis.synthesizer import SyntheticBenchmark, synthesize

_PROFILE_CACHE_SIZE = 8 * 1024  # 32-byte lines, 4-way: the sweep defaults


@dataclass
class FidelityReport:
    """How closely a clone's execution matches its source profile."""

    mix_distance: float  # mean |fraction difference| over the 4 categories
    cache_distance: float  # |hit-rate difference| at the profiling size
    branch_distance: float  # |hybrid accuracy difference|
    instructions: int

    @property
    def score(self) -> float:
        """Scalar representativeness in [0, 1]; 1.0 is a perfect match."""
        penalty = (
            2.0 * self.mix_distance
            + 1.5 * self.cache_distance
            + 1.0 * self.branch_distance
        )
        return max(0.0, 1.0 - penalty)

    def acceptable(self, threshold: float = 0.8) -> bool:
        return self.score >= threshold


def validate_clone(
    profile: StatisticalProfile,
    clone: SyntheticBenchmark,
    isa: str = "x86",
    original_trace: ExecutionTrace | None = None,
) -> FidelityReport:
    """Compile and run *clone* at -O0, scoring it against *profile*.

    ``original_trace`` (if available) supplies the original's branch
    stream; otherwise the original's accuracy is approximated from the
    profile's easy/hard split.
    """
    binary = compile_program(clone.source, isa, 0).binary
    trace = run_binary(binary)
    # Instruction mix distance.
    original_mix = profile.mix.paper_mix()
    clone_mix = trace.instruction_mix().paper_mix()
    mix_distance = sum(
        abs(original_mix[key] - clone_mix[key]) for key in original_mix
    ) / len(original_mix)
    # Cache distance at the profiling size.
    clone_hit = sweep_cache_sizes(
        trace.mem_addrs, [_PROFILE_CACHE_SIZE])[_PROFILE_CACHE_SIZE]
    original_hit = profile.memory.hit_rates_by_size.get(
        _PROFILE_CACHE_SIZE, clone_hit
    )
    cache_distance = abs(clone_hit - original_hit)
    # Branch distance.
    clone_accuracy = hybrid_accuracy(trace.branch_log)
    if original_trace is not None:
        original_accuracy = hybrid_accuracy(original_trace.branch_log)
    else:
        # Easy branches predict ~99%, hard ones ~75%: first-order guess.
        hard = profile.branches.hard_fraction()
        original_accuracy = 0.99 * (1 - hard) + 0.75 * hard
    branch_distance = abs(clone_accuracy - original_accuracy)
    return FidelityReport(
        mix_distance=mix_distance,
        cache_distance=cache_distance,
        branch_distance=branch_distance,
        instructions=trace.instructions,
    )


def synthesize_validated(
    profile: StatisticalProfile,
    threshold: float = 0.8,
    initial_target: int = 10_000,
    max_target: int = 160_000,
    isa: str = "x86",
    original_trace: ExecutionTrace | None = None,
) -> tuple[SyntheticBenchmark, FidelityReport]:
    """Smallest clone whose fidelity score clears *threshold*.

    Doubles the size target until the report is acceptable or the budget
    runs out; returns the best clone seen either way.  This realizes the
    paper's proposed representativeness-driven reduction-factor choice.
    """
    target = initial_target
    best: tuple[float, SyntheticBenchmark, FidelityReport] | None = None
    while True:
        clone = synthesize(profile, target_instructions=target)
        report = validate_clone(profile, clone, isa, original_trace)
        if best is None or report.score > best[0]:
            best = (report.score, clone, report)
        if report.acceptable(threshold) or target >= max_target:
            break
        target *= 2
    _, clone, report = best
    return clone, report
