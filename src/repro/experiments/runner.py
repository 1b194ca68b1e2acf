"""Shared experiment pipeline, backed by :class:`repro.engine.Engine`.

The pipeline mirrors the paper's flow (Fig. 1): compile the original at
-O0 on the reference ISA, profile it, synthesize the clone, then compile
and measure both sides under whatever (ISA, optimization level) the
figure calls for.

Every step delegates to the engine, which layers an in-process memo
(same-object returns, as the old per-runner dicts did) over a persistent
content-addressed artifact store, and can fan a whole experiment grid
out over any execution backend via :meth:`ExperimentRunner.warm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.api import DEFAULT_TARGET_INSTRUCTIONS, Engine
from repro.engine.store import StoreStats
from repro.profiling.profile import StatisticalProfile
from repro.sim.trace import ExecutionTrace
from repro.synthesis.synthesizer import SyntheticBenchmark
from repro.tables import format_table
from repro.workloads import all_pairs

# Synthetic size target (see DESIGN.md §5: the paper's 10M scaled ~1e3).
SYNTHETIC_TARGET = DEFAULT_TARGET_INSTRUCTIONS

# Fast subset used by default in the pytest-benchmark harness.
QUICK_PAIRS: tuple[tuple[str, str], ...] = (
    ("adpcm", "small"),
    ("bitcount", "small"),
    ("crc32", "small"),
    ("dijkstra", "small"),
    ("fft", "small"),
    ("qsort", "small"),
    ("sha", "small"),
    ("stringsearch", "small"),
)

FULL_PAIRS: tuple[tuple[str, str], ...] = tuple(all_pairs())


@dataclass
class ExperimentRunner:
    """Cached compile/run/profile/synthesize pipeline (engine facade).

    ``engine=None`` builds a default engine: serial execution with the
    persistent store at ``REPRO_CACHE_DIR`` / ``~/.cache/repro``.  Pass
    ``Engine(workers=N)`` (or ``use_cache=False``) to change either.
    """

    target_instructions: int | None = None
    engine: Engine | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = Engine(
                target_instructions=self.target_instructions
                if self.target_instructions is not None else SYNTHETIC_TARGET
            )
        elif self.target_instructions is not None:
            self.engine.target_instructions = self.target_instructions
        # Present one number to callers: the engine's is authoritative.
        self.target_instructions = self.engine.target_instructions

    # -- originals ---------------------------------------------------------

    def source(self, workload: str, input_name: str) -> str:
        return self.engine.source(workload, input_name)

    def original_trace(
        self, workload: str, input_name: str, isa: str = "x86", opt_level: int = 0
    ) -> ExecutionTrace:
        return self.engine.original_trace(workload, input_name, isa, opt_level)

    # -- profiles & clones -------------------------------------------------

    def profile(self, workload: str, input_name: str) -> StatisticalProfile:
        return self.engine.profile(workload, input_name)

    def clone(self, workload: str, input_name: str) -> SyntheticBenchmark:
        return self.engine.clone(workload, input_name)

    def synthetic_trace(
        self, workload: str, input_name: str, isa: str = "x86", opt_level: int = 0
    ) -> ExecutionTrace:
        return self.engine.synthetic_trace(workload, input_name, isa, opt_level)

    # -- timing replays ----------------------------------------------------

    def replay_timing(self, workload: str, input_name: str, machine_spec,
                      opt_level: int = 0, side: str = "org"):
        """Time one side's trace on *machine_spec* through the engine's
        cached, content-addressed replay stage."""
        return self.engine.replay_timing(workload, input_name, machine_spec,
                                         opt_level, side=side)

    def consolidated_timings(self, pairs, specs, levels,
                             target_instructions: int) -> dict:
        """Time one consolidated clone of *pairs* on *specs* at each of
        *levels* through the engine's cached consolidated-timing stage:
        ``{(isa, level): {spec.fingerprint(): TimingResult}}``."""
        return self.engine.consolidated_timings(pairs, specs, levels,
                                                target_instructions)

    # -- bulk / observability ----------------------------------------------

    def warm(self, pairs, coords=(("x86", 0),), workers: int | None = None,
             sides: tuple[str, ...] = ("org", "syn"), backend=None,
             machine_points=()) -> int:
        """Materialize the pipeline grid for *pairs* × *coords* up front."""
        return self.engine.warm(pairs, coords, workers=workers, sides=sides,
                                backend=backend,
                                machine_points=machine_points)

    @property
    def cache_stats(self) -> StoreStats:
        return self.engine.stats


__all__ = [
    "ExperimentRunner",
    "FULL_PAIRS",
    "QUICK_PAIRS",
    "SYNTHETIC_TARGET",
    "format_table",
]
