"""`Engine` — the facade the experiment layer runs on.

Combines three layers of reuse:

* an in-process memo (same-object returns within one Engine, like the
  old ``ExperimentRunner`` dicts);
* the persistent content-addressed :class:`ArtifactStore` (results
  survive across processes and invocations);
* the DAG scheduler, the one resolver behind every lookup:
  :meth:`warm` fans the whole experiment grid out over the configured
  execution backend before the figures read anything, and each
  pipeline step (:meth:`profile`, :meth:`replay_timing`, ...) runs its
  small closure graph inline.  Both load lazily from the sinks, so a
  warm lookup reads only the node it returns.

``ExperimentRunner`` delegates every pipeline step here, so all figure
modules, the report generator, and the benchmark harness get caching
and parallelism without code changes.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.engine import tasks as _tasks
from repro.engine.scheduler import run_graph, sinks
from repro.engine.store import ArtifactStore, StoreStats
from repro.engine.tasks import (
    DEFAULT_TARGET_INSTRUCTIONS,
    REF_ISA,
    REF_OPT,
    Task,
    build_pipeline_graph,
    closure,
    run_stage,
)


class Engine:
    """Cached, parallel executor for the paper's experiment pipeline."""

    def __init__(
        self,
        target_instructions: int = DEFAULT_TARGET_INSTRUCTIONS,
        workers: int = 1,
        store: ArtifactStore | None = None,
        use_cache: bool = True,
        cache_dir=None,
        backend=None,
        on_timing=None,
        runner=None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.target_instructions = target_instructions
        self.workers = max(1, workers)
        #: Execution backend for bulk runs: an ExecutionBackend
        #: instance, a registered name (inline/process/shard/auto),
        #: or None — resolved per warm() against $REPRO_BACKEND and the
        #: worker count (see repro.engine.backends).
        self.backend = backend
        #: The stage runner — ``callable(task, deps)``, default
        #: :func:`run_stage`.  The serve daemon swaps in a
        #: :class:`~repro.serve.coalesce.CoalescingRunner` here so
        #: overlapping jobs share in-flight nodes.
        self.runner = runner if runner is not None else run_stage
        #: ``callable(stage, seconds)`` observing every stage this
        #: engine executes (lookups and warm() graphs alike) —
        #: the hook a :class:`~repro.serve.costs.CostModel` learns
        #: measured stage costs through.  Cache hits are not reported.
        self.on_timing = on_timing
        #: Optional observability handles (:mod:`repro.obs`): a
        #: :class:`~repro.obs.MetricsRegistry` and/or
        #: :class:`~repro.obs.Tracer` threaded through every graph this
        #: engine runs (lookups and warm() graphs alike).
        self.metrics = metrics
        self.tracer = tracer
        if store is not None:
            self.store = store
        elif use_cache:
            self.store = ArtifactStore(root=cache_dir)
        else:
            self.store = None
        self._memo: dict[str, Any] = {}
        self._synth_noted: set[str] = set()

    # -- plumbing ----------------------------------------------------------

    @property
    def stats(self) -> StoreStats:
        """Store counters (zeros when caching is disabled)."""
        return self.store.stats if self.store is not None else StoreStats()

    def _resolve(self, task: Task) -> Any:
        """Resolve *task* through its :func:`closure`.

        A memo hit returns at once.  Otherwise the graph goes through
        :func:`run_graph` inline with the memo preloaded — the same
        probe pass and harvest that serve :meth:`warm`, so a cached
        terminal costs one load and a cached intermediate cuts off
        everything upstream of it.  Whatever the run loaded or computed
        joins the memo.
        """
        if task.id not in self._memo:
            self._run(closure(task), backend="inline")
        return self._memo[task.id]

    def _run(self, graph: dict[str, Task], workers: int = 1,
             backend=None) -> None:
        results = run_graph(graph, workers=workers, store=self.store,
                            preloaded=self._memo, runner=self.runner,
                            backend=backend, on_timing=self.on_timing,
                            metrics=self.metrics, tracer=self.tracer)
        for task_id, value in results.items():
            self._memo.setdefault(task_id, value)

    # -- pipeline steps (the old ExperimentRunner surface) -----------------

    def source(self, workload: str, input_name: str) -> str:
        key = f"source:{workload}/{input_name}"
        if key not in self._memo:
            from repro.workloads import get_workload

            self._note_synth((workload,))
            self._memo[key] = get_workload(workload).source_for(input_name)
        return self._memo[key]

    def _note_synth(self, workload_names: Iterable[str]) -> None:
        """Persist synthetic recipes touched by this engine to the store
        (provenance; names alone stay sufficient for regeneration)."""
        if self.store is None:
            return
        for name in workload_names:
            if not name.startswith("synth:") or name in self._synth_noted:
                continue
            from repro.workloads.synth import SynthRecipe, persist_recipe

            try:
                recipe = SynthRecipe.parse(name)
            except KeyError:
                continue  # malformed; resolution will surface the error
            persist_recipe(self.store, recipe)
            self._synth_noted.add(name)

    def original_trace(self, workload: str, input_name: str,
                       isa: str = REF_ISA, opt_level: int = REF_OPT):
        return self._resolve(
            _tasks.run_task(workload, input_name, isa, opt_level))

    def profile(self, workload: str, input_name: str):
        return self._resolve(_tasks.profile_task(workload, input_name))

    def clone(self, workload: str, input_name: str):
        return self._resolve(_tasks.synthesize_task(
            workload, input_name, self.target_instructions))

    def synthetic_trace(self, workload: str, input_name: str,
                        isa: str = REF_ISA, opt_level: int = REF_OPT):
        return self._resolve(_tasks.run_clone_task(
            workload, input_name, isa, opt_level, self.target_instructions))

    def replay_timing(self, workload: str, input_name: str, machine_spec,
                      opt_level: int = REF_OPT, side: str = "org"):
        """Time one side's trace on *machine_spec*; returns the
        :class:`~repro.sim.timing_common.TimingResult`.

        Runs through the engine like every other stage: the replay node
        is content-addressed by the machine's fingerprint, so a warmed
        sweep resolves it from the memo/store without ever loading the
        trace — scoring N machine points on a warm cache costs N small
        reads, zero decodes, zero simulations.
        """
        return self._resolve(_tasks.replay_task(
            workload, input_name, opt_level, machine_spec, side=side,
            target_instructions=self.target_instructions))

    def consolidated_timings(self, members, specs, levels,
                             target_instructions: int) -> dict:
        """Time one consolidated clone of *members* on every machine of
        *specs* at every level of *levels* (Fig. 11's synthetic side).

        Returns ``{(isa, level): {spec.fingerprint(): TimingResult}}``.
        Each (ISA, level) is one content-addressed node whose deps are
        the members' profiles: a warm call loads only those nodes — no
        profile, trace or binary.  Only a miss resolves the members'
        profiles and builds, runs and times the clone — counted as one
        miss.
        """
        members = tuple(members)
        by_isa: dict[str, list] = {}
        for spec in specs:
            by_isa.setdefault(spec.isa, []).append(spec)
        terminals = {
            (isa, level): _tasks.consolidated_timing_task(
                members, level, target_instructions, isa_specs)
            for isa, isa_specs in sorted(by_isa.items()) for level in levels
        }
        if any(task.id not in self._memo for task in terminals.values()):
            self._run(closure(*terminals.values()), backend="inline")
        return {coord: self._memo[task.id]
                for coord, task in terminals.items()}

    def similarity(self, workload: str, input_name: str) -> dict:
        """The pair's §V-E plagiarism-detector row: ``moss``, ``jplag``,
        ``flagged`` and ``self_moss`` for its original and clone.  A warm
        call loads only that row, never the clone."""
        return self._resolve(_tasks.similarity_task(
            workload, input_name, self.target_instructions))

    def ablation(self, workload: str, input_name: str,
                 linear_instructions: int) -> dict:
        """Fidelity metrics of the pair's original, SFGL clone and
        *linear_instructions*-sized linear clone at the reference
        coordinate: ``{"original": ..., "sfgl": ..., "linear": ...}``.
        A warm call loads only those metrics, no trace."""
        return self._resolve(_tasks.ablation_task(
            workload, input_name, self.target_instructions,
            linear_instructions))

    # -- bulk execution ----------------------------------------------------

    def warm(
        self,
        pairs: Iterable[tuple[str, str]],
        coords: Iterable[tuple[str, int]] = ((REF_ISA, REF_OPT),),
        workers: int | None = None,
        sides: tuple[str, ...] = ("org", "syn"),
        backend=None,
        machine_points=(),
    ) -> int:
        """Materialize the full pipeline grid for *pairs* × *coords*.

        Independent nodes fan out over the engine's execution backend
        across ``workers`` (defaults: the engine's configured backend
        and worker count); every result lands in the memo and, when
        enabled, the persistent store.  *sides* narrows the grid to the
        original and/or synthetic pipeline (a figure that derives its
        synthetic from consolidated profiles only needs ``("org",)``).
        *machine_points* — ``(MachineSpec, opt_level)`` pairs — extends
        the grid with timing replays (compile → run → replay per pair
        and side), which is how a design-space sweep becomes one batched
        engine graph.  Returns the number of graph nodes.
        """
        pairs = tuple(pairs)
        self._note_synth({workload for workload, _ in pairs})
        graph = build_pipeline_graph(
            pairs, tuple(coords),
            target_instructions=self.target_instructions,
            sides=sides,
            machine_points=tuple(machine_points),
        )
        if any(task_id not in self._memo for task_id in sinks(graph)):
            self._run(graph, workers=workers or self.workers,
                      backend=backend or self.backend)
        return len(graph)
