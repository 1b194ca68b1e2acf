"""`Engine` — the facade the experiment layer runs on.

Combines three layers of reuse:

* an in-process memo (same-object returns within one Engine, like the
  old ``ExperimentRunner`` dicts);
* the persistent content-addressed :class:`ArtifactStore` (results
  survive across processes and invocations);
* the DAG scheduler (:meth:`warm` fans the whole experiment grid out
  over the configured execution backend before the figures read
  anything).

``ExperimentRunner`` delegates every pipeline step here, so all figure
modules, the report generator, and the benchmark harness get caching
and parallelism without code changes.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

from repro.engine import tasks as _tasks
from repro.engine.scheduler import run_graph
from repro.engine.store import ArtifactStore, StoreStats
from repro.engine.tasks import (
    DEFAULT_TARGET_INSTRUCTIONS,
    REF_ISA,
    REF_OPT,
    Task,
    build_pipeline_graph,
    key_fields,
    run_stage,
)

_MISS = object()


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
        #: instance, a registered name (inline/thread/process/shard),
        #: or None — resolved per warm() against $REPRO_BACKEND and the
        #: worker count (see repro.engine.backends).
        self.backend = backend
        #: The stage runner — ``callable(task, deps)``, default
        #: :func:`run_stage`.  The serve daemon swaps in a
        #: :class:`~repro.serve.coalesce.CoalescingRunner` here so
        #: overlapping jobs share in-flight nodes.
        self.runner = runner if runner is not None else run_stage
        #: ``callable(stage, seconds)`` observing every stage this
        #: engine executes (inline chains and warm() graphs alike) —
        #: the hook a :class:`~repro.serve.costs.CostModel` learns
        #: measured stage costs through.  Cache hits are not reported.
        self.on_timing = on_timing
        #: Optional observability handles (:mod:`repro.obs`): a
        #: :class:`~repro.obs.MetricsRegistry` and/or
        #: :class:`~repro.obs.Tracer` threaded through every graph this
        #: engine runs (and inline chains via :meth:`_materialize`).
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

    def _probe(self, task: Task):
        """Resolve *task* without computing (memo → store) or ``_MISS``."""
        if task.id in self._memo:
            return self._memo[task.id]
        if self.store is not None:
            key = self.store.key_for(task.stage, **key_fields(task))
            cached = self.store.get(key, _MISS)
            if cached is not _MISS:
                self._memo[task.id] = cached
            return cached
        return _MISS

    def _materialize(self, task: Task, probed_miss: bool = False) -> Any:
        """Memo → store → compute-inline resolution for one node.

        Mirrors the cache discipline of the scheduler's submit loop
        (``scheduler._run_submitting`` driving the inline backend);
        both must agree on key recipe and hit/miss accounting.
        *probed_miss* skips the store lookup when the caller already
        observed (and counted) the miss.
        """
        if task.id in self._memo:
            return self._memo[task.id]
        if not probed_miss:
            value = self._probe(task)
            if value is not _MISS:
                return value
        deps = {dep: self._memo[dep] for dep in task.deps} if task.deps \
            else {}
        started = time.perf_counter()
        value = self.runner(task, deps)
        elapsed = time.perf_counter() - started
        if self.store is not None:
            self.store.put(self.store.key_for(task.stage, **key_fields(task)),
                           value, stage=task.stage, seconds=elapsed)
        if self.on_timing is not None:
            self.on_timing(task.stage, elapsed)
        if self.metrics is not None:
            self.metrics.count("engine_stages_executed", tag=task.stage,
                               label="stage")
            workload = task.payload.get("workload")
            if workload:
                self.metrics.count("engine_workload_stages", tag=workload,
                                   label="workload")
            self.metrics.observe_latency("engine_dispatch_seconds", elapsed,
                                         tags={"stage": task.stage})
        if self.tracer is not None:
            self.tracer.add_span(task.id, task.stage,
                                 started - self.tracer.epoch_perf, elapsed,
                                 {"outcome": "executed"})
        self._memo[task.id] = value
        return value

    def _chain(self, *chain: Task) -> Any:
        """Materialize a linear dependency chain, deepest-cached first.

        Keys are computable before execution (see tasks.key_fields), so
        probing walks backward from the terminal: a cached terminal
        costs one load, and any cached intermediate cuts off everything
        upstream of it — nothing is recompiled just to feed a stage the
        store can already serve.
        """
        probed_missed: set[str] = set()
        start = 0
        for i in range(len(chain) - 1, -1, -1):
            value = self._probe(chain[i])
            if value is not _MISS:
                if i == len(chain) - 1:
                    return value
                start = i + 1
                break
            probed_missed.add(chain[i].id)
        for task in chain[start:]:
            self._materialize(task, probed_miss=task.id in probed_missed)
        return self._memo[chain[-1].id]

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
        return self._chain(
            _tasks.compile_task(workload, input_name, isa, opt_level),
            _tasks.run_task(workload, input_name, isa, opt_level),
        )

    def _reference_chain(self, workload: str, input_name: str) -> list[Task]:
        return [
            _tasks.compile_task(workload, input_name, REF_ISA, REF_OPT),
            _tasks.run_task(workload, input_name, REF_ISA, REF_OPT),
            _tasks.profile_task(workload, input_name),
        ]

    def profile(self, workload: str, input_name: str):
        return self._chain(*self._reference_chain(workload, input_name))

    def clone(self, workload: str, input_name: str):
        return self._chain(
            *self._reference_chain(workload, input_name),
            _tasks.synthesize_task(workload, input_name,
                                   self.target_instructions),
        )

    def synthetic_trace(self, workload: str, input_name: str,
                        isa: str = REF_ISA, opt_level: int = REF_OPT):
        return self._chain(
            *self._reference_chain(workload, input_name),
            _tasks.synthesize_task(workload, input_name,
                                   self.target_instructions),
            _tasks.compile_clone_task(workload, input_name, isa, opt_level,
                                      self.target_instructions),
            _tasks.run_clone_task(workload, input_name, isa, opt_level,
                                  self.target_instructions),
        )

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
        isa = machine_spec.isa
        if side == "syn":
            return self._chain(
                *self._reference_chain(workload, input_name),
                _tasks.synthesize_task(workload, input_name,
                                       self.target_instructions),
                _tasks.compile_clone_task(workload, input_name, isa,
                                          opt_level,
                                          self.target_instructions),
                _tasks.run_clone_task(workload, input_name, isa, opt_level,
                                      self.target_instructions),
                _tasks.replay_task(workload, input_name, opt_level,
                                   machine_spec, side="syn",
                                   target_instructions=
                                   self.target_instructions),
            )
        return self._chain(
            _tasks.compile_task(workload, input_name, isa, opt_level),
            _tasks.run_task(workload, input_name, isa, opt_level),
            _tasks.replay_task(workload, input_name, opt_level,
                               machine_spec, side="org"),
        )

    def consolidated_timings(self, members, specs, levels,
                             target_instructions: int) -> dict:
        """Time one consolidated clone of *members* on every machine of
        *specs* at every level of *levels* (Fig. 11's synthetic side).

        Returns ``{(isa, level): {spec.fingerprint(): TimingResult}}``.
        Each (ISA, level) is one content-addressed node, probed first:
        a warm call loads no profile, trace or binary.  Only a miss
        resolves the members' profiles and builds, runs and times the
        clone — counted as one miss.
        """
        members = tuple(members)
        by_isa: dict[str, list] = {}
        for spec in specs:
            by_isa.setdefault(spec.isa, []).append(spec)
        timings = {}
        for isa, isa_specs in sorted(by_isa.items()):
            for level in levels:
                task = _tasks.consolidated_timing_task(
                    members, level, target_instructions, isa_specs)
                value = self._probe(task)
                if value is _MISS:
                    for workload, input_name in members:
                        self.profile(workload, input_name)
                    value = self._materialize(task, probed_miss=True)
                timings[(isa, level)] = value
        return timings

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
        if any(task_id not in self._memo for task_id in graph):
            results = run_graph(graph, workers=workers or self.workers,
                                store=self.store, preloaded=self._memo,
                                runner=self.runner,
                                backend=backend or self.backend,
                                on_timing=self.on_timing,
                                metrics=self.metrics, tracer=self.tracer)
            for task_id, value in results.items():
                self._memo.setdefault(task_id, value)
        return len(graph)
