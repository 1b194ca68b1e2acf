"""The experiment pipeline expressed as a DAG of pure task nodes.

Each node is one paper-pipeline stage applied to one (workload, input,
ISA, opt-level) coordinate:

    compile ──▶ run ──▶ replay@machine       (original side, per ISA/opt)
    compile@ref ──▶ run@ref ──▶ profile ──▶ synthesize
                                               │
                          compile-clone ◀──────┘
                                 │
                            run-clone ──▶ replay@machine   (synthetic side)

Stage functions take ``(payload, deps)`` where ``deps`` maps dependency
task ids to their results, and return a picklable artifact.  They are
module-level so process-based execution backends can ship them to
worker processes, and pure in the caching sense: output depends only on the
payload (synthesis is seeded), which is what lets
:func:`key_fields` assign every node a content-address computable
*before* execution — upstream clone sources never need to be in hand to
decide whether a downstream node is already cached.

The seventh stage, **replay**, times an execution trace on a parametric
:class:`~repro.sim.machines.MachineSpec`.  Its payload carries the spec
itself (for execution) while its content-address uses
:meth:`MachineSpec.fingerprint` — so a replay's key is computable
without the trace in hand, exactly like every other stage, and a
design-space sweep's hot path caches and fans out like any other node.

:data:`STAGE_COSTS` is the scheduler's per-stage cost table: a relative
estimate of each stage's compute weight, which cost-aware backends (the
``auto`` composite) compare against a pool's ``dispatch_cost`` to route
cheap warm replays to threads and heavy compiles to processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

from repro.engine.store import source_fingerprint

#: The reference coordinate every profile/synthesis derives from
#: (the paper compiles originals at -O0 on x86 before profiling).
REF_ISA = "x86"
REF_OPT = 0

#: Synthetic size target (see DESIGN.md §5: the paper's 10M scaled ~1e3).
DEFAULT_TARGET_INSTRUCTIONS = 20_000

STAGE_COMPILE = "compile"
STAGE_RUN = "run"
STAGE_PROFILE = "profile"
STAGE_SYNTHESIZE = "synthesize"
STAGE_COMPILE_CLONE = "compile-clone"
STAGE_RUN_CLONE = "run-clone"
STAGE_REPLAY = "replay"

STAGES = (
    STAGE_COMPILE,
    STAGE_RUN,
    STAGE_PROFILE,
    STAGE_SYNTHESIZE,
    STAGE_COMPILE_CLONE,
    STAGE_RUN_CLONE,
    STAGE_REPLAY,
)

#: Relative compute weight per stage — the scheduler's cost table.
#: Units are arbitrary; what matters is the ordering and the comparison
#: against a backend pool's ``dispatch_cost`` (process-pool dispatch is
#: the 1.0 reference point).  A stage cheaper than a pool's dispatch
#: overhead should not be shipped to that pool: that is the whole
#: routing rule of the ``auto`` backend.
STAGE_COSTS: dict[str, float] = {
    STAGE_COMPILE: 20.0,
    STAGE_RUN: 15.0,
    STAGE_PROFILE: 5.0,
    STAGE_SYNTHESIZE: 25.0,
    STAGE_COMPILE_CLONE: 8.0,
    STAGE_RUN_CLONE: 4.0,
    STAGE_REPLAY: 0.5,
}

#: Cost assumed for stages the table doesn't know (third-party graphs):
#: heavy, so unknown work lands on the isolating pool, never a thread.
DEFAULT_STAGE_COST = 10.0


def stage_cost(stage: str) -> float:
    """Estimated relative compute weight of *stage* (see STAGE_COSTS)."""
    return STAGE_COSTS.get(stage, DEFAULT_STAGE_COST)


@dataclass(frozen=True)
class Task:
    """One pure pipeline step: ``stage`` applied to ``payload``."""

    id: str
    stage: str
    payload: dict = field(default_factory=dict, hash=False)
    deps: tuple[str, ...] = ()


def _workload_source(payload: dict) -> str:
    from repro.workloads import get_workload

    return get_workload(payload["workload"]).source_for(payload["input"])


@lru_cache(maxsize=None)
def pair_fingerprint(workload: str, input_name: str) -> str:
    """Source fingerprint per (workload, input), generated once per
    process — key computation happens far more often than synthesis."""
    return source_fingerprint(
        _workload_source({"workload": workload, "input": input_name})
    )


def _single_dep(task: Task, deps: dict[str, Any], stage: str):
    for dep_id in task.deps:
        if dep_id.startswith(stage + ":"):
            return deps[dep_id]
    raise KeyError(f"{task.id} has no resolved '{stage}' dependency")


def run_stage(task: Task, deps: dict[str, Any]):
    """Execute one task given its resolved dependencies."""
    from repro.cc.driver import compile_program
    from repro.profiling.profile import profile_trace
    from repro.sim.functional import run_binary
    from repro.synthesis.synthesizer import synthesize

    payload = task.payload
    if task.stage == STAGE_COMPILE:
        return compile_program(_workload_source(payload), payload["isa"],
                               payload["opt_level"])
    if task.stage == STAGE_RUN:
        compiled = _single_dep(task, deps, STAGE_COMPILE)
        # The execution engine run_binary picks stays OUT of
        # key_fields: both engines produce byte-identical traces, so
        # artifacts are interchangeable and learned stage costs absorb
        # the speedup.
        return run_binary(compiled.binary)
    if task.stage == STAGE_PROFILE:
        trace = _single_dep(task, deps, STAGE_RUN)
        name = f"{payload['workload']}/{payload['input']}"
        return profile_trace(trace.binary, trace, source_name=name)
    if task.stage == STAGE_SYNTHESIZE:
        profile = _single_dep(task, deps, STAGE_PROFILE)
        return synthesize(profile,
                          target_instructions=payload["target_instructions"])
    if task.stage == STAGE_COMPILE_CLONE:
        clone = _single_dep(task, deps, STAGE_SYNTHESIZE)
        return compile_program(clone.source, payload["isa"],
                               payload["opt_level"])
    if task.stage == STAGE_RUN_CLONE:
        compiled = _single_dep(task, deps, STAGE_COMPILE_CLONE)
        return run_binary(compiled.binary)
    if task.stage == STAGE_REPLAY:
        trace_stage = STAGE_RUN_CLONE if payload["side"] == "syn" \
            else STAGE_RUN
        trace = _single_dep(task, deps, trace_stage)
        return payload["machine_spec"].build().simulate(trace)
    raise ValueError(f"unknown stage: {task.stage!r}")


def key_fields(task: Task) -> dict:
    """Content-address fields for *task* (joined with the schema version
    and stage name by :meth:`ArtifactStore.key_for`).

    Original-side stages key on the workload source text; synthetic-side
    stages key on the derivation inputs (source + target size), which
    pin the clone because synthesis is deterministic under its fixed
    seed.  Changing the source, ISA, opt level, target size, or schema
    version therefore changes the key.
    """
    payload = task.payload
    fields: dict = {
        "source_sha": pair_fingerprint(payload["workload"], payload["input"])
    }
    if task.stage in (STAGE_COMPILE, STAGE_RUN):
        fields.update(isa=payload["isa"], opt_level=payload["opt_level"])
    elif task.stage == STAGE_PROFILE:
        fields.update(ref_isa=REF_ISA, ref_opt=REF_OPT)
    elif task.stage == STAGE_SYNTHESIZE:
        fields.update(ref_isa=REF_ISA, ref_opt=REF_OPT,
                      target_instructions=payload["target_instructions"])
    elif task.stage in (STAGE_COMPILE_CLONE, STAGE_RUN_CLONE):
        fields.update(isa=payload["isa"], opt_level=payload["opt_level"],
                      target_instructions=payload["target_instructions"])
    elif task.stage == STAGE_REPLAY:
        # The machine enters the key as its canonical fingerprint, so
        # the address is computable before the spec's trace exists and
        # machines that share cycle-model axes share one artifact.
        fields.update(isa=payload["isa"], opt_level=payload["opt_level"],
                      side=payload["side"],
                      machine=payload["machine_spec"].fingerprint())
        if payload["side"] == "syn":
            fields["target_instructions"] = payload["target_instructions"]
    else:
        raise ValueError(f"unknown stage: {task.stage!r}")
    return fields


# -- graph construction ------------------------------------------------------


def _coord(workload: str, input_name: str, isa: str, opt_level: int) -> str:
    return f"{workload}/{input_name}@{isa}-O{opt_level}"


def compile_task(workload: str, input_name: str, isa: str,
                 opt_level: int) -> Task:
    payload = {"workload": workload, "input": input_name, "isa": isa,
               "opt_level": opt_level}
    return Task(id=f"compile:{_coord(workload, input_name, isa, opt_level)}",
                stage=STAGE_COMPILE, payload=payload)


def run_task(workload: str, input_name: str, isa: str, opt_level: int) -> Task:
    coord = _coord(workload, input_name, isa, opt_level)
    payload = {"workload": workload, "input": input_name, "isa": isa,
               "opt_level": opt_level}
    return Task(id=f"run:{coord}", stage=STAGE_RUN, payload=payload,
                deps=(f"compile:{coord}",))


def profile_task(workload: str, input_name: str) -> Task:
    ref = _coord(workload, input_name, REF_ISA, REF_OPT)
    payload = {"workload": workload, "input": input_name}
    return Task(id=f"profile:{workload}/{input_name}", stage=STAGE_PROFILE,
                payload=payload, deps=(f"run:{ref}",))


def synthesize_task(workload: str, input_name: str,
                    target_instructions: int) -> Task:
    payload = {"workload": workload, "input": input_name,
               "target_instructions": target_instructions}
    return Task(
        id=f"synthesize:{workload}/{input_name}#{target_instructions}",
        stage=STAGE_SYNTHESIZE, payload=payload,
        deps=(f"profile:{workload}/{input_name}",),
    )


def compile_clone_task(workload: str, input_name: str, isa: str,
                       opt_level: int, target_instructions: int) -> Task:
    coord = _coord(workload, input_name, isa, opt_level)
    payload = {"workload": workload, "input": input_name, "isa": isa,
               "opt_level": opt_level,
               "target_instructions": target_instructions}
    return Task(
        id=f"compile-clone:{coord}#{target_instructions}",
        stage=STAGE_COMPILE_CLONE, payload=payload,
        deps=(f"synthesize:{workload}/{input_name}#{target_instructions}",),
    )


def run_clone_task(workload: str, input_name: str, isa: str, opt_level: int,
                   target_instructions: int) -> Task:
    coord = _coord(workload, input_name, isa, opt_level)
    payload = {"workload": workload, "input": input_name, "isa": isa,
               "opt_level": opt_level,
               "target_instructions": target_instructions}
    return Task(
        id=f"run-clone:{coord}#{target_instructions}",
        stage=STAGE_RUN_CLONE, payload=payload,
        deps=(f"compile-clone:{coord}#{target_instructions}",),
    )


def replay_task(workload: str, input_name: str, opt_level: int,
                machine_spec, side: str = "org",
                target_instructions: int | None = None) -> Task:
    """Time one side's trace on *machine_spec* (a
    :class:`~repro.sim.machines.MachineSpec`).

    The task id embeds the fingerprint prefix so distinct machines never
    collide; the full fingerprint goes into the content-address (see
    :func:`key_fields`).
    """
    if side not in ("org", "syn"):
        raise ValueError(f"replay side must be 'org' or 'syn', got {side!r}")
    isa = machine_spec.isa
    coord = _coord(workload, input_name, isa, opt_level)
    fp = machine_spec.fingerprint()[:12]
    payload = {"workload": workload, "input": input_name, "isa": isa,
               "opt_level": opt_level, "side": side,
               "machine_spec": machine_spec}
    if side == "syn":
        if target_instructions is None:
            raise ValueError("synthetic replays need target_instructions")
        payload["target_instructions"] = target_instructions
        return Task(
            id=f"replay:syn:{coord}#{target_instructions}@{fp}",
            stage=STAGE_REPLAY, payload=payload,
            deps=(f"run-clone:{coord}#{target_instructions}",),
        )
    return Task(id=f"replay:org:{coord}@{fp}", stage=STAGE_REPLAY,
                payload=payload, deps=(f"run:{coord}",))


def build_pipeline_graph(
    pairs,
    coords=((REF_ISA, REF_OPT),),
    target_instructions: int = DEFAULT_TARGET_INSTRUCTIONS,
    sides: tuple[str, ...] = ("org", "syn"),
    machine_points=(),
) -> dict[str, Task]:
    """Full experiment DAG for *pairs* across (ISA, opt-level) *coords*.

    *machine_points* extends the grid with timing replays: each entry is
    a ``(MachineSpec, opt_level)`` pair, and contributes — per workload
    pair and requested side — the compile/run chain at the machine's ISA
    plus a replay node timing that trace on the machine.  A design-space
    sweep is therefore one graph: shared compiles deduplicate across
    machine points exactly like the reference chain deduplicates across
    coordinates.

    Returns ``{task_id: Task}`` with shared prefixes deduplicated — the
    reference compile/run/profile/synthesize chain appears once per pair
    no matter how many coordinates request it.
    """
    graph: dict[str, Task] = {}

    def add(task: Task) -> None:
        graph.setdefault(task.id, task)

    machine_points = tuple(machine_points)
    for workload, input_name in pairs:
        if "syn" in sides:
            add(compile_task(workload, input_name, REF_ISA, REF_OPT))
            add(run_task(workload, input_name, REF_ISA, REF_OPT))
            add(profile_task(workload, input_name))
            add(synthesize_task(workload, input_name, target_instructions))
        for isa, opt_level in coords:
            if "org" in sides:
                add(compile_task(workload, input_name, isa, opt_level))
                add(run_task(workload, input_name, isa, opt_level))
            if "syn" in sides:
                add(compile_clone_task(workload, input_name, isa, opt_level,
                                       target_instructions))
                add(run_clone_task(workload, input_name, isa, opt_level,
                                   target_instructions))
        for spec, opt_level in machine_points:
            isa = spec.isa
            if "org" in sides:
                add(compile_task(workload, input_name, isa, opt_level))
                add(run_task(workload, input_name, isa, opt_level))
                add(replay_task(workload, input_name, opt_level, spec,
                                side="org"))
            if "syn" in sides:
                add(compile_clone_task(workload, input_name, isa, opt_level,
                                       target_instructions))
                add(run_clone_task(workload, input_name, isa, opt_level,
                                   target_instructions))
                add(replay_task(workload, input_name, opt_level, spec,
                                side="syn",
                                target_instructions=target_instructions))
    return graph


StageRunner = Callable[[Task, dict], Any]
