"""The experiment pipeline expressed as a DAG of pure task nodes.

Each node is one paper-pipeline stage applied to one (workload, input,
ISA, opt-level) coordinate — or, for consolidated-timing, to an ordered
list of (workload, input) members at one (ISA, opt-level):

    compile ──▶ run ──▶ replay@machine       (original side, per ISA/opt)
    compile@ref ──▶ run@ref ──▶ profile ──▶ synthesize
                                               │
                          compile-clone ◀──────┘
                                 │
                            run-clone ──▶ replay@machine   (synthetic side)

    profile (member 1) ──┐
    profile (member 2) ──┼──▶ consolidated-timing    (Fig. 11's synthetic
    ...                ──┘                            side, per ISA/opt)

Stage functions take ``(payload, deps)`` where ``deps`` maps dependency
task ids to their results, and return a picklable artifact.  They are
module-level so process-based execution backends can ship them to
worker processes, and pure in the caching sense: output depends only on the
payload (synthesis is seeded), which is what lets
:func:`key_fields` assign every node a content-address computable
*before* execution — upstream clone sources never need to be in hand to
decide whether a downstream node is already cached.

The **replay** stage times an execution trace on a parametric
:class:`~repro.sim.machines.MachineSpec`.  Its payload carries the spec
itself (for execution) while its content-address uses
:meth:`MachineSpec.fingerprint` — so a replay's key is computable
without the trace in hand, exactly like every other stage, and a
design-space sweep's hot path caches and fans out like any other node.

The **consolidated-timing** stage is Fig. 11's synthetic side: it
merges several members' profiles into one consolidated clone
(§II-B.e), compiles and runs it at one (ISA, opt level), and times the
trace on every given machine of that ISA.  Its artifact holds only the
``{machine fingerprint: TimingResult}`` dict — the clone's binary and
trace are larger than the rest of a report's store and no reader needs
them — so a warm Fig. 11 costs one small read per (ISA, level).

:data:`STAGE_COSTS` is the scheduler's per-stage cost table: a relative
estimate of each stage's compute weight, which cost-aware backends (the
``auto`` composite) compare against a pool's ``dispatch_cost`` to route
cheap warm replays to threads and heavy compiles to processes.
"""

from __future__ import annotations

import hashlib
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
STAGE_CONSOLIDATED_TIMING = "consolidated-timing"

STAGES = (
    STAGE_COMPILE,
    STAGE_RUN,
    STAGE_PROFILE,
    STAGE_SYNTHESIZE,
    STAGE_COMPILE_CLONE,
    STAGE_RUN_CLONE,
    STAGE_REPLAY,
    STAGE_CONSOLIDATED_TIMING,
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
    # One compile, one run and a few replays of a suite-sized clone.
    STAGE_CONSOLIDATED_TIMING: 36.0,
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
    from repro.synthesis.synthesizer import synthesize, synthesize_consolidated

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
    if task.stage == STAGE_CONSOLIDATED_TIMING:
        profiles = [deps[profile_task(workload, input_name).id]
                    for workload, input_name in payload["members"]]
        consolidated = synthesize_consolidated(
            profiles, target_instructions=payload["target_instructions"])
        compiled = compile_program(consolidated.source, payload["isa"],
                                   payload["opt_level"])
        trace = run_binary(compiled.binary)
        return {spec.fingerprint(): spec.build().simulate(trace)
                for spec in payload["machine_specs"]}
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
    if task.stage == STAGE_CONSOLIDATED_TIMING:
        # Members in order (the clone's layout follows it); machines by
        # fingerprint, so clocks and names never split an artifact.
        return {
            "source_shas": [pair_fingerprint(workload, input_name)
                            for workload, input_name in payload["members"]],
            "ref_isa": REF_ISA, "ref_opt": REF_OPT,
            "target_instructions": payload["target_instructions"],
            "isa": payload["isa"], "opt_level": payload["opt_level"],
            "machines": [spec.fingerprint()
                         for spec in payload["machine_specs"]],
        }
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


def consolidated_timing_task(members, opt_level: int,
                             target_instructions: int,
                             machine_specs) -> Task:
    """Time one consolidated clone of *members* — ordered ``(workload,
    input)`` pairs — at *opt_level* on each of *machine_specs*, which
    must share one ISA (the clone is compiled for it).

    Specs are deduplicated and sorted by fingerprint, so the task and
    its key depend only on the set of cycle models; the task id embeds
    a digest of that set so different machine sets never collide.
    """
    members = tuple((workload, input_name)
                    for workload, input_name in members)
    by_fingerprint = {spec.fingerprint(): spec for spec in machine_specs}
    isas = {spec.isa for spec in by_fingerprint.values()}
    if len(isas) != 1:
        raise ValueError("consolidated timing needs machines of exactly "
                         f"one ISA, got {sorted(isas)}")
    (isa,) = isas
    fingerprints = sorted(by_fingerprint)
    machines = hashlib.sha256(",".join(fingerprints).encode()).hexdigest()
    names = ",".join(f"{workload}/{input_name}"
                     for workload, input_name in members)
    payload = {"members": members, "isa": isa, "opt_level": opt_level,
               "target_instructions": target_instructions,
               "machine_specs": tuple(by_fingerprint[fp]
                                      for fp in fingerprints)}
    return Task(
        id=f"consolidated-timing:{names}@{isa}-O{opt_level}"
           f"#{target_instructions}@{machines[:12]}",
        stage=STAGE_CONSOLIDATED_TIMING, payload=payload,
        deps=tuple(dict.fromkeys(profile_task(workload, input_name).id
                                 for workload, input_name in members)),
    )


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
