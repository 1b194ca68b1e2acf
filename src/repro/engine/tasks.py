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

    synthesize ──▶ similarity                        (§V-E obfuscation row)
    run@ref, run-clone@ref, profile ──▶ ablation     (SFGL vs linear clone)

That shape is written once, in the task builders below: each builds the
upstream tasks it consumes (``Task.inputs``), and :func:`closure`
derives every graph — a bulk grid or one lookup — from its terminals.

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

Two report sections are stages of the same kind, each storing only the
row its section prints.  **similarity** runs the Moss and JPlag
detectors on a pair's original and clone (plus Moss on the original
against itself) and keeps the four scores.  **ablation** builds the
linear-sequence baseline clone from the pair's profile, compiles and
runs it at the reference coordinate, and keeps the fidelity metrics
(instruction mix, branch accuracy, cache hit rate) of the original, the
SFGL clone and the linear clone — never the linear clone's binary or
trace.

:data:`STAGE_COSTS` is the scheduler's per-stage cost table: a relative
estimate of each stage's compute weight, which cost-aware backends (the
``auto`` composite) compare against a pool's ``dispatch_cost`` to route
cheap replays to threads and heavy compiles to processes.
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
STAGE_SIMILARITY = "similarity"
STAGE_ABLATION = "ablation"

STAGES = (
    STAGE_COMPILE,
    STAGE_RUN,
    STAGE_PROFILE,
    STAGE_SYNTHESIZE,
    STAGE_COMPILE_CLONE,
    STAGE_RUN_CLONE,
    STAGE_REPLAY,
    STAGE_CONSOLIDATED_TIMING,
    STAGE_SIMILARITY,
    STAGE_ABLATION,
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
    # Lexing, winnowing and tiling two sources.
    STAGE_SIMILARITY: 3.0,
    # A small clone's synthesis, compile and run, plus three traces'
    # predictor and cache passes.
    STAGE_ABLATION: 15.0,
}

#: Cost assumed for stages the table doesn't know (third-party graphs):
#: heavy, so unknown work lands on the isolating pool, never a thread.
DEFAULT_STAGE_COST = 10.0


def stage_cost(stage: str) -> float:
    """Estimated relative compute weight of *stage* (see STAGE_COSTS)."""
    return STAGE_COSTS.get(stage, DEFAULT_STAGE_COST)


@dataclass(frozen=True)
class Task:
    """One pure pipeline step: ``stage`` applied to ``payload``.

    ``inputs`` holds the upstream tasks this one consumes, as the
    builders below construct them; ``deps`` defaults to their ids, in
    order.  Graphs built by hand pass ``deps`` and leave ``inputs``
    empty: the scheduler and backends read ``deps`` only, and
    :func:`closure` walks ``inputs``.
    """

    id: str
    stage: str
    payload: dict = field(default_factory=dict, hash=False)
    deps: tuple[str, ...] = ()
    inputs: tuple[Task, ...] = field(default=(), compare=False, hash=False,
                                     repr=False)

    def __post_init__(self) -> None:
        if self.inputs and not self.deps:
            object.__setattr__(self, "deps", tuple(dict.fromkeys(
                task.id for task in self.inputs)))


def closure(*terminals: Task) -> dict[str, Task]:
    """The graph ``{task_id: Task}`` of *terminals* and everything
    upstream of them.  Each node comes after its inputs, and a node
    several terminals share appears once (the first task built for its
    id wins)."""
    graph: dict[str, Task] = {}

    def visit(task: Task) -> None:
        if task.id not in graph:
            for upstream in task.inputs:
                visit(upstream)
            graph[task.id] = task

    for task in terminals:
        visit(task)
    return graph


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


#: The ablation's cache-hit-rate metric: one 8 KB L1 (32-byte lines,
#: 4-way — the sweep defaults).
_ABLATION_CACHE_BYTES = 8 * 1024


def _fidelity_metrics(trace) -> dict:
    """What the ablation compares a clone to its original on."""
    from repro.sim.branch import HybridPredictor, simulate_predictor
    from repro.sim.cache import sweep_cache_sizes

    return {
        "mix": trace.instruction_mix().paper_mix(),
        "branch_accuracy": simulate_predictor(trace.branch_log,
                                              HybridPredictor()).accuracy,
        "cache_hit_rate": sweep_cache_sizes(
            trace.mem_addrs, [_ABLATION_CACHE_BYTES])[_ABLATION_CACHE_BYTES],
    }


def run_stage(task: Task, deps: dict[str, Any]):
    """Execute one task given its resolved dependencies (``deps`` maps
    each of ``task.deps`` to its result; stages read them in order)."""
    from repro.cc.driver import compile_program
    from repro.obfuscation.report import similarity_row
    from repro.profiling.profile import profile_trace
    from repro.sim.functional import run_binary
    from repro.synthesis.baseline import synthesize_linear
    from repro.synthesis.synthesizer import synthesize, synthesize_consolidated

    payload = task.payload
    inputs = [deps[dep_id] for dep_id in task.deps]
    if task.stage == STAGE_COMPILE:
        return compile_program(_workload_source(payload), payload["isa"],
                               payload["opt_level"])
    if task.stage in (STAGE_RUN, STAGE_RUN_CLONE):
        (compiled,) = inputs
        # The execution engine run_binary picks stays OUT of
        # key_fields: both engines produce byte-identical traces, so
        # artifacts are interchangeable and learned stage costs absorb
        # the speedup.
        return run_binary(compiled.binary)
    if task.stage == STAGE_PROFILE:
        (trace,) = inputs
        name = f"{payload['workload']}/{payload['input']}"
        return profile_trace(trace.binary, trace, source_name=name)
    if task.stage == STAGE_SYNTHESIZE:
        (profile,) = inputs
        return synthesize(profile,
                          target_instructions=payload["target_instructions"])
    if task.stage == STAGE_COMPILE_CLONE:
        (clone,) = inputs
        return compile_program(clone.source, payload["isa"],
                               payload["opt_level"])
    if task.stage == STAGE_REPLAY:
        (trace,) = inputs
        return payload["machine_spec"].build().simulate(trace)
    if task.stage == STAGE_CONSOLIDATED_TIMING:
        # deps hold one profile per distinct member, in member order.
        profiles = dict(zip(dict.fromkeys(payload["members"]), inputs))
        consolidated = synthesize_consolidated(
            [profiles[member] for member in payload["members"]],
            target_instructions=payload["target_instructions"])
        compiled = compile_program(consolidated.source, payload["isa"],
                                   payload["opt_level"])
        trace = run_binary(compiled.binary)
        return {spec.fingerprint(): spec.build().simulate(trace)
                for spec in payload["machine_specs"]}
    if task.stage == STAGE_SIMILARITY:
        (clone,) = inputs
        return similarity_row(_workload_source(payload), clone.source)
    if task.stage == STAGE_ABLATION:
        original, sfgl, profile = inputs
        linear = synthesize_linear(profile, payload["linear_instructions"])
        trace = run_binary(
            compile_program(linear.source, REF_ISA, REF_OPT).binary)
        return {"original": _fidelity_metrics(original),
                "sfgl": _fidelity_metrics(sfgl),
                "linear": _fidelity_metrics(trace)}
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
    elif task.stage in (STAGE_SYNTHESIZE, STAGE_SIMILARITY, STAGE_ABLATION):
        # Both report stages derive from the reference chain and the
        # clone, so they key like synthesis; the ablation adds its
        # linear clone's size.
        fields.update(ref_isa=REF_ISA, ref_opt=REF_OPT,
                      target_instructions=payload["target_instructions"])
        if task.stage == STAGE_ABLATION:
            fields["linear_instructions"] = payload["linear_instructions"]
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


def _task(stage: str, name: str, payload: dict, *inputs: Task) -> Task:
    return Task(id=f"{stage}:{name}", stage=stage, payload=payload,
                inputs=inputs)


def compile_task(workload: str, input_name: str, isa: str,
                 opt_level: int) -> Task:
    payload = {"workload": workload, "input": input_name, "isa": isa,
               "opt_level": opt_level}
    return _task(STAGE_COMPILE, _coord(workload, input_name, isa, opt_level),
                 payload)


def run_task(workload: str, input_name: str, isa: str, opt_level: int) -> Task:
    compiled = compile_task(workload, input_name, isa, opt_level)
    return _task(STAGE_RUN, _coord(workload, input_name, isa, opt_level),
                 dict(compiled.payload), compiled)


def profile_task(workload: str, input_name: str) -> Task:
    payload = {"workload": workload, "input": input_name}
    return _task(STAGE_PROFILE, f"{workload}/{input_name}", payload,
                 run_task(workload, input_name, REF_ISA, REF_OPT))


def synthesize_task(workload: str, input_name: str,
                    target_instructions: int) -> Task:
    payload = {"workload": workload, "input": input_name,
               "target_instructions": target_instructions}
    return _task(STAGE_SYNTHESIZE,
                 f"{workload}/{input_name}#{target_instructions}", payload,
                 profile_task(workload, input_name))


def compile_clone_task(workload: str, input_name: str, isa: str,
                       opt_level: int, target_instructions: int) -> Task:
    payload = {"workload": workload, "input": input_name, "isa": isa,
               "opt_level": opt_level,
               "target_instructions": target_instructions}
    return _task(STAGE_COMPILE_CLONE,
                 f"{_coord(workload, input_name, isa, opt_level)}"
                 f"#{target_instructions}", payload,
                 synthesize_task(workload, input_name, target_instructions))


def run_clone_task(workload: str, input_name: str, isa: str, opt_level: int,
                   target_instructions: int) -> Task:
    compiled = compile_clone_task(workload, input_name, isa, opt_level,
                                  target_instructions)
    return _task(STAGE_RUN_CLONE,
                 f"{_coord(workload, input_name, isa, opt_level)}"
                 f"#{target_instructions}", dict(compiled.payload), compiled)


def replay_task(workload: str, input_name: str, opt_level: int,
                machine_spec, side: str = "org",
                target_instructions: int | None = None) -> Task:
    """Time one side's trace on *machine_spec* (a
    :class:`~repro.sim.machines.MachineSpec`).

    The task id embeds the fingerprint prefix so distinct machines never
    collide; the full fingerprint goes into the content-address (see
    :func:`key_fields`).  *target_instructions* sizes the synthetic
    side's clone and is ignored on the original side.
    """
    if side not in ("org", "syn"):
        raise ValueError(f"replay side must be 'org' or 'syn', got {side!r}")
    isa = machine_spec.isa
    coord = _coord(workload, input_name, isa, opt_level)
    fp = machine_spec.fingerprint()[:12]
    payload = {"workload": workload, "input": input_name, "isa": isa,
               "opt_level": opt_level, "side": side,
               "machine_spec": machine_spec}
    if side == "org":
        return _task(STAGE_REPLAY, f"org:{coord}@{fp}", payload,
                     run_task(workload, input_name, isa, opt_level))
    if target_instructions is None:
        raise ValueError("synthetic replays need target_instructions")
    payload["target_instructions"] = target_instructions
    return _task(STAGE_REPLAY, f"syn:{coord}#{target_instructions}@{fp}",
                 payload, run_clone_task(workload, input_name, isa,
                                         opt_level, target_instructions))


def consolidated_timing_task(members, opt_level: int,
                             target_instructions: int,
                             machine_specs) -> Task:
    """Time one consolidated clone of *members* — ordered ``(workload,
    input)`` pairs — at *opt_level* on each of *machine_specs*, which
    must share one ISA (the clone is compiled for it).

    Specs are deduplicated and sorted by fingerprint, so the task and
    its key depend only on the set of cycle models; the task id embeds
    a digest of that set so different machine sets never collide.
    Its inputs are the distinct members' profiles, in member order.
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
    return _task(STAGE_CONSOLIDATED_TIMING,
                 f"{names}@{isa}-O{opt_level}#{target_instructions}"
                 f"@{machines[:12]}", payload,
                 *(profile_task(workload, input_name)
                   for workload, input_name in dict.fromkeys(members)))


def similarity_task(workload: str, input_name: str,
                    target_instructions: int) -> Task:
    """Score the pair's original and clone with both plagiarism
    detectors (§V-E); its input is the clone's synthesis."""
    clone = synthesize_task(workload, input_name, target_instructions)
    return _task(STAGE_SIMILARITY,
                 f"{workload}/{input_name}#{target_instructions}",
                 dict(clone.payload), clone)


def ablation_task(workload: str, input_name: str, target_instructions: int,
                  linear_instructions: int) -> Task:
    """Compare the SFGL clone and a *linear_instructions*-sized
    linear-sequence clone to the original at the reference coordinate.
    Its inputs are the original's run, the clone's run and the profile
    the linear clone is built from."""
    payload = {"workload": workload, "input": input_name,
               "target_instructions": target_instructions,
               "linear_instructions": linear_instructions}
    return _task(STAGE_ABLATION,
                 f"{workload}/{input_name}#{target_instructions}"
                 f"@linear{linear_instructions}", payload,
                 run_task(workload, input_name, REF_ISA, REF_OPT),
                 run_clone_task(workload, input_name, REF_ISA, REF_OPT,
                                target_instructions),
                 profile_task(workload, input_name))


def build_pipeline_graph(
    pairs,
    coords=((REF_ISA, REF_OPT),),
    target_instructions: int = DEFAULT_TARGET_INSTRUCTIONS,
    sides: tuple[str, ...] = ("org", "syn"),
    machine_points=(),
) -> dict[str, Task]:
    """Full experiment DAG for *pairs* across (ISA, opt-level) *coords*.

    Per workload pair and requested side, the terminals are: the
    synthesized clone, the original's run and the clone's run at every
    coordinate, and a replay on every *machine_points* entry — a
    ``(MachineSpec, opt_level)`` pair timing that side's trace at the
    machine's ISA.  A design-space sweep is therefore one graph.

    Returns :func:`closure` of the terminals, so shared prefixes appear
    once: the reference compile/run/profile/synthesize chain once per
    pair, a compile once per (ISA, opt level) however many machines
    replay its trace.
    """
    machine_points = tuple(machine_points)
    terminals = []
    for workload, input_name in pairs:
        if "syn" in sides:
            terminals.append(synthesize_task(workload, input_name,
                                             target_instructions))
        for isa, opt_level in coords:
            if "org" in sides:
                terminals.append(run_task(workload, input_name, isa,
                                          opt_level))
            if "syn" in sides:
                terminals.append(run_clone_task(workload, input_name, isa,
                                                opt_level,
                                                target_instructions))
        for spec, opt_level in machine_points:
            terminals.extend(
                replay_task(workload, input_name, opt_level, spec, side=side,
                            target_instructions=target_instructions)
                for side in ("org", "syn") if side in sides)
    return closure(*terminals)


StageRunner = Callable[[Task, dict], Any]
