"""The pipeline DAG is written once, in the task builders: each builds
the tasks it consumes, and every graph — a bulk grid or one engine
lookup — is the closure of its terminals."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.engine import api
from repro.engine.api import Engine
from repro.engine.store import ArtifactStore
from repro.engine.tasks import (
    DEFAULT_TARGET_INSTRUCTIONS,
    Task,
    build_pipeline_graph,
    closure,
    consolidated_timing_task,
    key_fields,
    replay_task,
    run_clone_task,
)
from repro.sim.machines import spec_from_axes

PAIR = ("crc32", "small")
SPEC = spec_from_axes(isa="x86", width=2, rob=64, l1_kb=8)
IA64 = spec_from_axes(isa="ia64", width=4, rob=64, l1_kb=16)


class TestTask:
    def test_deps_default_to_input_ids_in_order(self):
        a, b = Task(id="a", stage="n"), Task(id="b", stage="n")
        assert Task(id="c", stage="n", inputs=(b, a, b)).deps == ("b", "a")

    def test_explicit_deps_win_and_inputs_never_compare(self):
        a = Task(id="a", stage="n")
        task = Task(id="c", stage="n", deps=("x",), inputs=(a,))
        assert task.deps == ("x",)
        assert task == Task(id="c", stage="n", deps=("x",))

    def test_clearing_deps_needs_clearing_inputs(self):
        task = run_clone_task(*PAIR, "x86", 0, 100)
        assert replace(task, deps=()).deps == task.deps
        assert replace(task, deps=(), inputs=()).deps == ()


class TestClosure:
    def test_each_node_follows_its_inputs_and_appears_once(self):
        graph = closure(run_clone_task(*PAIR, "x86", 2, 100),
                        run_clone_task(*PAIR, "x86", 3, 100))
        assert Counter(task.stage for task in graph.values()) == Counter(
            {"compile": 1, "run": 1, "profile": 1, "synthesize": 1,
             "compile-clone": 2, "run-clone": 2})
        seen = set()
        for task_id, task in graph.items():
            assert set(task.deps) <= seen
            seen.add(task_id)

    def test_consolidated_timing_reads_each_distinct_member_once(self):
        members = (PAIR, ("sha", "small"), PAIR)
        task = consolidated_timing_task(members, 0, 100, [SPEC])
        assert task.deps == ("profile:crc32/small", "profile:sha/small")
        assert len(closure(task)) == 7


def test_org_replay_ignores_target_instructions(tmp_path):
    store = ArtifactStore(root=tmp_path, toolchain="fixed")
    plain = replay_task(*PAIR, 2, SPEC, side="org")
    sized = replay_task(*PAIR, 2, SPEC, side="org",
                        target_instructions=12345)
    assert sized.id == plain.id and sized.deps == plain.deps
    assert sized.payload == plain.payload
    assert store.key_for(sized.stage, **key_fields(sized)) == \
        store.key_for(plain.stage, **key_fields(plain))


SYN_CHAIN = {"compile": 1, "run": 1, "profile": 1, "synthesize": 1,
             "compile-clone": 1, "run-clone": 1}

LOOKUPS = {
    "original_trace": (lambda e: e.original_trace(*PAIR, "ia64", 3),
                       {"compile": 1, "run": 1}),
    "profile": (lambda e: e.profile(*PAIR),
                {"compile": 1, "run": 1, "profile": 1}),
    "clone": (lambda e: e.clone(*PAIR),
              {"compile": 1, "run": 1, "profile": 1, "synthesize": 1}),
    "synthetic_trace": (lambda e: e.synthetic_trace(*PAIR, "x86_64", 1),
                        SYN_CHAIN),
    "replay_org": (lambda e: e.replay_timing(*PAIR, SPEC, 2),
                   {"compile": 1, "run": 1, "replay": 1}),
    "replay_syn": (lambda e: e.replay_timing(*PAIR, SPEC, 2, side="syn"),
                   {**SYN_CHAIN, "replay": 1}),
    "consolidated_timings": (
        lambda e: e.consolidated_timings(
            (PAIR, ("sha", "small"), PAIR), [SPEC, IA64], (0, 3), 300),
        {"compile": 2, "run": 2, "profile": 2, "consolidated-timing": 4}),
    "similarity": (lambda e: e.similarity(*PAIR),
                   {"compile": 1, "run": 1, "profile": 1, "synthesize": 1,
                    "similarity": 1}),
    "ablation": (lambda e: e.ablation(*PAIR, 5000),
                 {**SYN_CHAIN, "ablation": 1}),
}


@pytest.mark.parametrize("lookup", sorted(LOOKUPS))
def test_lookup_resolves_the_closure_of_its_terminal(lookup, monkeypatch,
                                                     tmp_path):
    graphs = []

    def fake_run_graph(graph, **kwargs):
        graphs.append(graph)
        return dict.fromkeys(graph)

    monkeypatch.setattr(api, "run_graph", fake_run_graph)
    call, stages = LOOKUPS[lookup]
    call(Engine(store=ArtifactStore(root=tmp_path)))
    (graph,) = graphs
    assert Counter(task.stage for task in graph.values()) == Counter(stages)


class TestPerfbenchGrids:
    """Node counts of the benchmark's graphs (perfbench/workloads.py)."""

    def test_arch_sweep(self, tmp_path):
        from perfbench.workloads import ARCH_SPACE, ArchSweep

        points = [(p.machine_spec(), p.opt_level)
                  for p in ARCH_SPACE.points()]
        graph = build_pipeline_graph(ArchSweep(1, tmp_path).pairs, (),
                                     DEFAULT_TARGET_INSTRUCTIONS,
                                     machine_points=points)
        assert len(graph) == 320
        assert sum(task.stage == "replay" for task in graph.values()) == 288

    def test_clone_grid(self, tmp_path):
        from perfbench.workloads import GRID_COORDS, CloneGrid

        graph = build_pipeline_graph(CloneGrid(1, tmp_path).pairs,
                                     GRID_COORDS)
        assert len(graph) == 250
