"""Report sections served from the store: the similarity and ablation
stages, and Fig. 10 on the replay stage.

Each stage's key must cover what determines its row, its artifact must
equal the section's old inline computation (kept here as the oracle),
and a warm report over the three sections must read only their small
artifacts — no compile, run, lex or timing simulation.
"""

import pytest

import repro.cc.driver
import repro.obfuscation.report
import repro.sim.functional
import repro.sim.timing_common
from repro.cc.driver import compile_program
from repro.engine.api import Engine
from repro.engine.store import ArtifactStore
from repro.engine.tasks import (
    STAGE_ABLATION,
    STAGE_COSTS,
    STAGE_SIMILARITY,
    STAGES,
    ablation_task,
    closure,
    key_fields,
    replay_task,
    similarity_task,
    synthesize_task,
)
from repro.experiments.fig10_cpi import CACHE_SIZES_KB, cpi_spec, run_fig10
from repro.experiments.report import generate_report
from repro.experiments.runner import ExperimentRunner
from repro.obfuscation.report import compare_sources
from repro.sim.branch import HybridPredictor, simulate_predictor
from repro.sim.cache import CacheConfig, sweep_cache_sizes
from repro.sim.functional import run_binary
from repro.sim.ooo import OutOfOrderModel, TimingConfig
from repro.synthesis.baseline import synthesize_linear

PAIR = ("crc32", "small")
OTHER = ("sha", "small")
TARGET = 20_000
LINEAR = 20_000
SECTIONS = ("fig10", "obfuscation", "ablation")


def _body(report: str) -> str:
    """The report minus its header line (wall clock, cache counters)."""
    return report.split("\n", 3)[3]


class TestTasks:
    def test_registered_stages(self):
        for stage in (STAGE_SIMILARITY, STAGE_ABLATION):
            assert stage in STAGES and stage in STAGE_COSTS

    def test_inputs(self):
        assert similarity_task(*PAIR, TARGET).deps == (
            synthesize_task(*PAIR, TARGET).id,)
        assert ablation_task(*PAIR, TARGET, LINEAR).deps == (
            "run:crc32/small@x86-O0",
            "run-clone:crc32/small@x86-O0#20000",
            "profile:crc32/small",
        )

    def test_similarity_keys_like_synthesis(self):
        assert key_fields(similarity_task(*PAIR, TARGET)) == \
            key_fields(synthesize_task(*PAIR, TARGET))

    @pytest.mark.parametrize("build", [
        lambda pair, target, linear: similarity_task(*pair, target),
        lambda pair, target, linear: ablation_task(*pair, target, linear),
    ], ids=["similarity", "ablation"])
    def test_key_changes_with_source_and_target(self, build):
        base = build(PAIR, TARGET, LINEAR)
        for other in (build(OTHER, TARGET, LINEAR),
                      build(PAIR, TARGET + 1, LINEAR)):
            assert key_fields(other) != key_fields(base)
            assert other.id != base.id

    def test_ablation_key_changes_with_linear_size(self):
        base = ablation_task(*PAIR, TARGET, LINEAR)
        other = ablation_task(*PAIR, TARGET, LINEAR + 1)
        assert key_fields(other) != key_fields(base)
        assert key_fields(other)["linear_instructions"] == LINEAR + 1
        assert other.id != base.id


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A store a cold three-section report over PAIR filled, and that
    report's text."""
    root = tmp_path_factory.mktemp("sections")
    runner = ExperimentRunner(engine=Engine(store=ArtifactStore(root=root)))
    return root, generate_report(runner, figures=SECTIONS, pairs=(PAIR,))


def _runner(root) -> ExperimentRunner:
    return ExperimentRunner(engine=Engine(store=ArtifactStore(root=root)))


def _old_metrics(trace) -> dict:
    mix = trace.instruction_mix().paper_mix()
    branch = simulate_predictor(trace.branch_log, HybridPredictor()).accuracy
    cache = sweep_cache_sizes(trace.mem_addrs, [8 * 1024])[8 * 1024]
    return {"mix": mix, "branch_accuracy": branch, "cache_hit_rate": cache}


class TestArtifacts:
    def test_ablation_equals_the_inline_computation(self, cold):
        runner = _runner(cold[0])
        linear = synthesize_linear(runner.profile(*PAIR), LINEAR)
        oracle = {
            "original": _old_metrics(runner.original_trace(*PAIR, "x86", 0)),
            "sfgl": _old_metrics(runner.synthetic_trace(*PAIR, "x86", 0)),
            "linear": _old_metrics(run_binary(
                compile_program(linear.source, "x86", 0).binary)),
        }
        assert runner.ablation(*PAIR, LINEAR) == oracle

    def test_similarity_equals_the_detectors(self, cold):
        runner = _runner(cold[0])
        original = runner.source(*PAIR)
        report = compare_sources(original, runner.clone(*PAIR).source)
        assert runner.similarity(*PAIR) == {
            "moss": report.moss_similarity,
            "jplag": report.jplag_similarity,
            "flagged": report.flagged,
            "self_moss": compare_sources(original, original).moss_similarity,
        }

    def test_fig10_equals_direct_simulation(self, cold):
        runner = _runner(cold[0])
        result = run_fig10(runner, (PAIR,))
        traces = {"ORG": runner.original_trace(*PAIR, "x86", 0),
                  "SYN": runner.synthetic_trace(*PAIR, "x86", 0)}
        for side, trace in traces.items():
            for kb in CACHE_SIZES_KB:
                config = TimingConfig(
                    width=2, rob_size=64, l1=CacheConfig(kb * 1024, 32, 4),
                    l2=CacheConfig(512 * 1024, 32, 8))
                assert result.cpi(*PAIR, side, kb) == \
                    OutOfOrderModel(config).simulate(trace).cpi


def _forbid(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"warm report called {name}")
    return fail


def test_warm_report_reads_only_section_artifacts(cold, monkeypatch):
    root, cold_report = cold
    runner = _runner(root)
    store = runner.engine.store
    for owner, name in ((repro.cc.driver, "compile_program"),
                        (repro.sim.functional, "run_binary"),
                        (repro.obfuscation.report, "normalize_tokens"),
                        (repro.sim.timing_common.TimingModel, "simulate")):
        monkeypatch.setattr(owner, name, _forbid(name))
    gets = set()
    real_get = store.get

    def recording_get(key, default=None):
        gets.add(key)
        return real_get(key, default)

    monkeypatch.setattr(store, "get", recording_get)

    warm_report = generate_report(runner, figures=SECTIONS, pairs=(PAIR,))

    assert _body(warm_report) == _body(cold_report)
    assert (store.stats.misses, store.stats.puts) == (0, 0)
    terminals = [similarity_task(*PAIR, TARGET),
                 ablation_task(*PAIR, TARGET, LINEAR)]
    terminals += [replay_task(*PAIR, 0, cpi_spec("x86", kb), side=side,
                              target_instructions=TARGET)
                  for kb in CACHE_SIZES_KB for side in ("org", "syn")]
    unread = {store.key_for(task.stage, **key_fields(task))
              for task in closure(*terminals).values()
              if task.stage in ("compile", "run", "run-clone", "profile")}
    assert len(unread) == 4
    assert not gets & unread
