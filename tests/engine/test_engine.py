"""Engine facade: memoization, persistence, invalidation, equivalence.

The equivalence tests are the subsystem's contract: figure results must
be bit-identical serial vs parallel and cold vs warm cache.
"""

import dataclasses

from repro.engine.api import Engine
from repro.engine.store import ArtifactStore
from repro.engine.tasks import (
    REF_ISA, REF_OPT, compile_clone_task, compile_task, key_fields,
)
from repro.experiments.fig04_reduction import run_fig04
from repro.experiments.runner import ExperimentRunner

PAIRS = (("crc32", "small"), ("adpcm", "small"))


def make_engine(tmp_path, name="store", **kwargs) -> Engine:
    return Engine(cache_dir=tmp_path / name, **kwargs)


class TestMemoAndStore:
    def test_same_object_within_engine(self, tmp_path):
        engine = make_engine(tmp_path)
        assert engine.original_trace("crc32", "small") is \
            engine.original_trace("crc32", "small")
        assert engine.profile("crc32", "small") is \
            engine.profile("crc32", "small")
        assert engine.clone("crc32", "small") is \
            engine.clone("crc32", "small")

    def test_artifacts_persist_across_engines(self, tmp_path):
        first = make_engine(tmp_path)
        trace = first.original_trace("crc32", "small")
        assert first.stats.misses > 0

        second = make_engine(tmp_path)
        replay = second.original_trace("crc32", "small")
        # Terminal-first probing: one unpickle serves the hit; the
        # upstream compile result is never touched.
        assert second.stats.misses == 0 and second.stats.hits == 1
        assert replay.instructions == trace.instructions

    def test_warm_terminal_short_circuits(self, tmp_path):
        make_engine(tmp_path).synthetic_trace("crc32", "small")

        fresh = make_engine(tmp_path)
        fresh.synthetic_trace("crc32", "small")
        # Fully warm: only the terminal run-clone artifact is loaded —
        # no upstream compile/trace/profile/clone unpickling.
        assert fresh.stats.as_dict() == {
            "hits": 1, "misses": 0, "puts": 0, "evictions": 0,
        }

    def test_cache_disabled(self, tmp_path):
        engine = Engine(use_cache=False)
        trace = engine.original_trace("crc32", "small")
        assert trace.instructions > 0
        assert engine.store is None
        assert engine.stats.hits == engine.stats.misses == 0

    def test_target_change_invalidates_synthetic_side_only(self, tmp_path):
        small = make_engine(tmp_path, target_instructions=10_000)
        small.synthetic_trace("crc32", "small")
        assert small.stats.misses == 6  # every stage computed once

        bigger = make_engine(tmp_path, target_instructions=12_000)
        bigger.synthetic_trace("crc32", "small")
        # Backward probing stops at the cached profile (1 hit); only
        # synthesize and the clone compile/run re-run under the new
        # target — the reference compile/run are never even loaded.
        assert bigger.stats.misses == 3
        assert bigger.stats.hits == 1


    def test_compile_artifacts_hold_binary_and_stats_only(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.warm([("crc32", "small")], backend="inline")
        store = ArtifactStore(root=tmp_path / "store")
        for task in (
            compile_task("crc32", "small", REF_ISA, REF_OPT),
            compile_clone_task("crc32", "small", REF_ISA, REF_OPT,
                               engine.target_instructions),
        ):
            stored = store.get(store.key_for(task.stage, **key_fields(task)))
            assert [f.name for f in dataclasses.fields(stored)] == [
                "binary", "opt_stats"]


class TestUnifiedAccounting:
    """A lookup and a bulk warm() over the same chain are one resolver:
    identical cache/stage metrics and hit spans, cold and warm."""

    PAIR = ("crc32", "small")

    @staticmethod
    def _observe(root, resolve):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        engine = Engine(store=ArtifactStore(root=root),
                        metrics=MetricsRegistry(), tracer=Tracer())
        resolve(engine)
        snapshot = engine.metrics.snapshot(include_volatile=False)
        metrics = {entry["name"]: entry for entry in snapshot["metrics"]
                   if entry["name"] in ("engine_cache",
                                        "engine_stages_executed")}
        spans = sorted((span["name"], span["args"]["outcome"])
                       for span in engine.tracer.spans()
                       if span.get("args", {}).get("outcome"))
        return metrics, spans

    @classmethod
    def _lookup(cls, engine):
        engine.original_trace(*cls.PAIR)

    @classmethod
    def _bulk(cls, engine):
        engine.warm([cls.PAIR], ((REF_ISA, REF_OPT),), sides=("org",))

    def test_lookup_matches_warm_cold_and_warm(self, tmp_path):
        cold = [self._observe(tmp_path / "lookup", self._lookup),
                self._observe(tmp_path / "bulk", self._bulk)]
        assert cold[0] == cold[1]
        metrics, spans = cold[0]
        assert metrics["engine_cache"]["data"]["values"] == {"miss": 2}
        assert [outcome for _, outcome in spans] == ["executed"] * 2

        warm = [self._observe(tmp_path / "lookup", self._lookup),
                self._observe(tmp_path / "bulk", self._bulk)]
        assert warm[0] == warm[1]
        metrics, spans = warm[0]
        # One load of the terminal run; nothing executed.
        assert set(metrics) == {"engine_cache"}
        assert metrics["engine_cache"]["data"]["values"] == {"hit": 1}
        assert [outcome for _, outcome in spans] == ["hit"]


class TestEquivalence:
    def _fig04_artifacts(self, engine):
        """The figure table plus upstream artifacts in comparable form:
        flat profile fields (the SFGL itself is a cyclic graph, so no
        deep ==) and the clone C text, which pins the whole synthetic
        derivation bit for bit."""
        runner = ExperimentRunner(engine=engine)
        result = run_fig04(runner, PAIRS)
        profiles = [
            (p.total_instructions, p.mix, p.source_name)
            for p in (runner.profile(w, i) for w, i in PAIRS)
        ]
        clone_sources = [runner.clone(w, i).source for w, i in PAIRS]
        return result.format_table(), profiles, clone_sources

    def test_cold_vs_warm_bit_identical(self, tmp_path):
        cold = self._fig04_artifacts(make_engine(tmp_path))

        warm_engine = make_engine(tmp_path)
        warm = self._fig04_artifacts(warm_engine)
        assert warm == cold
        assert warm_engine.stats.misses == 0

    def test_serial_vs_parallel_bit_identical(self, tmp_path):
        serial = self._fig04_artifacts(
            make_engine(tmp_path, "serial", workers=1))

        parallel_engine = make_engine(tmp_path, "parallel", workers=4)
        parallel_engine.warm(PAIRS, (("x86", 0),))
        parallel = self._fig04_artifacts(parallel_engine)
        assert parallel == serial

    def test_warm_leaves_nothing_to_compute(self, tmp_path):
        engine = make_engine(tmp_path, workers=2)
        nodes = engine.warm(PAIRS, (("x86", 0),))
        assert nodes == 12  # 2 pairs x 6 stages
        assert engine.stats.misses == 12

        # The figure itself now runs without touching the pipeline.
        engine.store.stats.reset()
        run_fig04(ExperimentRunner(engine=engine), PAIRS)
        assert engine.stats.misses == 0 and engine.stats.puts == 0

    def test_warm_is_idempotent(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.warm(PAIRS[:1], (("x86", 0),))
        puts = engine.stats.puts
        engine.warm(PAIRS[:1], (("x86", 0),))
        assert engine.stats.puts == puts


class TestRunnerDelegation:
    def test_runner_builds_default_engine(self):
        runner = ExperimentRunner(target_instructions=15_000)
        assert runner.engine.target_instructions == 15_000

    def test_runner_adopts_engine_target(self):
        runner = ExperimentRunner(engine=Engine(target_instructions=10_000,
                                                use_cache=False))
        assert runner.target_instructions == 10_000
        assert runner.engine.target_instructions == 10_000

    def test_explicit_runner_target_wins(self):
        runner = ExperimentRunner(
            target_instructions=15_000,
            engine=Engine(target_instructions=10_000, use_cache=False),
        )
        assert runner.engine.target_instructions == 15_000

    def test_runner_exposes_cache_stats(self, tmp_path):
        runner = ExperimentRunner(engine=make_engine(tmp_path))
        runner.original_trace("crc32", "small")
        stats = runner.cache_stats.as_dict()
        assert stats["puts"] == 2  # compile + run

    def test_source_matches_workload(self, tmp_path):
        runner = ExperimentRunner(engine=make_engine(tmp_path))
        from repro.workloads import WORKLOADS

        assert runner.source("crc32", "small") == \
            WORKLOADS["crc32"].source_for("small")
