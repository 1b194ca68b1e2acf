"""Sweep orchestration: scoring, DB persistence, resume after interrupt."""

import math

import pytest

from repro.engine.api import Engine
from repro.engine.backends import AutoBackend
from repro.engine.store import ArtifactStore
from repro.engine.tasks import STAGE_COMPILE, STAGE_REPLAY, STAGE_RUN
from repro.explore import sweep as sweep_mod
from repro.explore.db import ResultsDB
from repro.explore.space import Axis, DesignSpace, Preset
from repro.explore.sweep import _rel_err, _score, run_sweep, score_point

PAIRS = (("crc32", "small"),)

TINY = Preset(
    DesignSpace(
        name="tiny",
        axes=(Axis("opt_level", (0, 2)),),
        base={"isa": "x86", "width": 2, "l1_kb": 8},
    ),
    PAIRS,
)


@pytest.fixture
def db(tmp_path):
    with ResultsDB(tmp_path / "sweep.sqlite3") as handle:
        yield handle


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    # A module fixture is built before the function-scoped store fixture
    # sets REPRO_CACHE_DIR, so the session store is named here.
    return Engine(cache_dir=tmp_path_factory.getbasetemp() / "repro-cache")


class TestScoring:
    def test_score_point_produces_fidelity_metrics(self, engine):
        point = TINY.space.points()[0]
        metrics = score_point(point, PAIRS, engine)
        for name in ("org_cpi", "syn_cpi", "cpi_err", "miss_rate_err",
                     "branch_acc_err", "org_runtime_s", "syn_runtime_s",
                     "score"):
            assert name in metrics
        assert metrics["org_cpi"] > 0
        assert metrics["syn_cpi"] > 0
        assert 0 <= metrics["score"] < 1
        assert metrics["org_instructions"] > \
            metrics["syn_instructions"]  # clones are much shorter

    def test_score_point_reports_distribution_divergence(self, engine):
        """Acceptance: scoring carries >= 1 distribution-divergence
        component from the simulator exp-histograms, not just scalars."""
        point = TINY.space.points()[0]
        metrics = score_point(point, PAIRS, engine)
        divergences = [name for name in ("mem_lat_div", "branch_run_div")
                       if name in metrics]
        assert divergences, "no distribution-divergence component scored"
        for name in divergences:
            assert 0.0 <= metrics[name] <= 1.0

    def test_score_averages_divergence_components(self):
        with_div = _score({"cpi_err": 0.2, "mem_lat_div": 0.8})
        assert with_div == pytest.approx(0.5)
        # Absent divergences (pre-histogram artifacts) drop cleanly.
        assert _score({"cpi_err": 0.2}) == pytest.approx(0.2)


class TestRelErr:
    def test_normal_relative_error(self):
        assert _rel_err(2.0, 1.0) == 0.5

    def test_zero_reference_zero_measured_is_exact(self):
        assert _rel_err(0.0, 0.0) == 0.0

    def test_zero_reference_drops_component_with_warning(self):
        with pytest.warns(RuntimeWarning, match="relative error undefined"):
            assert _rel_err(0.0, 1.5) is None

    def test_score_averages_defined_finite_components(self):
        assert _score({"cpi_err": 0.2, "miss_rate_err": 0.4,
                       "branch_acc_err": 0.6}) == pytest.approx(0.4)
        # A dropped (missing) component narrows the average, never inf.
        assert _score({"miss_rate_err": 0.1,
                       "branch_acc_err": 0.3}) == pytest.approx(0.2)
        assert _score({"cpi_err": float("inf"), "miss_rate_err": 0.1,
                       "branch_acc_err": 0.3}) == pytest.approx(0.2)

    def test_score_with_no_usable_component_sorts_last(self):
        assert _score({}) == float("inf")


class TestEngineLowering:
    """score_point rides the engine's replay stage, not in-process
    simulation — the sweep hot path is cached and backend-parallel."""

    def test_warmed_sweep_rerun_does_zero_work(self, db, tmp_path):
        """The acceptance criterion: a repeated sweep performs zero
        compiles, zero runs, and zero replays — every replay node
        cache-hits."""
        first = Engine(store=ArtifactStore(root=tmp_path / "store"))
        run_sweep(TINY, engine=first, db=db)

        rerun = Engine(store=ArtifactStore(root=tmp_path / "store"))
        result = run_sweep(TINY, engine=rerun, db=db, force=True)
        assert result.computed == TINY.space.size
        assert rerun.stats.misses == 0 and rerun.stats.puts == 0
        assert rerun.stats.hits > 0  # served entirely from the store

    def test_auto_backend_routes_sweep_stages_by_cost(self, db, tmp_path):
        """Replay nodes land on the thread pool, compile/run nodes on
        the process pool (the auto backend's dispatch accounting)."""
        backend = AutoBackend(workers=2)
        engine = Engine(store=ArtifactStore(root=tmp_path / "store"),
                        backend=backend)
        run_sweep(TINY, engine=engine, db=db)
        assert backend.routed_stages[STAGE_REPLAY] == "thread"
        assert backend.routed_stages[STAGE_COMPILE] == "process"
        assert backend.routed_stages[STAGE_RUN] == "process"
        assert backend.routed["thread"] >= TINY.space.size  # the replays


class TestRunSweep:
    def test_sweep_scores_every_point_and_persists(self, engine, db):
        result = run_sweep(TINY, engine=engine, db=db)
        assert len(result.records) == TINY.space.size
        assert result.computed == TINY.space.size
        assert result.resumed == 0
        assert len(db.query(sweep="tiny")) == TINY.space.size
        table = result.format_table()
        assert "opt_level=0" in table and "opt_level=2" in table

    def test_second_run_resumes_everything_without_engine_work(
            self, engine, db):
        run_sweep(TINY, engine=engine, db=db)
        probe = Engine(use_cache=False)  # any compile would show in puts
        result = run_sweep(TINY, engine=probe, db=db)
        assert result.resumed == TINY.space.size
        assert result.computed == 0
        assert probe.stats.puts == 0
        assert probe.stats.misses == 0

    def test_force_rescores(self, engine, db):
        run_sweep(TINY, engine=engine, db=db)
        result = run_sweep(TINY, engine=engine, db=db, force=True)
        assert result.computed == TINY.space.size
        assert result.resumed == 0

    def test_sweep_name_and_pairs_override(self, engine, db):
        run_sweep(TINY, engine=engine, db=db, sweep_name="renamed",
                  pairs=PAIRS)
        assert [r.sweep for r in db.query()] == ["renamed"] * 2

    def test_different_target_instructions_rescore(self, engine, db):
        run_sweep(TINY, engine=engine, db=db)
        other = Engine(target_instructions=engine.target_instructions * 2)
        result = run_sweep(TINY, engine=other, db=db)
        # Different clone size -> different content keys -> recompute.
        assert result.computed == TINY.space.size

    def test_progress_callback_sees_every_point(self, engine, db):
        seen = []
        run_sweep(TINY, engine=engine, db=db,
                  progress=lambda i, n, record, status:
                  seen.append((i, n, status)))
        assert seen == [(1, 2, "run"), (2, 2, "run")]

    def test_progress_reports_resumed_status(self, engine, db):
        run_sweep(TINY, engine=engine, db=db)
        seen = []
        run_sweep(TINY, engine=engine, db=db,
                  progress=lambda i, n, record, status:
                  seen.append(status))
        assert seen == ["resumed", "resumed"]

    def test_explicit_points_bypass_sampling(self, engine, db):
        points = TINY.space.points()[:1]
        result = run_sweep(TINY, engine=engine, db=db, points=points)
        assert result.points == points
        assert len(result.records) == 1

    def test_failed_point_skipped_with_failed_status(self, engine, db,
                                                     monkeypatch):
        real = score_point

        def flaky(point, pairs, eng):
            if point["opt_level"] == 2:
                raise RuntimeError("boom")
            return real(point, pairs, eng)

        monkeypatch.setattr(sweep_mod, "score_point", flaky)
        seen = []
        with pytest.warns(RuntimeWarning, match="failed"):
            result = run_sweep(
                TINY, engine=engine, db=db,
                progress=lambda i, n, record, status:
                seen.append((status, record is None)))
        # The failed point is reported distinctly — not as "run" — and
        # skipped; the surviving point still lands in the DB.
        assert seen == [("run", False), ("failed", True)]
        assert len(result.records) == 1
        assert len(result.failed) == 1
        assert result.failed[0][0]["opt_level"] == 2
        assert "1 failed" in result.format_table()
        assert len(db.query(sweep="tiny")) == 1


class TestResumeAfterInterrupt:
    def test_interrupted_sweep_resumes_at_first_unscored_point(
            self, engine, db, monkeypatch):
        real = score_point
        calls = {"n": 0}

        def explode_after_one(point, pairs, eng):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt("simulated ^C")
            return real(point, pairs, eng)

        monkeypatch.setattr(sweep_mod, "score_point", explode_after_one)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(TINY, engine=engine, db=db)
        # The point scored before the interrupt was persisted.
        assert len(db.query(sweep="tiny")) == 1

        monkeypatch.setattr(sweep_mod, "score_point", real)
        result = run_sweep(TINY, engine=engine, db=db)
        assert result.resumed == 1
        assert result.computed == TINY.space.size - 1
        assert len(db.query(sweep="tiny")) == TINY.space.size


class TestPairAxis:
    def test_pair_axis_pins_the_scored_workload(self, engine, db):
        preset = Preset(
            DesignSpace(
                name="per-pair",
                axes=(Axis("pair", ("crc32/small", "adpcm/small")),),
                base={"isa": "x86", "opt_level": 0},
            ),
            PAIRS,
        )
        result = run_sweep(preset, engine=engine, db=db)
        assert len(result.records) == 2
        instructions = {r.point["pair"]: r.metrics["org_instructions"]
                        for r in result.records}
        assert instructions["crc32/small"] != instructions["adpcm/small"]


SYNTH_NAME = "synth:s5-int-f64-d1-t3-e20-c1"

SYNTH_TINY = Preset(
    DesignSpace(
        name="synth-tiny",
        axes=(Axis("workload", (SYNTH_NAME,)),
              Axis("opt_level", (0, 2))),
        base={"isa": "x86", "width": 2, "l1_kb": 8},
    ),
    ((SYNTH_NAME, "small"),),
)


class TestWorkloadAxisSweep:
    """A generated workload swept as a first-class axis: run_sweep needs
    zero changes because DesignPoint.pair lowers the workload axis."""

    def test_sweep_scores_synth_points(self, db, tmp_path):
        engine = Engine(store=ArtifactStore(root=tmp_path / "store"))
        result = run_sweep(SYNTH_TINY, engine=engine, db=db)
        assert result.computed == SYNTH_TINY.space.size
        for record in result.records:
            assert record.point["workload"] == SYNTH_NAME
            assert record.metrics["org_cpi"] > 0
            assert 0 <= record.score < 1

    def test_warm_synth_resweep_does_zero_work(self, db, tmp_path):
        first = Engine(store=ArtifactStore(root=tmp_path / "store"))
        run_sweep(SYNTH_TINY, engine=first, db=db)

        rerun = Engine(store=ArtifactStore(root=tmp_path / "store"))
        result = run_sweep(SYNTH_TINY, engine=rerun, db=db, force=True)
        assert result.computed == SYNTH_TINY.space.size
        assert rerun.stats.misses == 0 and rerun.stats.puts == 0
