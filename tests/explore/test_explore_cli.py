"""CLI surface: ``python -m repro.explore`` run/query/rank/compare."""

import pytest

from repro.explore.__main__ import main


@pytest.fixture(autouse=True)
def _hermetic_db(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DB",
                       str(tmp_path / "explore.sqlite3"))


class TestRun:
    def test_smoke_sweep_then_warm_resume(self, capsys):
        assert main(["run", "--preset", "smoke", "--stats"]) == 0
        out, err = capsys.readouterr()
        assert "4 point(s) scored, 0 resumed" in out
        assert "misses" in err

        # Second invocation answers entirely from the DB: zero engine
        # activity — no compiles, no runs, not even store lookups.
        assert main(["run", "--preset", "smoke", "--stats"]) == 0
        out, err = capsys.readouterr()
        assert "0 point(s) scored, 4 resumed" in out
        assert "0 hits, 0 misses, 0 puts" in err

    def test_backend_shard_sweep_and_resume(self, capsys):
        # Sharded subprocess execution end-to-end, then a DB resume.
        assert main(["run", "--preset", "smoke", "--n", "2",
                     "--backend", "shard", "--workers", "2",
                     "--stats"]) == 0
        out, err = capsys.readouterr()
        assert "2 point(s) scored, 0 resumed" in out
        assert "misses" in err

        assert main(["run", "--preset", "smoke", "--n", "2",
                     "--backend", "shard", "--workers", "2"]) == 0
        assert "0 point(s) scored, 2 resumed" in capsys.readouterr()[0]

    def test_trace_flag_writes_stage_spans(self, tmp_path, capsys):
        """Acceptance: a shard-backend sweep leaves one merged metrics
        snapshot and one trace whose stage spans cover the graph."""
        import json

        trace_path = tmp_path / "sweep-trace.json"
        # Private cache dir: a warm store would satisfy every node from
        # probes, leaving no executed stages to assert on.
        assert main(["run", "--preset", "smoke", "--n", "1",
                     "--backend", "shard", "--workers", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace", str(trace_path)]) == 0
        _, err = capsys.readouterr()
        assert "span(s)" in err
        trace = json.loads(trace_path.read_text())
        assert trace["format"] == "repro-trace"
        cats = {s["cat"] for s in trace["spans"]}
        assert {"compile", "run", "profile", "replay"} <= cats
        names = {e["name"] for e in trace["metrics"]["metrics"]}
        assert {"engine_cache", "engine_stages_executed",
                "engine_store_ops"} <= names

    def test_backend_auto_matches_inline(self, capsys):
        assert main(["run", "--preset", "smoke", "--n", "1",
                     "--backend", "auto", "--workers", "2"]) == 0
        assert "1 point(s) scored" in capsys.readouterr()[0]

    def test_sample_and_top_flags(self, capsys):
        assert main(["run", "--preset", "smoke", "--sample", "random",
                     "--n", "2", "--seed", "3", "--top", "1"]) == 0
        out, _ = capsys.readouterr()
        assert "2 point(s) scored" in out

    def test_pairs_override(self, capsys):
        assert main(["run", "--preset", "smoke", "--n", "1",
                     "--pairs", "crc32/small"]) == 0
        assert "1 point(s) scored" in capsys.readouterr()[0]

    def test_no_cache_measures_compute_not_stale_db_state(self, capsys):
        assert main(["run", "--preset", "smoke", "--n", "1"]) == 0
        capsys.readouterr()
        # --no-cache must not resume from the persistent DB.
        assert main(["run", "--preset", "smoke", "--n", "1",
                     "--no-cache", "--stats"]) == 0
        out, err = capsys.readouterr()
        assert "1 point(s) scored, 0 resumed" in out
        assert "0 hits" in err and "0 puts" in err

    def test_cache_dir_carries_the_results_db_along(self, tmp_path,
                                                    monkeypatch, capsys):
        # Without --db, a relocated store keeps its DB next to it
        # (not at $REPRO_RESULTS_DB / the default cache root).
        monkeypatch.delenv("REPRO_RESULTS_DB", raising=False)
        cache = tmp_path / "relocated"
        assert main(["run", "--preset", "smoke", "--n", "1",
                     "--cache-dir", str(cache)]) == 0
        assert (cache / "explore.sqlite3").exists()
        assert str(cache / "explore.sqlite3") in capsys.readouterr()[0]


class TestSearch:
    def test_hill_search_smoke_then_warm_resume(self, capsys):
        assert main(["search", "smoke", "--strategy", "hill",
                     "--budget", "8", "--seed", "0", "--stats"]) == 0
        out, err = capsys.readouterr()
        assert "Adaptive search 'smoke-hill-s0'" in out
        assert "best score" in out
        assert "misses" in err

        # The acceptance criterion: a repeated invocation resumes every
        # round entirely from the DB — zero compiles/runs/replays.
        assert main(["search", "smoke", "--strategy", "hill",
                     "--budget", "8", "--seed", "0", "--stats"]) == 0
        out, err = capsys.readouterr()
        assert "(0 scored, 4 resumed)" in out
        assert "0 hits, 0 misses, 0 puts" in err

    def test_search_rounds_are_queryable_sweeps(self, capsys):
        assert main(["search", "smoke", "--budget", "4"]) == 0
        capsys.readouterr()
        assert main(["query", "--sweep", "smoke-hill-s0/round-0"]) == 0
        assert "stored result(s)" in capsys.readouterr()[0]

    def test_halving_search(self, capsys):
        assert main(["search", "smoke", "--strategy", "halving",
                     "--budget", "6", "--seed", "1"]) == 0
        out, _ = capsys.readouterr()
        assert "cohort" in out and "promote" in out

    def test_budget_below_one_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "smoke", "--budget", "0"])
        assert "--budget" in capsys.readouterr().err

    def test_unknown_preset_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "nope"])
        assert "unknown preset 'nope'" in capsys.readouterr().err

    def test_unknown_strategy_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "smoke", "--strategy", "bayes"])


class TestRunSampleFlagValidation:
    def test_seed_outside_random_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "smoke", "--seed", "1"])
        assert "--seed" in capsys.readouterr().err

    def test_stride_outside_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "smoke", "--sample", "random",
                  "--n", "1", "--stride", "2"])
        assert "--stride" in capsys.readouterr().err

    def test_stride_below_one_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "smoke", "--stride", "0"])
        assert "--stride" in capsys.readouterr().err


class TestQueryRankCompare:
    @pytest.fixture(autouse=True)
    def _seeded(self, capsys):
        assert main(["run", "--preset", "smoke"]) == 0
        capsys.readouterr()

    def test_query_reads_stored_rows(self, capsys):
        assert main(["query", "--sweep", "smoke"]) == 0
        out, _ = capsys.readouterr()
        assert "4 stored result(s)" in out
        assert "opt_level=0" in out

    def test_query_where_filters(self, capsys):
        assert main(["query", "--where", "width=4"]) == 0
        out, _ = capsys.readouterr()
        assert "2 stored result(s)" in out

    def test_query_no_match_lists_sweeps(self, capsys):
        assert main(["query", "--sweep", "absent"]) == 1
        out, _ = capsys.readouterr()
        assert "stored sweeps: smoke (4)" in out

    def test_rank_orders_and_marks_pareto(self, capsys):
        assert main(["rank", "--sweep", "smoke", "--metric", "cpi_err",
                     "--top", "3", "--pareto"]) == 0
        out, _ = capsys.readouterr()
        assert "Top 3 by cpi_err" in out
        assert "*" in out

    def test_compare_two_sweeps(self, capsys):
        assert main(["run", "--preset", "smoke", "--sweep-name",
                     "smoke2"]) == 0
        capsys.readouterr()
        assert main(["compare", "smoke", "smoke2"]) == 0
        out, _ = capsys.readouterr()
        assert "4 matched point(s)" in out

    def test_compare_disjoint_sweeps_errors(self, capsys):
        assert main(["compare", "smoke", "absent"]) == 1


class TestPresets:
    def test_presets_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out, _ = capsys.readouterr()
        for name in ("smoke", "isa-opt", "table3", "microarch"):
            assert name in out

    def test_unknown_preset_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "nope"])
        assert "unknown preset 'nope'" in capsys.readouterr().err
