"""CLI surface: ``python -m repro.experiments`` flags and figure registry."""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.report import (
    DEFAULT_FIGURES,
    FIGURES,
    generate_report,
    resolve_figures,
)
from repro.experiments.runner import ExperimentRunner

PAIRS_FIGURE = "fig04"


class TestFigureRegistry:
    def test_registry_covers_the_report(self):
        assert set(DEFAULT_FIGURES) == set(FIGURES)
        for name in ("fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
                     "fig10", "fig11", "explore", "history", "search",
                     "obfuscation", "ablation"):
            assert name in FIGURES

    def test_explore_section_covers_the_full_suite(self):
        from repro.experiments.runner import FULL_PAIRS

        assert FIGURES["explore"].pairs == FULL_PAIRS

    def test_resolve_defaults_to_everything(self):
        assert resolve_figures(None) == DEFAULT_FIGURES
        assert resolve_figures([]) == DEFAULT_FIGURES

    def test_resolve_preserves_report_order(self):
        assert resolve_figures(["fig07", "fig04"]) == ("fig04", "fig07")

    def test_resolve_rejects_unknown(self):
        with pytest.raises(KeyError, match="fig99"):
            resolve_figures(["fig99"])


class TestGenerateReport:
    def test_single_figure_section(self, tmp_path):
        report = generate_report(ExperimentRunner(), figures=["fig04"])
        assert "Fig. 4" in report
        assert "Fig. 5" not in report
        assert "artifact cache:" in report


class TestHistorySection:
    def _record(self, key, sweep, score, toolchain, created_at):
        from repro.explore.db import ResultRecord

        return ResultRecord(
            key=key, sweep=sweep, created_at=created_at,
            point={"isa": "x86", "opt_level": 0},
            metrics={"cpi_err": score}, score=score, toolchain=toolchain,
        )

    def test_history_renders_per_toolchain_best(self, tmp_path,
                                                monkeypatch):
        from repro.engine.store import toolchain_fingerprint
        from repro.explore.db import ResultsDB

        db_path = tmp_path / "history.sqlite3"
        monkeypatch.setenv("REPRO_RESULTS_DB", str(db_path))
        live = toolchain_fingerprint()
        with ResultsDB(db_path) as db:
            db.put(self._record("k1", "smoke", 0.05, live, 100.0))
            db.put(self._record("k2", "smoke", 0.03, live, 200.0))
            db.put(self._record("k3", "isa-opt", 0.20, "f" * 64, 50.0))

        report = generate_report(ExperimentRunner(), figures=["history"])
        assert "Sweep history" in report
        assert "smoke" in report and "isa-opt" in report
        # The live toolchain is starred and listed before foreign ones.
        assert f"{live[:12]}*" in report
        assert report.index(live[:12]) < report.index("f" * 12)
        # Best score per (toolchain, sweep), not the latest one.
        assert "0.030" in report

    def test_history_empty_db(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DB",
                           str(tmp_path / "empty.sqlite3"))
        report = generate_report(ExperimentRunner(), figures=["history"])
        assert "no stored sweep results yet" in report


class TestSearchTraceSection:
    def _record(self, key, sweep, score, created_at, pairs=None):
        from repro.explore.db import ResultRecord

        metrics = {"cpi_err": score}
        if pairs is not None:
            metrics["pairs_scored"] = pairs
        return ResultRecord(
            key=key, sweep=sweep, created_at=created_at,
            point={"isa": "x86", "opt_level": 0},
            metrics=metrics, score=score, toolchain="tc",
        )

    def test_search_trace_renders_round_trend(self, tmp_path,
                                              monkeypatch):
        from repro.explore.db import ResultsDB

        db_path = tmp_path / "trace.sqlite3"
        monkeypatch.setenv("REPRO_RESULTS_DB", str(db_path))
        with ResultsDB(db_path) as db:
            db.put(self._record("k1", "smoke-hill-s0/round-0", 0.5, 1.0))
            db.put(self._record("k2", "smoke-hill-s0/round-1", 0.2, 2.0))
            db.put(self._record("k3", "plain-sweep", 0.9, 3.0))

        report = generate_report(ExperimentRunner(), figures=["search"])
        assert "Search trace" in report
        assert "smoke-hill-s0" in report
        # Ordinary sweeps don't show up as searches.
        assert "plain-sweep" not in report
        # best-so-far trend: round 1 improves on round 0.
        assert "0.500" in report and "0.200" in report

    def test_reduced_scope_rounds_stay_out_of_best_so_far(
            self, tmp_path, monkeypatch):
        from repro.explore.db import ResultsDB

        db_path = tmp_path / "scoped.sqlite3"
        monkeypatch.setenv("REPRO_RESULTS_DB", str(db_path))
        with ResultsDB(db_path) as db:
            # Halving cohort screened on one pair: artificially low
            # score that must not pin the full-scope trend.
            db.put(self._record("c", "m-halving-s0/round-0", 0.01, 1.0,
                                pairs=1))
            db.put(self._record("p", "m-halving-s0/round-1", 0.30, 2.0,
                                pairs=5))

        report = generate_report(ExperimentRunner(), figures=["search"])
        lines = [line for line in report.splitlines()
                 if line.startswith("m-halving-s0")]
        assert len(lines) == 2
        # Round 0 shows its own best but best-so-far is undefined (nan)
        # until a full-scope round lands.
        assert "0.010" in lines[0] and "nan" in lines[0]
        assert lines[1].count("0.300") == 2  # round best == best so far

    def test_search_trace_empty_db(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DB",
                           str(tmp_path / "empty.sqlite3"))
        report = generate_report(ExperimentRunner(), figures=["search"])
        assert "no stored search rounds yet" in report


class TestMainCli:
    def test_figures_and_stats_flags(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        assert main(["--figures", "fig04", "--stats"]) == 0
        out, err = capsys.readouterr()
        assert "Fig. 4" in out
        assert "misses" in err

        # Warm rerun replays everything from the store.
        assert main(["--figures", "fig04", "--stats"]) == 0
        _, err = capsys.readouterr()
        assert " 0 misses" in err

    def test_workers_flag_matches_serial_output(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        assert main(["--figures", "fig04"]) == 0
        serial = capsys.readouterr().out

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        assert main(["--figures", "fig04", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out

        strip = lambda text: [line for line in text.splitlines()
                              if "wall clock" not in line]
        assert strip(parallel) == strip(serial)

    def test_no_cache_flag(self, capsys):
        assert main(["--figures", "fig04", "--no-cache", "--stats"]) == 0
        out, err = capsys.readouterr()
        assert "Fig. 4" in out
        assert "0 hits, 0 misses" in err

    def test_unknown_figure_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["--figures", "nope"])
        assert "unknown figures" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["0", "-5"])
    def test_target_instructions_below_one_is_usage_error(self, capsys,
                                                          target):
        with pytest.raises(SystemExit) as exc:
            main(["--target-instructions", target])
        assert exc.value.code == 2
        assert f"--target-instructions must be >= 1, got {target}" in \
            capsys.readouterr().err


class TestPairsOverride:
    SYNTH = "synth:s5-int-f64-d1-t3-e20-c1"

    def test_generate_report_with_pairs_override(self):
        report = generate_report(
            ExperimentRunner(), figures=["fig04"],
            pairs=((self.SYNTH, "small"),))
        assert self.SYNTH in report
        assert "crc32" not in report

    def test_pure_db_sections_ignore_the_override(self):
        # history reads the results DB; an override must not break it.
        report = generate_report(
            ExperimentRunner(), figures=["history"],
            pairs=((self.SYNTH, "small"),))
        assert "Sweep history" in report

    def test_cli_pairs_flag(self, capsys):
        assert main(["--figures", "fig04",
                     "--pairs", f"{self.SYNTH}/small"]) == 0
        assert self.SYNTH in capsys.readouterr().out

    def test_cli_rejects_unknown_pairs_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--figures", "fig04", "--pairs", "crc33/small"])
        assert exc_info.value.code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_cli_rejects_malformed_synth_fingerprint(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--figures", "fig04", "--pairs", "synth:bogus"])
        assert exc_info.value.code == 2
        assert "synth names look like" in capsys.readouterr().err
