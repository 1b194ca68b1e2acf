"""The ``repro-trace`` CLI: summary, export, record delegation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.__main__ import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture
def trace_file(tmp_path):
    tracer = Tracer()
    tracer.add_span("t1", "compile", 0.0, 0.5, {"outcome": "executed"})
    tracer.add_span("t2", "run", 0.5, 0.25, {"outcome": "hit"})
    registry = MetricsRegistry()
    registry.count("engine_cache", tag="hit", label="outcome")
    registry.count("jobs", 2)
    return tracer.save(tmp_path / "trace.json",
                       metrics=registry.snapshot())


class TestSummary:
    def test_rollup_and_metrics(self, trace_file, capsys):
        assert main(["summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "compile" in out and "run" in out
        assert "2 metric(s) in embedded snapshot" in out
        assert "engine_cache [tagged_counter] = {'hit': 1}" in out
        assert "jobs [counter] = 2" in out

    def test_empty_trace(self, tmp_path, capsys):
        path = Tracer().save(tmp_path / "empty.json")
        assert main(["summary", str(path)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_reader_closing_early_exits_quietly(self, tmp_path):
        """``repro-trace summary trace.json | head -1``: a summary far
        larger than the pipe buffer, read one line and then abandoned,
        must end without a ``BrokenPipeError`` traceback."""
        tracer = Tracer()
        for i in range(4000):
            tracer.add_span(f"s{i}", f"category-{i:05d}", 0.0, 0.001)
        path = tracer.save(tmp_path / "wide.json")
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.obs", "summary", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"category")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr


class TestExport:
    def test_chrome_json_parses(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        assert main(["export", str(trace_file),
                     "--out", str(out_path)]) == 0
        chrome = json.loads(out_path.read_text())
        assert len(chrome["traceEvents"]) == 2
        assert {e["name"] for e in chrome["traceEvents"]} == {"t1", "t2"}
        assert "wrote 2 events" in capsys.readouterr().out


class TestUnreadableTrace:
    """A missing, non-JSON or foreign file is one error line and exit 2,
    never a traceback."""

    @pytest.mark.parametrize("content,reason", [
        (None, "No such file or directory"),
        ("{not json", "not JSON"),
        (json.dumps({"spans": []}), "not a repro-trace file"),
    ], ids=["missing", "not-json", "foreign"])
    @pytest.mark.parametrize("command", ["summary", "export"])
    def test_one_line_and_exit_2(self, tmp_path, capsys, command, content,
                                 reason):
        path = tmp_path / "trace.json"
        if content is not None:
            path.write_text(content)
        argv = [command, str(path)]
        if command == "export":
            argv += ["--out", str(tmp_path / "chrome.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro-trace: {path}: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "chrome.json").exists()


class TestRecord:
    def test_figure_records_stage_spans(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "trace.json"
        assert main(["record", "--figure", "fig04", "--out", str(out),
                     "--workers", "2"]) == 0
        trace = json.loads(out.read_text())
        cats = {s["cat"] for s in trace["spans"]}
        assert {"compile", "run", "profile"} <= cats
        assert "scheduler" in cats
        assert trace["metrics"]["metrics"], "metrics snapshot embedded"
