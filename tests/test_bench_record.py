"""scripts/bench_record.py: the records it appends and the counted-work
gate, with perfbench replaced by canned results."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"

COUNTS = {"cc.compiles": 12, "lang.parse_calls": 8, "sim.replays": 288,
          "sim.run_minstr": 2.4465950000000003,
          "sim.replay_minstr": 35.04445199999996, "engine.stages": 320,
          "store.gets": 322, "store.puts": 322}


@pytest.fixture
def bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "HISTORY", tmp_path / "BENCH_perfbench.json")
    monkeypatch.setattr(module, "spec", lambda: {
        "run_seconds": 24, "workloads": [{"name": "arch-sweep"}]})
    monkeypatch.setattr(module, "head_commit", lambda: "abc123")
    module.result = {"correct": True, "metrics": dict(COUNTS, wall_s=4.2)}
    module.calls = []

    def perfbench(workload, seed, seconds, trace):
        module.calls.append((workload, seed, seconds, trace))
        return json.loads(json.dumps(module.result))

    monkeypatch.setattr(module, "perfbench", perfbench)
    return module


def test_record_appends_e2e_and_trace(bench):
    assert bench.record(8) == 0
    assert bench.calls == [("arch-sweep", 1, 24, 0), ("arch-sweep", 1, 24, 1)]
    records = json.loads(bench.HISTORY.read_text())
    assert [r["mode"] for r in records] == ["e2e", "trace"]
    assert records[1] == {"pr": 8, "parent_commit": "abc123",
                          "workload": "arch-sweep", "seed": 1,
                          "mode": "trace", "correct": True,
                          "metrics": dict(COUNTS, wall_s=4.2)}
    # One record per line, so the file's git history diffs by record.
    assert len(bench.HISTORY.read_text().splitlines()) == 2 + len(records)


def test_check_passes_on_equal_counts(bench):
    bench.record(8)
    assert bench.check() == 0
    assert bench.calls[-1] == ("arch-sweep", 1, 24, 1)


@pytest.mark.parametrize("metric", sorted(COUNTS))
def test_check_fails_when_a_count_grows(bench, capsys, metric):
    bench.record(8)
    bench.result["metrics"][metric] += 1
    assert bench.check() == 1
    assert f"arch-sweep: {metric}" in capsys.readouterr().err


def test_check_reads_the_last_trace_record(bench):
    bench.record(7)
    bench.result["metrics"]["cc.compiles"] -= 1
    bench.record(8)
    assert bench.check() == 0
    bench.result["metrics"]["cc.compiles"] += 1
    assert bench.check() == 1


def test_check_fails_on_wrong_outputs(bench, capsys):
    bench.record(8)
    bench.result["correct"] = False
    assert bench.check() == 1
    assert "outputs not correct" in capsys.readouterr().err


def test_check_fails_without_a_trace_record(bench, capsys):
    assert bench.check() == 1
    assert "no trace record" in capsys.readouterr().err
    assert bench.calls == []
