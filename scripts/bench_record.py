"""Record the repository benchmark into BENCH_perfbench.json, and gate on it.

    python scripts/bench_record.py record --pr N
    python scripts/bench_record.py check

``record`` runs ``perfbench/run.py`` for every workload in
``BENCHMARK.json`` at seed 1: one end-to-end run (``--trace 0``, for
``run_seconds``) and one traced run (``--trace 1``).  It appends one
record per run to ``BENCH_perfbench.json``, the perf history the repo
commits, so ``git log -p BENCH_perfbench.json`` is the trajectory.

``check`` runs the traced round of every workload again and fails
(exit 1) when the outputs are not correct, or when a counted-work
metric (``COUNTED``) exceeds that workload's last committed trace
record.  The counts repeat exactly under perfbench's pinned hash seed
and do not depend on the machine, so the gate is exact where a timing
gate would be noisy; timings are gated by the benchmark's own
parent-versus-change bounds.

The file holds one JSON record per line::

    {"pr", "parent_commit", "workload", "seed", "mode", "correct", "metrics"}

``mode`` is ``e2e`` or ``trace``, ``parent_commit`` the commit the
measured tree was built on, and ``metrics`` maps each metric name to
its value (units are in ``BENCHMARK.json``).  Records carrying
``"source": "PR gate"`` were copied from the benchmark gate's medians
for one PR; their ``side`` says whether they measured the parent or the
change.  Run from anywhere; the benchmark runs in the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HISTORY = ROOT / "BENCH_perfbench.json"
SEED = 1

#: Counted work per layer: the compiler, parser, functional and timing
#: simulators, the engine's stage runs and the store's reads and writes.
COUNTED = ("cc.compiles", "lang.parse_calls", "sim.replays",
           "sim.run_minstr", "sim.replay_minstr", "engine.stages",
           "store.gets", "store.puts")


class BenchError(RuntimeError):
    pass


def load() -> list[dict]:
    return json.loads(HISTORY.read_text()) if HISTORY.exists() else []


def save(records: list[dict]) -> None:
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
    HISTORY.write_text(f"[\n{lines}\n]\n")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; returns its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    print(f"bench_record: {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: perfbench exited with "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: metric["value"]
                         for name, metric in result["metrics"].items()}
    return result


def head_commit() -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def record(pr: int) -> int:
    bench = spec()
    records = load()
    parent = head_commit()
    for workload in (w["name"] for w in bench["workloads"]):
        for mode, trace in (("e2e", 0), ("trace", 1)):
            result = perfbench(workload, SEED, bench["run_seconds"], trace)
            records.append({
                "pr": pr, "parent_commit": parent, "workload": workload,
                "seed": SEED, "mode": mode, "correct": result["correct"],
                "metrics": result["metrics"]})
            save(records)
            if not result["correct"]:
                print(f"bench_record: {workload} {mode}: outputs not "
                      "correct", file=sys.stderr)
                return 1
    return 0


def last_trace(records: list[dict], workload: str) -> dict | None:
    return next((r for r in reversed(records)
                 if r["workload"] == workload and r["mode"] == "trace"),
                None)


def check() -> int:
    bench = spec()
    records = load()
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        committed = last_trace(records, workload)
        if committed is None:
            failures.append(f"{workload}: no trace record in {HISTORY.name}")
            continue
        result = perfbench(workload, committed["seed"],
                           bench["run_seconds"], 1)
        if not result["correct"]:
            failures.append(f"{workload}: outputs not correct")
        print(f"{workload} (vs PR {committed['pr']}, seed "
              f"{committed['seed']}):")
        for name in COUNTED:
            was, now = committed["metrics"][name], result["metrics"][name]
            verdict = "MORE WORK" if now > was else "ok"
            print(f"  {name:<20} {was:>12g} -> {now:<12g} {verdict}")
            if now > was:
                failures.append(f"{workload}: {name} {was:g} -> {now:g}")
    for failure in failures:
        print(f"bench_record: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/bench_record.py",
        description="Record perfbench runs into BENCH_perfbench.json, or "
                    "check counted work against the last record.")
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="append this tree's records")
    rec.add_argument("--pr", type=int, required=True)
    sub.add_parser("check", help="fail if counted work grew")
    args = parser.parse_args(argv)
    try:
        if args.command == "record":
            return record(args.pr)
        return check()
    except BenchError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
