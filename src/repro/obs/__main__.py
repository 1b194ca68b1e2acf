"""``repro-trace`` CLI: record, summarize, and export engine traces.

* ``repro-trace record --figure fig04 --out trace.json`` — run one
  experiment figure (or ``--preset smoke`` for an explorer sweep) with
  tracing on; delegates to the experiments/explore CLIs' ``--trace``.
* ``repro-trace summary trace.json`` — per-category span rollup plus
  the embedded metrics snapshot's counters.
* ``repro-trace export trace.json --out chrome.json`` — Chrome
  trace-event JSON for Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.obs.trace import chrome_trace, load_trace, summarize


def _cmd_record(args) -> int:
    extra = ["--trace", args.out, "--workers", str(args.workers)]
    if args.backend:
        extra += ["--backend", args.backend]
    if args.cache_dir:
        extra += ["--cache-dir", args.cache_dir]
    if args.figure:
        from repro.experiments.__main__ import main as experiments_main
        return experiments_main(["--figures", args.figure, *extra])
    from repro.explore.__main__ import main as explore_main
    return explore_main(["run", "--preset", args.preset, *extra])


def _load(path: str) -> dict | None:
    """The trace at *path*, or ``None`` after one ``repro-trace:`` line
    on stderr saying why it cannot be read."""
    try:
        return load_trace(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except json.JSONDecodeError as exc:
        reason = f"not JSON ({exc})"
    except ValueError as exc:
        reason = str(exc)
    print(f"repro-trace: {path}: {reason}", file=sys.stderr)
    return None


def _cmd_summary(args) -> int:
    trace = _load(args.path)
    if trace is None:
        return 2
    rows = summarize(trace)
    if not rows:
        print("no spans recorded")
        return 0
    width = max(len(r["cat"]) for r in rows)
    print(f"{'category':<{width}}  {'count':>6}  {'total':>10}  "
          f"{'mean':>10}  {'max':>10}")
    for row in rows:
        print(f"{row['cat']:<{width}}  {row['count']:>6}  "
              f"{row['total_seconds']:>9.4f}s  {row['mean_seconds']:>9.4f}s  "
              f"{row['max_seconds']:>9.4f}s")
    metrics = (trace.get("metrics") or {}).get("metrics", ())
    if metrics:
        print(f"\n{len(metrics)} metric(s) in embedded snapshot:")
        for entry in metrics:
            data = entry["data"]
            if entry["kind"] == "counter":
                value = data["value"]
            elif entry["kind"] == "tagged_counter":
                value = dict(data.get("values", {}))
            else:
                value = f"count={data.get('count', 0)}"
            print(f"  {entry['name']} [{entry['kind']}] = {value}")
    return 0


def _cmd_export(args) -> int:
    trace = _load(args.path)
    if trace is None:
        return 2
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(chrome_trace(trace), indent=2))
    print(f"wrote {len(trace.get('spans', ()))} events to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Record, summarize, and export engine span traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run one traced workload")
    record.add_argument("--out", required=True, help="trace output path")
    what = record.add_mutually_exclusive_group(required=True)
    what.add_argument("--figure", help="experiment figure, e.g. fig04")
    what.add_argument("--preset", help="explorer preset, e.g. smoke")
    record.add_argument("--workers", type=int, default=2)
    record.add_argument("--backend", default=None)
    record.add_argument("--cache-dir", default=None)
    record.set_defaults(func=_cmd_record)

    summary = sub.add_parser("summary", help="per-category span rollup")
    summary.add_argument("path")
    summary.set_defaults(func=_cmd_summary)

    export = sub.add_parser("export", help="emit Chrome trace-event JSON")
    export.add_argument("path")
    export.add_argument("--out", required=True)
    export.set_defaults(func=_cmd_export)

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``repro-trace summary ... | head``).
        # Point stdout at devnull so the exit-time flush cannot raise
        # again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
