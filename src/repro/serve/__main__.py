"""``repro-serve`` / ``python -m repro.serve`` — run the daemon.

Also carries a tiny client mode (``repro-serve submit|stats``) so the
CI smoke test and shell users don't need to hand-roll HTTP.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="engine-as-a-service daemon: coalesced figure/sweep/"
                    "replay/search jobs over HTTP+JSON",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="start the daemon (default)")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=8023,
                     help="0 picks a free port (printed on startup)")
    run.add_argument("--workers", type=int, default=2,
                     help="engine workers per job graph")
    run.add_argument("--backend", default="inline",
                     help="execution backend (inline/process/shard/"
                          "auto); in-process backends coalesce at node "
                          "granularity")
    run.add_argument("--cache-dir", default=None,
                     help="artifact store root (default: REPRO_CACHE_DIR)")
    run.add_argument("--db", default=None, dest="db_path",
                     help="results DB path (default: REPRO_RESULTS_DB)")
    run.add_argument("--quota-rate", type=float, default=0.0,
                     help="per-client submissions/second (0 disables)")
    run.add_argument("--quota-burst", type=float, default=None,
                     help="per-client burst capacity (default 10x rate)")
    run.add_argument("--max-inflight", type=int, default=4,
                     help="jobs executing concurrently")
    run.add_argument("--queue-limit", type=int, default=32,
                     help="live (queued+running) jobs before 429")

    for name, help_text in (
        ("submit", "submit a job (JSON on stdin or --json) and wait"),
        ("stats", "print daemon stats"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--host", default="127.0.0.1")
        cmd.add_argument("--port", type=int, default=8023)
        if name == "submit":
            cmd.add_argument("--json", default=None,
                             help="request body (default: read stdin)")
            cmd.add_argument("--client", default=None,
                             help="client id for quota accounting")
            cmd.add_argument("--timeout", type=float, default=300.0)
            cmd.add_argument("--no-wait", action="store_true",
                             help="print the submission reply and exit")
    return parser


def _serve(args) -> int:
    from repro.serve.server import ReproServer, ServeApp

    app = ServeApp(
        cache_dir=args.cache_dir,
        db_path=args.db_path,
        workers=args.workers,
        backend=args.backend,
        quota_rate=args.quota_rate or None,
        quota_burst=args.quota_burst,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
    )
    server = ReproServer(app, host=args.host, port=args.port)
    asyncio.run(server.serve_until_stopped())
    return 0


def _submit(args) -> int:
    from repro.serve.client import ServeClient, ServeError

    raw = args.json if args.json is not None else sys.stdin.read()
    try:
        request = json.loads(raw)
    except ValueError as exc:
        print(f"request body is not JSON: {exc}", file=sys.stderr)
        return 2
    client = ServeClient(args.host, args.port, client_id=args.client)
    try:
        reply = client.submit(request)
        if args.no_wait:
            print(json.dumps(reply, indent=2, sort_keys=True))
            return 0
        status = client.wait(reply["job"], timeout=args.timeout)
        if status["state"] == "failed":
            print(json.dumps(status, indent=2, sort_keys=True),
                  file=sys.stderr)
            return 1
        print(json.dumps(client.result(reply["job"]),
                         indent=2, sort_keys=True))
        return 0
    except (ServeError, TimeoutError, ConnectionError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _stats(args) -> int:
    from repro.serve.client import ServeClient, ServeError

    try:
        print(json.dumps(ServeClient(args.host, args.port).stats(),
                         indent=2, sort_keys=True))
        return 0
    except (ServeError, ConnectionError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Bare `repro-serve [--opts]` means `repro-serve run [--opts]`.
    if not argv or argv[0] not in ("run", "submit", "stats",
                                   "-h", "--help"):
        argv = ["run"] + argv
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _serve(args)
    if args.command == "submit":
        return _submit(args)
    return _stats(args)


if __name__ == "__main__":
    sys.exit(main())
