"""Content-addressed on-disk artifact store.

Every pipeline artifact (compile results, execution traces, statistical
profiles, synthesized clones) is keyed by the SHA-256 of a canonical
JSON record: the source fingerprint, ISA, optimization level, pipeline
stage, stage-specific parameters, and the engine schema version.  Equal
inputs therefore map to the same on-disk entry across processes and
across runs, which is what makes warm-cache report generation skip every
compile/run/profile/synthesize step.

Layout: ``<root>/objects/<key[:2]>/<key>.pkl`` with atomic writes
(temp file + ``os.replace``), so concurrent writers — the scheduler's
worker processes — can race on the same key safely: last write wins and
both wrote identical bytes.

The root directory resolves, in order: explicit ``root=`` argument, the
``REPRO_CACHE_DIR`` environment variable, ``$XDG_CACHE_HOME/repro``,
``~/.cache/repro``.

Lifecycle: setting ``REPRO_CACHE_MAX_BYTES`` (or ``max_bytes=``) turns
every ``put`` into a size-capped write — the LRU :meth:`evict` sweep
runs whenever the store grows past the cap (parallel runs write
uncapped and settle the cap once per graph).  ``fsck`` detects and
removes corrupt or truncated pickles plus ``.tmp`` files orphaned by
killed writers.  Every ``put`` also records a provenance sidecar
(``<key>.meta.json`` with the writing store's schema version and
toolchain digest), which is what lets :meth:`gc` evict entries no
live reader can reach anymore (cross-schema garbage collection).

Syncing: :meth:`export_keys` copies selected objects into another
store-rooted directory and :meth:`import_keys` absorbs them — the seam
the sharded execution backend (and a future SSH/remote backend) moves
artifacts through.

``repro-cache`` (console script, also ``python -m repro.engine.store``)
exposes ``info`` / ``stats [--by-stage]`` / ``clear`` / ``evict`` /
``fsck`` / ``gc`` against that same resolution.  Sidecars additionally
record the pipeline stage that produced an entry (when the writer knows
it), which is what ``stats --by-stage`` aggregates — replay-cache
growth is observable as its own line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Bump whenever the pickled artifact layout or the key recipe changes;
#: old entries then become unreachable instead of silently wrong.
#: 2: TimingResult grew mem_lat_hist/branch_run_hist snapshot fields.
#: 3: compile artifacts hold binary + opt_stats only.
SCHEMA_VERSION = 3

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

_MISS = object()


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def source_fingerprint(source: str) -> str:
    """SHA-256 of a source text, the ``source_sha`` field of every key."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


_TOOLCHAIN_FINGERPRINT: str | None = None


def toolchain_fingerprint() -> str:
    """SHA-256 over the ``repro`` package sources (computed once).

    Folded into every key so artifacts produced by one version of the
    compiler/simulator/synthesizer never satisfy lookups from another —
    the same reason ccache hashes the compiler binary.
    """
    global _TOOLCHAIN_FINGERPRINT
    if _TOOLCHAIN_FINGERPRINT is None:
        import repro

        package_root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _TOOLCHAIN_FINGERPRINT = digest.hexdigest()
    return _TOOLCHAIN_FINGERPRINT


def canonical_key(fields: dict) -> str:
    """SHA-256 of the canonical JSON encoding of *fields*.

    Field order never matters (keys are sorted) and only JSON-stable
    types should appear in *fields*; anything else is stringified, which
    keeps the recipe total but places the burden of stability on callers.
    """
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Hit/miss/write/eviction counters for one store handle."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def merge(self, other: "StoreStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.evictions += other.evictions

    def reset(self) -> None:
        self.hits = self.misses = self.puts = self.evictions = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }


@dataclass
class ArtifactStore:
    """Persistent pickle store addressed by canonical content keys."""

    root: Path | str | None = None
    schema_version: int = SCHEMA_VERSION
    toolchain: str | None = None
    stats: StoreStats = field(default_factory=StoreStats)
    #: Size cap enforced on every put (None = unbounded).  Defaults to
    #: ``REPRO_CACHE_MAX_BYTES`` when set.
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        self.root = Path(self.root).expanduser() if self.root else \
            default_cache_root()
        if self.max_bytes is None:
            env = os.environ.get(CACHE_MAX_BYTES_ENV)
            if env:
                self.max_bytes = int(env)
        # Running size estimate for the capped-put path: seeded by one
        # scan, advanced per write, re-grounded by every evict()'s own
        # scan.  Approximate under concurrent writers (and overwrites
        # count twice), which only means an early sweep — correctness
        # comes from evict() re-measuring.
        self._approx_bytes: int | None = None

    # -- keys --------------------------------------------------------------

    def key_for(self, stage: str, **fields) -> str:
        """Canonical key for *stage* under this store's schema version
        and toolchain fingerprint (default: the live ``repro`` package).
        """
        record = {
            "schema": self.schema_version,
            "stage": stage,
            "toolchain": self.toolchain or toolchain_fingerprint(),
        }
        record.update(fields)
        return canonical_key(record)

    def path_for(self, key: str) -> Path:
        return Path(self.root) / "objects" / key[:2] / f"{key}.pkl"

    @staticmethod
    def _meta_path(path: Path) -> Path:
        """The provenance sidecar next to an object file."""
        return path.with_suffix(".meta.json")

    @staticmethod
    def _unlink_object(path: Path) -> None:
        """Remove an object file together with its provenance sidecar."""
        path.unlink(missing_ok=True)
        ArtifactStore._meta_path(path).unlink(missing_ok=True)

    def _atomic_write(self, target: Path, data: bytes) -> None:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- access ------------------------------------------------------------

    def get(self, key: str, default=None):
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return default
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # A truncated or stale entry is a miss; drop it so the slot
            # gets rewritten rather than failing every future lookup.
            self._unlink_object(path)
            self.stats.misses += 1
            return default
        try:
            # Freshen mtime so evict()'s LRU order reflects reads, not
            # just writes.
            os.utime(path)
        except OSError:
            pass
        self.stats.hits += 1
        return value

    def put(self, key: str, value, stage: str | None = None,
            seconds: float | None = None) -> Path:
        path = self.path_for(key)
        # Provenance sidecar first, then the object: an entry is never
        # visible without the metadata gc() reads to classify it.  (A
        # failed put may orphan a sidecar; clear() reclaims those.)
        meta: dict = {
            "schema": self.schema_version,
            "toolchain": self.toolchain or toolchain_fingerprint(),
        }
        if stage is not None:
            # Writers that know which pipeline stage produced the entry
            # record it, which is what `repro-cache stats --by-stage`
            # aggregates; stage-less puts stay classifiable by gc().
            meta["stage"] = stage
        if seconds is not None:
            # Measured wall-clock of the stage execution that produced
            # the entry — the raw history `stats --by-stage` averages
            # and the serve layer's CostModel learns from.
            meta["seconds"] = round(float(seconds), 6)
        self._atomic_write(
            self._meta_path(path), json.dumps(meta).encode("utf-8"),
        )
        self._atomic_write(
            path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self.stats.puts += 1
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = sum(
                    size for _, size, _ in self.entries()
                )
            else:
                try:
                    self._approx_bytes += path.stat().st_size
                except OSError:  # racing eviction
                    pass
            if self._approx_bytes > self.max_bytes:
                self.evict(max_bytes=self.max_bytes)
        return path

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def delete(self, key: str) -> bool:
        path = self.path_for(key)
        if path.exists():
            self._unlink_object(path)
            self._approx_bytes = None
            return True
        return False

    # -- syncing -------------------------------------------------------------

    def export_keys(self, keys, dest) -> int:
        """Copy *keys*' objects (plus provenance sidecars) into *dest*,
        laid out as another store root.

        The receiving side absorbs them with :meth:`import_keys`; a
        shard worker exports exactly what it computed, and a remote
        backend would ship the directory over the wire.  Keys not
        present locally are skipped.  Returns the number exported.
        """
        dest = Path(dest).expanduser()
        exported = 0
        for key in keys:
            src = self.path_for(key)
            if not src.exists():
                continue
            target = dest / "objects" / key[:2] / f"{key}.pkl"
            self._atomic_write(target, src.read_bytes())
            meta = self._meta_path(src)
            if meta.exists():
                self._atomic_write(self._meta_path(target),
                                   meta.read_bytes())
            exported += 1
        return exported

    def import_keys(self, source, keys=None) -> int:
        """Absorb objects from *source* — another store root or an
        :meth:`export_keys` directory — into this store.

        Every absorbed object counts as a put (the parent's counters
        stay an accurate account of the whole run).  *keys* narrows the
        import; ``None`` takes everything.  Returns the number imported.
        """
        objects = Path(source).expanduser() / "objects"
        if keys is None:
            paths = sorted(objects.glob("*/*.pkl")) if objects.is_dir() \
                else []
        else:
            paths = [objects / key[:2] / f"{key}.pkl" for key in keys]
        imported = 0
        for src in paths:
            if not src.exists():
                continue
            target = self.path_for(src.stem)
            self._atomic_write(target, src.read_bytes())
            meta = self._meta_path(src)
            if meta.exists():
                self._atomic_write(self._meta_path(target),
                                   meta.read_bytes())
            self.stats.puts += 1
            imported += 1
        if imported:
            self._approx_bytes = None
        return imported

    # -- maintenance ---------------------------------------------------------

    def entries(self):
        """Yield ``(path, size_bytes, mtime)`` for every stored object."""
        objects = Path(self.root) / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.pkl")):
            try:
                stat = path.stat()
            except FileNotFoundError:  # racing eviction
                continue
            yield path, stat.st_size, stat.st_mtime

    def info(self) -> dict:
        count = 0
        total = 0
        for _, size, _ in self.entries():
            count += 1
            total += size
        return {
            "root": str(self.root),
            "schema_version": self.schema_version,
            "entries": count,
            "total_bytes": total,
            "stats": self.stats.as_dict(),
        }

    def by_stage(self) -> dict[str, dict]:
        """Per-stage ``{"entries": n, "bytes": b, "mean_seconds": s,
        "timed_entries": t}`` breakdown, read from the provenance
        sidecars.

        Entries whose sidecar predates stage recording (or is missing)
        group under ``"(unknown)"`` — observability never guesses.  This
        is what makes replay-cache growth visible as its own line
        instead of disappearing into one total.  ``mean_seconds``
        averages the measured stage wall-clock over the
        ``timed_entries`` entries that recorded one (``None``/0 when no
        entry did) — the sample count is what distinguishes one outlier
        compile from a trend.
        """
        breakdown: dict[str, dict] = {}
        timed: dict[str, tuple[int, float]] = {}
        for path, size, _ in self.entries():
            try:
                meta = json.loads(self._meta_path(path).read_text())
            except (OSError, ValueError):
                meta = None
            stage = (meta or {}).get("stage") or "(unknown)"
            bucket = breakdown.setdefault(
                stage, {"entries": 0, "bytes": 0, "mean_seconds": None,
                        "timed_entries": 0}
            )
            bucket["entries"] += 1
            bucket["bytes"] += size
            seconds = (meta or {}).get("seconds")
            if isinstance(seconds, (int, float)):
                count, total = timed.get(stage, (0, 0.0))
                timed[stage] = (count + 1, total + float(seconds))
        for stage, (count, total) in timed.items():
            breakdown[stage]["mean_seconds"] = total / count
            breakdown[stage]["timed_entries"] = count
        return breakdown

    def clear(self) -> int:
        """Remove every entry (and any ``.tmp`` leftovers); returns the
        number of entries removed."""
        removed = 0
        for path, _, _ in list(self.entries()):
            self._unlink_object(path)
            removed += 1
        objects = Path(self.root) / "objects"
        if objects.is_dir():
            for pattern in ("*/*.tmp", "*/*.meta.json"):
                for path in objects.glob(pattern):
                    path.unlink(missing_ok=True)
        self.stats.evictions += removed
        self._approx_bytes = 0
        return removed

    #: A ``.tmp`` older than this is an orphan from a killed writer —
    #: real writes replace within milliseconds.
    STALE_TMP_SECONDS = 3600

    def stale_tmp_files(self) -> list[Path]:
        """Leftover ``.tmp`` files from writers that died mid-put."""
        objects = Path(self.root) / "objects"
        if not objects.is_dir():
            return []
        cutoff = time.time() - self.STALE_TMP_SECONDS
        stale = []
        for path in sorted(objects.glob("*/*.tmp")):
            try:
                if path.stat().st_mtime < cutoff:
                    stale.append(path)
            except FileNotFoundError:
                continue
        return stale

    def fsck(self, remove: bool = True) -> dict:
        """Integrity sweep: unpickle every entry, flag the broken ones.

        Corrupt or truncated entries (failed unpickle) are removed when
        *remove* is true, so the slots get rewritten on the next miss
        instead of failing every future lookup; stale ``.tmp`` orphans
        (invisible to :meth:`entries` and the size cap) are reclaimed
        the same way.  Returns ``{"scanned", "corrupt", "removed",
        "stale_tmp", "tmp_removed"}``.
        """
        scanned = 0
        corrupt: list[str] = []
        removed = 0
        for path, _, _ in list(self.entries()):
            scanned += 1
            try:
                with open(path, "rb") as fh:
                    pickle.load(fh)
            except FileNotFoundError:  # racing eviction
                continue
            except Exception:
                corrupt.append(str(path))
                if remove:
                    self._unlink_object(path)
                    removed += 1
        stale_tmp = self.stale_tmp_files()
        tmp_removed = 0
        if remove:
            for path in stale_tmp:
                path.unlink(missing_ok=True)
                tmp_removed += 1
        self.stats.evictions += removed
        if removed:
            self._approx_bytes = None
        return {"scanned": scanned, "corrupt": corrupt, "removed": removed,
                "stale_tmp": [str(path) for path in stale_tmp],
                "tmp_removed": tmp_removed}

    def evict(self, max_bytes: int | None = None,
              max_entries: int | None = None) -> int:
        """LRU-evict (oldest mtime first) until both limits hold."""
        entries = sorted(self.entries(), key=lambda item: item[2])
        count = len(entries)
        total = sum(size for _, size, _ in entries)
        removed = 0
        for path, size, _ in entries:
            over_bytes = max_bytes is not None and total > max_bytes
            over_entries = max_entries is not None and count > max_entries
            if not (over_bytes or over_entries):
                break
            self._unlink_object(path)
            total -= size
            count -= 1
            removed += 1
        self.stats.evictions += removed
        self._approx_bytes = total
        return removed

    def gc(self, remove: bool = True, collect_unknown: bool = False) -> dict:
        """Cross-schema garbage collection.

        Evicts entries whose recorded schema version or toolchain
        fingerprint no longer matches the live ``repro`` package — no
        reader built from the current sources can ever address them, so
        they only consume disk.  Entries without a provenance sidecar
        (written before provenance tracking, or racing writers) can't be
        classified — their keys may still be addressable — so they are
        only reported (``unknown``) unless *collect_unknown* opts in.
        ``remove=False`` (the CLI's ``--dry-run``) only reports.
        Returns ``{"scanned", "stale", "unknown", "removed", "kept"}``.
        """
        live_schema = SCHEMA_VERSION
        live_toolchain = toolchain_fingerprint()
        scanned = 0
        stale: list[str] = []
        unknown: list[str] = []
        removed = 0
        for path, _, _ in list(self.entries()):
            scanned += 1
            try:
                meta = json.loads(self._meta_path(path).read_text())
            except (OSError, ValueError):
                meta = None
            if meta is None:
                unknown.append(str(path))
                if not collect_unknown:
                    continue
            elif meta.get("schema") == live_schema and \
                    meta.get("toolchain") == live_toolchain:
                continue
            else:
                stale.append(str(path))
            if remove:
                self._unlink_object(path)
                removed += 1
        self.stats.evictions += removed
        if removed:
            self._approx_bytes = None
        kept = scanned - len(stale) - \
            (len(unknown) if collect_unknown else 0)
        return {"scanned": scanned, "stale": stale, "unknown": unknown,
                "removed": removed, "kept": kept}


def _limit(text: str) -> int:
    """An ``evict`` limit: a count or byte size, never negative (a
    negative limit would evict every entry)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    """``repro-cache`` — inspect and manage the artifact store."""
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Inspect and manage the repro content-addressed "
                    "artifact store.",
    )
    parser.add_argument(
        "--cache-dir",
        help=f"store root (default: ${CACHE_DIR_ENV} or ~/.cache/repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="print store location, entry count, size")
    stats = sub.add_parser(
        "stats", help="entry-count/bytes totals, optionally per stage"
    )
    stats.add_argument(
        "--by-stage", action="store_true",
        help="break entries/bytes/mean-execution-seconds down per "
             "pipeline stage (from the provenance sidecars; pre-stage "
             "entries show as (unknown))",
    )
    sub.add_parser("clear", help="remove every cached artifact")
    evict = sub.add_parser("evict", help="LRU-evict down to the given limits")
    evict.add_argument("--max-bytes", type=_limit, default=None)
    evict.add_argument("--max-entries", type=_limit, default=None)
    fsck = sub.add_parser(
        "fsck", help="detect (and remove) corrupt or truncated entries"
    )
    fsck.add_argument(
        "--keep", action="store_true",
        help="report corrupt entries without removing them",
    )
    gc = sub.add_parser(
        "gc",
        help="evict entries whose schema version or toolchain "
             "fingerprint no longer matches the live package",
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be collected without removing anything",
    )
    gc.add_argument(
        "--collect-unknown", action="store_true",
        help="also collect entries without a provenance sidecar "
             "(kept by default: their keys may still be addressable)",
    )
    args = parser.parse_args(argv)

    store = ArtifactStore(root=args.cache_dir)
    if args.command == "info":
        info = store.info()
        print(f"root:           {info['root']}")
        print(f"schema version: {info['schema_version']}")
        print(f"entries:        {info['entries']}")
        print(f"total bytes:    {info['total_bytes']}")
    elif args.command == "stats":
        info = store.info()
        print(f"root:        {info['root']}")
        print(f"entries:     {info['entries']}")
        print(f"total bytes: {info['total_bytes']}")
        if args.by_stage:
            breakdown = store.by_stage()
            width = max((len(stage) for stage in breakdown), default=5)
            for stage in sorted(breakdown):
                bucket = breakdown[stage]
                mean = bucket.get("mean_seconds")
                samples = bucket.get("timed_entries", 0)
                timing = (f"  {mean:>10.4f} s mean over {samples} sample(s)"
                          if mean is not None else f"  {'-':>10}       ")
                print(f"  {stage:<{width}}  {bucket['entries']:>7} entries"
                      f"  {bucket['bytes']:>12} bytes{timing}")
    elif args.command == "clear":
        print(f"removed {store.clear()} entries from {store.root}")
    elif args.command == "evict":
        if args.max_bytes is None and args.max_entries is None:
            parser.error("evict requires --max-bytes and/or --max-entries")
        removed = store.evict(max_bytes=args.max_bytes,
                              max_entries=args.max_entries)
        print(f"evicted {removed} entries from {store.root}")
    elif args.command == "fsck":
        report = store.fsck(remove=not args.keep)
        for path in report["corrupt"]:
            print(f"corrupt: {path}")
        for path in report["stale_tmp"]:
            print(f"stale tmp: {path}")
        print(
            f"scanned {report['scanned']} entries in {store.root}: "
            f"{len(report['corrupt'])} corrupt, {report['removed']} removed, "
            f"{report['tmp_removed']} stale tmp reclaimed"
        )
        if (report["corrupt"] or report["stale_tmp"]) and args.keep:
            return 1
    elif args.command == "gc":
        report = store.gc(remove=not args.dry_run,
                          collect_unknown=args.collect_unknown)
        for path in report["stale"]:
            print(f"stale: {path}")
        for path in report["unknown"]:
            print(f"no provenance: {path}")
        collectable = len(report["stale"]) + (
            len(report["unknown"]) if args.collect_unknown else 0
        )
        verb = "would collect" if args.dry_run else "collected"
        print(
            f"scanned {report['scanned']} entries in {store.root}: "
            f"{len(report['stale'])} stale, {len(report['unknown'])} "
            f"without provenance; {verb} {collectable}, "
            f"kept {report['kept']}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
