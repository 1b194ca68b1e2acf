"""ArtifactStore: round-trips, key stability, invalidation, eviction."""

import pickle
import time

import pytest

from repro.engine.store import (
    CACHE_DIR_ENV,
    CACHE_MAX_BYTES_ENV,
    ArtifactStore,
    canonical_key,
    default_cache_root,
    main,
    source_fingerprint,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=tmp_path / "cache")


class TestKeys:
    def test_canonical_key_is_order_insensitive(self):
        assert canonical_key({"a": 1, "b": "x"}) == \
            canonical_key({"b": "x", "a": 1})

    def test_canonical_key_is_stable(self):
        # Pinned: changing this recipe must bump SCHEMA_VERSION instead.
        assert canonical_key({"a": 1}) == (
            "015abd7f5cc57a2dd94b7590f04ad8084273905ee33ec5cebeae62276a97f862"
        )

    def test_key_for_varies_with_every_field(self, store):
        base = dict(source_sha=source_fingerprint("int main() {}"),
                    isa="x86", opt_level=0)
        key = store.key_for("compile", **base)
        assert key != store.key_for("run", **base)
        assert key != store.key_for(
            "compile", **{**base, "source_sha": source_fingerprint("x")})
        assert key != store.key_for("compile", **{**base, "isa": "ia64"})
        assert key != store.key_for("compile", **{**base, "opt_level": 2})

    def test_schema_version_invalidates(self, tmp_path):
        v1 = ArtifactStore(root=tmp_path, schema_version=1)
        v2 = ArtifactStore(root=tmp_path, schema_version=2)
        fields = dict(source_sha="s", isa="x86", opt_level=0)
        v1.put(v1.key_for("compile", **fields), "old")
        assert v2.get(v2.key_for("compile", **fields)) is None
        assert v2.stats.misses == 1

    def test_toolchain_fingerprint_invalidates(self, tmp_path):
        ours = ArtifactStore(root=tmp_path)
        other = ArtifactStore(root=tmp_path, toolchain="f" * 64)
        fields = dict(source_sha="s", isa="x86", opt_level=0)
        ours.put(ours.key_for("compile", **fields), "artifact")
        assert other.get(other.key_for("compile", **fields)) is None


class TestRoundTrip:
    def test_put_get(self, store):
        key = store.key_for("compile", source_sha="abc", isa="x86",
                            opt_level=1)
        value = {"binary": list(range(100)), "nested": ("x", 1.5)}
        store.put(key, value)
        assert store.get(key) == value
        assert store.contains(key)
        assert store.stats.puts == 1 and store.stats.hits == 1

    def test_get_missing_counts_miss(self, store):
        assert store.get("0" * 64, default="fallback") == "fallback"
        assert store.stats.misses == 1

    def test_corrupt_entry_is_dropped(self, store):
        key = store.key_for("run", source_sha="abc", isa="x86", opt_level=0)
        store.put(key, [1, 2, 3])
        store.path_for(key).write_bytes(b"\x80corrupt")
        assert store.get(key) is None
        assert not store.contains(key)

    def test_put_is_atomic(self, store):
        key = store.key_for("compile", source_sha="a", isa="x86", opt_level=0)
        store.put(key, "v1")
        store.put(key, "v2")
        assert store.get(key) == "v2"
        leftovers = list(store.path_for(key).parent.glob("*.tmp"))
        assert leftovers == []

    def test_delete(self, store):
        key = store.key_for("compile", source_sha="a", isa="x86", opt_level=0)
        store.put(key, 1)
        assert store.delete(key)
        assert not store.delete(key)


class TestMaintenance:
    def _fill(self, store, n):
        keys = []
        for i in range(n):
            key = store.key_for("compile", source_sha=f"s{i}", isa="x86",
                                opt_level=0)
            store.put(key, b"x" * 100)
            keys.append(key)
        return keys

    def test_info(self, store):
        self._fill(store, 3)
        info = store.info()
        assert info["entries"] == 3
        assert info["total_bytes"] > 0
        assert info["root"] == str(store.root)

    def test_clear(self, store):
        self._fill(store, 4)
        assert store.clear() == 4
        assert store.info()["entries"] == 0
        assert store.stats.evictions == 4

    def test_evict_lru_by_entries(self, store):
        keys = self._fill(store, 4)
        # Make the first entry oldest deterministically.
        import os
        old = time.time() - 1000
        os.utime(store.path_for(keys[0]), (old, old))
        assert store.evict(max_entries=3) == 1
        assert not store.contains(keys[0])
        assert all(store.contains(k) for k in keys[1:])

    def test_get_refreshes_lru_position(self, store):
        import os
        keys = self._fill(store, 2)
        old = time.time() - 1000
        for key in keys:
            os.utime(store.path_for(key), (old, old))
        store.get(keys[0])  # read rescues keys[0] from eviction
        assert store.evict(max_entries=1) == 1
        assert store.contains(keys[0])
        assert not store.contains(keys[1])

    def test_evict_by_bytes(self, store):
        self._fill(store, 4)
        total = store.info()["total_bytes"]
        removed = store.evict(max_bytes=total // 2)
        assert removed >= 2
        assert store.info()["total_bytes"] <= total // 2


class TestSyncing:
    def _put(self, store, tag, value):
        key = store.key_for("compile", source_sha=tag, isa="x86",
                            opt_level=0)
        store.put(key, value)
        return key

    def test_export_import_round_trip(self, store, tmp_path):
        keys = [self._put(store, f"s{i}", f"v{i}") for i in range(3)]
        assert store.export_keys(keys, tmp_path / "export") == 3

        other = ArtifactStore(root=tmp_path / "other")
        assert other.import_keys(tmp_path / "export") == 3
        assert other.stats.puts == 3
        for i, key in enumerate(keys):
            assert other.get(key) == f"v{i}"

    def test_export_skips_missing_keys(self, store, tmp_path):
        key = self._put(store, "s", "v")
        assert store.export_keys([key, "0" * 64], tmp_path / "export") == 1

    def test_import_selected_keys_only(self, store, tmp_path):
        keys = [self._put(store, f"s{i}", i) for i in range(3)]
        other = ArtifactStore(root=tmp_path / "other")
        # A whole store root is itself a valid import source.
        assert other.import_keys(store.root, keys=keys[:1]) == 1
        assert other.contains(keys[0])
        assert not other.contains(keys[1])

    def test_import_from_empty_source(self, store, tmp_path):
        assert store.import_keys(tmp_path / "nothing-here") == 0

    def test_import_carries_provenance(self, store, tmp_path):
        """gc on the receiving store must still see who wrote what."""
        key = self._put(store, "s", "v")
        other = ArtifactStore(root=tmp_path / "other")
        other.import_keys(store.root)
        assert other.gc(remove=False)["stale"] == []
        assert other.gc(remove=False)["unknown"] == []


class TestGc:
    def _fill(self, store, count=2):
        keys = []
        for i in range(count):
            key = store.key_for("compile", source_sha=f"s{i}", isa="x86",
                                opt_level=0)
            store.put(key, i)
            keys.append(key)
        return keys

    def test_keeps_live_entries(self, store):
        self._fill(store, 3)
        report = store.gc()
        assert report == {"scanned": 3, "stale": [], "unknown": [],
                          "removed": 0, "kept": 3}

    def test_collects_foreign_toolchain(self, tmp_path):
        old = ArtifactStore(root=tmp_path, toolchain="f" * 64)
        stale_keys = self._fill(old, 2)
        live = ArtifactStore(root=tmp_path)
        live_keys = self._fill(live, 1)

        report = live.gc()
        assert len(report["stale"]) == 2
        assert report["removed"] == 2
        assert live.stats.evictions == 2
        assert all(not live.contains(k) for k in stale_keys)
        assert all(live.contains(k) for k in live_keys)

    def test_collects_foreign_schema(self, tmp_path):
        old = ArtifactStore(root=tmp_path, schema_version=0)
        self._fill(old, 1)
        live = ArtifactStore(root=tmp_path)
        report = live.gc()
        assert len(report["stale"]) == 1 and report["removed"] == 1

    def test_keeps_entries_without_provenance_by_default(self, store):
        # Sidecar-less entries may still be addressable (their keys
        # don't depend on the sidecar): report them, don't delete them.
        keys = self._fill(store, 1)
        store._meta_path(store.path_for(keys[0])).unlink()
        report = store.gc()
        assert report["unknown"] == [str(store.path_for(keys[0]))]
        assert report["removed"] == 0
        assert store.contains(keys[0])

    def test_collect_unknown_opts_in(self, store):
        keys = self._fill(store, 1)
        store._meta_path(store.path_for(keys[0])).unlink()
        report = store.gc(collect_unknown=True)
        assert report["removed"] == 1
        assert not store.contains(keys[0])

    def test_dry_run_removes_nothing(self, tmp_path):
        old = ArtifactStore(root=tmp_path, toolchain="f" * 64)
        keys = self._fill(old, 2)
        live = ArtifactStore(root=tmp_path)
        report = live.gc(remove=False)
        assert len(report["stale"]) == 2 and report["removed"] == 0
        assert all(live.contains(k) for k in keys)

    def test_delete_drops_provenance_sidecar(self, store):
        keys = self._fill(store, 1)
        path = store.path_for(keys[0])
        assert store._meta_path(path).exists()
        store.delete(keys[0])
        assert not store._meta_path(path).exists()

    def test_gc_cli(self, tmp_path, capsys):
        old = ArtifactStore(root=tmp_path, toolchain="f" * 64)
        self._fill(old, 2)
        ArtifactStore(root=tmp_path).put(
            ArtifactStore(root=tmp_path).key_for(
                "compile", source_sha="live", isa="x86", opt_level=0), 1)

        assert main(["--cache-dir", str(tmp_path), "gc", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would collect 2" in out and "kept 1" in out

        assert main(["--cache-dir", str(tmp_path), "gc"]) == 0
        assert "collected 2, kept 1" in capsys.readouterr().out

        assert main(["--cache-dir", str(tmp_path), "gc"]) == 0
        assert "collected 0, kept 1" in capsys.readouterr().out


class TestRootResolution:
    def test_env_var_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "via-env"))
        assert default_cache_root() == tmp_path / "via-env"
        assert ArtifactStore().root == tmp_path / "via-env"

    def test_explicit_root_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "via-env"))
        assert ArtifactStore(root=tmp_path / "api").root == tmp_path / "api"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_root() == tmp_path / "xdg" / "repro"


class TestByStage:
    def _seed(self, store):
        store.put(store.key_for("compile", source_sha="a"), b"x" * 100,
                  stage="compile")
        store.put(store.key_for("compile", source_sha="b"), b"x" * 100,
                  stage="compile")
        store.put(store.key_for("replay", source_sha="a", machine="m"),
                  b"y" * 10, stage="replay")
        store.put(store.key_for("misc", source_sha="c"), b"z")  # no stage

    def test_breakdown_counts_entries_and_bytes(self, store):
        self._seed(store)
        breakdown = store.by_stage()
        assert set(breakdown) == {"compile", "replay", "(unknown)"}
        assert breakdown["compile"]["entries"] == 2
        assert breakdown["replay"]["entries"] == 1
        assert breakdown["(unknown)"]["entries"] == 1
        assert breakdown["compile"]["bytes"] > breakdown["replay"]["bytes"]

    def test_sidecarless_entries_group_as_unknown(self, store):
        key = store.key_for("compile", source_sha="a")
        store.put(key, 1, stage="compile")
        store._meta_path(store.path_for(key)).unlink()
        assert store.by_stage() == {
            "(unknown)": {"entries": 1,
                          "bytes": store.path_for(key).stat().st_size,
                          "mean_seconds": None,
                          "timed_entries": 0}
        }

    def test_stage_survives_export_import(self, store, tmp_path):
        key = store.key_for("replay", source_sha="a", machine="m")
        store.put(key, 7, stage="replay")
        store.export_keys([key], tmp_path / "exported")
        other = ArtifactStore(root=tmp_path / "other")
        other.import_keys(tmp_path / "exported")
        assert other.by_stage() == {
            "replay": {"entries": 1,
                       "bytes": other.path_for(key).stat().st_size,
                       "mean_seconds": None,
                       "timed_entries": 0}
        }

    def test_stats_cli_by_stage(self, store, capsys):
        self._seed(store)
        assert main(["--cache-dir", str(store.root), "stats",
                     "--by-stage"]) == 0
        out = capsys.readouterr().out
        assert "entries:     4" in out
        assert "compile" in out and "replay" in out and "(unknown)" in out

    def test_breakdown_counts_timed_entries(self, store):
        store.put(store.key_for("compile", source_sha="a"), 1,
                  stage="compile", seconds=0.25)
        store.put(store.key_for("compile", source_sha="b"), 2,
                  stage="compile", seconds=0.75)
        store.put(store.key_for("compile", source_sha="c"), 3,
                  stage="compile")  # untimed
        bucket = store.by_stage()["compile"]
        assert bucket["entries"] == 3
        assert bucket["timed_entries"] == 2
        assert bucket["mean_seconds"] == pytest.approx(0.5)

    def test_stats_cli_by_stage_prints_sample_counts(self, store, capsys):
        store.put(store.key_for("replay", source_sha="a", machine="m"),
                  1, stage="replay", seconds=0.5)
        store.put(store.key_for("replay", source_sha="b", machine="m"),
                  2, stage="replay", seconds=1.5)
        assert main(["--cache-dir", str(store.root), "stats",
                     "--by-stage"]) == 0
        out = capsys.readouterr().out
        assert "mean over 2 sample(s)" in out

    def test_stats_cli_totals_only(self, store, capsys):
        self._seed(store)
        assert main(["--cache-dir", str(store.root), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:     4" in out
        assert "compile" not in out


class TestCli:
    def test_info_and_clear(self, tmp_path, capsys):
        store = ArtifactStore(root=tmp_path)
        store.put(store.key_for("compile", source_sha="s", isa="x86",
                                opt_level=0), 42)
        assert main(["--cache-dir", str(tmp_path), "info"]) == 0
        out = capsys.readouterr().out
        assert "entries:        1" in out
        assert main(["--cache-dir", str(tmp_path), "clear"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_evict_requires_limit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--cache-dir", str(tmp_path), "evict"])

    @pytest.mark.parametrize("flag", ["--max-entries", "--max-bytes"])
    def test_evict_rejects_negative_limit(self, tmp_path, capsys, flag):
        """A negative limit is a usage error, not "evict everything"."""
        store = ArtifactStore(root=tmp_path)
        store.put(store.key_for("compile", source_sha="s", isa="x86",
                                opt_level=0), 42)
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", str(tmp_path), "evict", flag, "-1"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err
        assert store.info()["entries"] == 1

    def test_evict_cli(self, tmp_path, capsys):
        store = ArtifactStore(root=tmp_path)
        for i in range(3):
            store.put(store.key_for("compile", source_sha=f"s{i}",
                                    isa="x86", opt_level=0), i)
        assert main(["--cache-dir", str(tmp_path), "evict",
                     "--max-entries", "1"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out

    def test_artifacts_survive_pickle_protocol(self, store):
        # Stored values are plain pickles readable by any same-env process.
        key = store.key_for("profile", source_sha="s", ref_isa="x86",
                            ref_opt=0)
        store.put(key, {"mix": {"load": 0.3}})
        raw = store.path_for(key).read_bytes()
        assert pickle.loads(raw) == {"mix": {"load": 0.3}}


class TestLifecycle:
    def _fill(self, store, count=4, blob=1000):
        keys = []
        for i in range(count):
            key = store.key_for("compile", source_sha=f"s{i}", isa="x86",
                                opt_level=0)
            store.put(key, "x" * blob)
            keys.append(key)
            time.sleep(0.01)  # distinct mtimes for LRU order
        return keys

    def test_put_auto_evicts_past_max_bytes(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "capped")
        keys = self._fill(store, count=3)
        total = sum(size for _, size, _ in store.entries())
        store.max_bytes = total  # room for ~3 entries, no more
        extra = store.key_for("compile", source_sha="s-new", isa="x86",
                              opt_level=0)
        store.put(extra, "y" * 1000)
        assert sum(size for _, size, _ in store.entries()) <= total
        assert store.stats.evictions >= 1
        # LRU: the oldest entry went first; the new one survived.
        assert not store.contains(keys[0])
        assert store.contains(extra)

    def test_max_bytes_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "12345")
        assert ArtifactStore(root=tmp_path).max_bytes == 12345
        monkeypatch.delenv(CACHE_MAX_BYTES_ENV)
        assert ArtifactStore(root=tmp_path).max_bytes is None

    def test_unbounded_store_never_auto_evicts(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        self._fill(store, count=3)
        assert store.stats.evictions == 0
        assert store.info()["entries"] == 3

    def test_fsck_detects_and_removes_corruption(self, store):
        keys = self._fill(store, count=3)
        victim = store.path_for(keys[1])
        victim.write_bytes(b"\x80\x05 truncated garbage")
        report = store.fsck(remove=False)
        assert report["scanned"] == 3
        assert report["corrupt"] == [str(victim)]
        assert report["removed"] == 0
        assert victim.exists()

        report = store.fsck()
        assert report["removed"] == 1
        assert not victim.exists()
        # Healthy entries survive and still load.
        assert store.get(keys[0]) == "x" * 1000

    def test_fsck_clean_store(self, store):
        self._fill(store, count=2)
        report = store.fsck()
        assert report == {"scanned": 2, "corrupt": [], "removed": 0,
                          "stale_tmp": [], "tmp_removed": 0}

    def test_fsck_reclaims_orphaned_tmp_files(self, store):
        import os
        keys = self._fill(store, count=1)
        bucket = store.path_for(keys[0]).parent
        stale = bucket / "deadbeef.tmp"
        stale.write_bytes(b"half-written")
        old = time.time() - store.STALE_TMP_SECONDS - 10
        os.utime(stale, (old, old))
        fresh = bucket / "inflight.tmp"
        fresh.write_bytes(b"racing writer")  # current mtime: kept

        report = store.fsck(remove=False)
        assert report["stale_tmp"] == [str(stale)]
        assert stale.exists()

        report = store.fsck()
        assert report["tmp_removed"] == 1
        assert not stale.exists()
        assert fresh.exists()

    def test_clear_removes_tmp_leftovers(self, store):
        keys = self._fill(store, count=1)
        leftover = store.path_for(keys[0]).parent / "orphan.tmp"
        leftover.write_bytes(b"junk")
        store.clear()
        assert not leftover.exists()

    def test_fsck_cli(self, tmp_path, capsys):
        store = ArtifactStore(root=tmp_path)
        keys = self._fill(store, count=2)
        store.path_for(keys[0]).write_bytes(b"bad")
        assert main(["--cache-dir", str(tmp_path), "fsck", "--keep"]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt, 0 removed" in out
        assert main(["--cache-dir", str(tmp_path), "fsck"]) == 0
        assert "1 corrupt, 1 removed" in capsys.readouterr().out
        assert main(["--cache-dir", str(tmp_path), "fsck"]) == 0
        assert "0 corrupt" in capsys.readouterr().out


class TestConcurrentAccess:
    """Two handles over one root — the daemon + CLI sharing a cache."""

    def test_racing_puts_of_same_key_never_tear(self, tmp_path):
        import json
        import threading
        from concurrent.futures import ThreadPoolExecutor

        writers = [ArtifactStore(root=tmp_path, toolchain="t" * 64)
                   for _ in range(4)]
        key = writers[0].key_for("compile", source_sha="s", isa="x86",
                                 opt_level=0)
        payload = {"binary": "b" * 4096}
        barrier = threading.Barrier(4)

        def put(store):
            barrier.wait(5.0)
            for _ in range(25):
                store.put(key, payload, stage="compile", seconds=0.25)

        with ThreadPoolExecutor(4) as pool:
            list(pool.map(put, writers))

        # Atomic replace: the object and its sidecar are both complete.
        reader = ArtifactStore(root=tmp_path, toolchain="t" * 64)
        assert reader.get(key) == payload
        meta = json.loads(
            reader._meta_path(reader.path_for(key)).read_text())
        assert meta["stage"] == "compile"
        assert meta["seconds"] == 0.25

    def test_hit_accounting_is_per_handle(self, tmp_path):
        first = ArtifactStore(root=tmp_path, toolchain="t" * 64)
        second = ArtifactStore(root=tmp_path, toolchain="t" * 64)
        key = first.key_for("run", source_sha="s", isa="x86", opt_level=0)
        first.put(key, "trace")
        assert second.get(key) == "trace"
        assert second.stats.hits == 1 and second.stats.misses == 0
        assert first.stats.hits == 0 and first.stats.puts == 1

    def test_interleaved_engines_share_artifacts(self, tmp_path):
        from repro.engine.api import Engine
        from repro.workloads import WORKLOADS

        workload = list(WORKLOADS)[0]
        one = Engine(store=ArtifactStore(root=tmp_path))
        two = Engine(store=ArtifactStore(root=tmp_path))
        one.original_trace(workload, "small")
        misses_before = two.store.stats.misses
        two.original_trace(workload, "small")
        # The second engine resolves everything from the first's
        # persisted artifacts: hits only, no new misses.
        assert two.store.stats.misses == misses_before
        assert two.store.stats.hits >= 1

    def test_concurrent_engines_one_store_no_duplicate_state(self,
                                                             tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        from repro.engine.api import Engine
        from repro.workloads import WORKLOADS

        workload = list(WORKLOADS)[0]
        shared = ArtifactStore(root=tmp_path)
        engines = [Engine(store=shared) for _ in range(3)]

        with ThreadPoolExecutor(3) as pool:
            traces = list(pool.map(
                lambda engine: engine.original_trace(workload, "small"),
                engines))

        counts = {str(trace.instructions) for trace in traces}
        assert len(counts) == 1, "every engine read the same trace"
        # Whatever the interleaving, the store never recorded a failed
        # read (torn write) — every get was a clean hit or miss.
        stats = shared.stats.as_dict()
        assert stats["hits"] + stats["misses"] >= 2
