"""A generated workload through the full pipeline, on every backend.

The tentpole contract of the synthetic workload generator: a
``synth:`` pair is indistinguishable from a builtin pair to the
engine — same 7-stage graph, byte-identical store artifacts on all
four backends, recipe persisted to the store as a side effect, and
per-workload metrics accounted identically everywhere.
"""

import hashlib

from repro.engine.api import Engine
from repro.obs.metrics import MetricsRegistry
from repro.workloads.synth import SynthRecipe, stored_recipe

BACKENDS = ("inline", "process", "shard", "auto")

#: Tiny on purpose: the properties under test are structural, not
#: statistical — one small recipe keeps four cold pipelines fast.
RECIPE = SynthRecipe(seed=5, mix="int", footprint=64, depth=1, trip=3,
                     entropy=20, calls=1)
PAIR = (RECIPE.name, "small")


def _store_digests(store) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path, _, _ in store.entries()
    }


class TestSynthAcrossBackends:
    def test_identical_store_artifacts_on_all_backends(self, tmp_path):
        """Every backend persists the same artifact set for a synth
        pair: identical content-address key sets everywhere, and
        byte-identical payloads on the backends that compute whole
        dependency chains in one process (inline/shard).  The
        process-pool backends rebuild stage inputs by unpickling, which
        perturbs object-identity sharing inside the payload pickles by
        a few memo refs (same for builtin workloads), so for those the
        equivalence check is the semantic one below."""
        digests = {}
        for backend in BACKENDS:
            engine = Engine(cache_dir=tmp_path / backend, workers=2,
                            backend=backend)
            nodes = engine.warm((PAIR,), (("x86", 0),))
            assert nodes > 0
            digests[backend] = _store_digests(engine.store)
        baseline = digests["inline"]
        assert baseline  # the pipeline actually persisted artifacts
        for backend in BACKENDS:
            assert set(digests[backend]) == set(baseline), backend
        assert digests["shard"] == baseline

    def test_identical_terminal_results_on_all_backends(self, tmp_path):
        traces = {}
        for backend in BACKENDS:
            engine = Engine(cache_dir=tmp_path / backend, workers=2,
                            backend=backend)
            engine.warm((PAIR,), (("x86", 0),))
            org = engine.original_trace(*PAIR)
            syn = engine.synthetic_trace(*PAIR)
            traces[backend] = (org.instructions, org.output,
                               syn.instructions, syn.output)
        for backend in BACKENDS:
            assert traces[backend] == traces["inline"], backend

    def test_warm_resweep_does_zero_work(self, tmp_path):
        engine = Engine(cache_dir=tmp_path, workers=2)
        engine.warm((PAIR,), (("x86", 0),))

        rewarm = Engine(cache_dir=tmp_path, workers=2)
        rewarm.warm((PAIR,), (("x86", 0),))
        assert rewarm.stats.misses == 0 and rewarm.stats.puts == 0

    def test_workload_metrics_identical_across_backends(self, tmp_path):
        snapshots = {}
        for backend in BACKENDS:
            metrics = MetricsRegistry()
            engine = Engine(cache_dir=tmp_path / backend, workers=2,
                            backend=backend, metrics=metrics)
            engine.warm((PAIR, ("crc32", "small")), (("x86", 0),))
            snapshots[backend] = metrics.snapshot(include_volatile=False)
        baseline = {e["name"]: e for e in snapshots["inline"]["metrics"]}
        per_workload = baseline["engine_workload_stages"]["data"]["values"]
        assert set(per_workload) == {RECIPE.name, "crc32"}
        for backend in BACKENDS:
            assert snapshots[backend] == snapshots["inline"], backend


class TestRecipePersistence:
    def test_engine_persists_recipe_sidecar(self, tmp_path):
        """Resolving a synth workload through the engine records the
        recipe in the artifact store — a queryable provenance record
        even though the name alone is sufficient to regenerate."""
        engine = Engine(cache_dir=tmp_path)
        engine.source(*PAIR)
        assert stored_recipe(engine.store, RECIPE.fingerprint()) == RECIPE

    def test_warm_persists_recipe_sidecar(self, tmp_path):
        engine = Engine(cache_dir=tmp_path, workers=2)
        engine.warm((PAIR,), (("x86", 0),))
        assert stored_recipe(engine.store, RECIPE.fingerprint()) == RECIPE
