"""repro.engine — parallel experiment engine with a persistent store.

Three pieces:

* :mod:`repro.engine.store` — content-addressed on-disk artifact cache
  (``~/.cache/repro`` by default, ``REPRO_CACHE_DIR`` to relocate,
  ``repro-cache`` CLI to inspect/clear);
* :mod:`repro.engine.tasks` / :mod:`repro.engine.scheduler` — the
  paper's pipeline as a DAG of pure stages plus a topological scheduler
  that drives a pluggable execution backend;
* :mod:`repro.engine.backends` — where stages run: ``inline``,
  ``process``, ``shard`` (isolated subprocess shards synced through
  the store), or ``auto`` (cost-routed composite:
  cheap replays to threads, heavy compiles to processes), selected via
  ``--backend`` / ``REPRO_BACKEND`` / ``Engine(backend=...)``;
* :mod:`repro.engine.api` — the :class:`Engine` facade that
  ``ExperimentRunner`` and the report/benchmark harnesses delegate to.
"""

from repro.engine.api import DEFAULT_TARGET_INSTRUCTIONS, Engine
from repro.engine.backends import (
    AutoBackend,
    BACKEND_ENV,
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    SubprocessShardBackend,
    backend_names,
    register_backend,
    resolve_backend,
)
from repro.engine.scheduler import GraphError, run_graph, topological_order
from repro.engine.store import (
    CACHE_DIR_ENV,
    SCHEMA_VERSION,
    ArtifactStore,
    StoreStats,
    canonical_key,
    default_cache_root,
    source_fingerprint,
)
from repro.engine.tasks import Task, build_pipeline_graph

__all__ = [
    "ArtifactStore",
    "AutoBackend",
    "BACKEND_ENV",
    "CACHE_DIR_ENV",
    "DEFAULT_TARGET_INSTRUCTIONS",
    "Engine",
    "ExecutionBackend",
    "GraphError",
    "InlineBackend",
    "ProcessPoolBackend",
    "SCHEMA_VERSION",
    "StoreStats",
    "SubprocessShardBackend",
    "Task",
    "backend_names",
    "build_pipeline_graph",
    "canonical_key",
    "default_cache_root",
    "register_backend",
    "resolve_backend",
    "run_graph",
    "source_fingerprint",
    "topological_order",
]
