"""repro.engine.backends — pluggable execution backends.

The scheduler delegates *where* stages run to an
:class:`ExecutionBackend`; four ship in-tree:

========= ============================================================
name      execution model
========= ============================================================
inline    synchronous, deterministic sorted-ready order (workers=1)
process   multiprocessing pool, worker-side persistence (historical
          ``workers>1`` behavior)
shard     dependency-closed shards in isolated
          ``python -m repro.engine.shard`` subprocesses, each with a
          private store, merged via export_keys/import_keys
auto      cost-aware composite: per-stage compute estimates
          (``tasks.STAGE_COSTS``) vs process-pool ``dispatch_cost``
          route cheap replays to its own thread pool, heavy compiles
          to processes
========= ============================================================

Select with ``--backend NAME`` on the CLIs, the ``REPRO_BACKEND``
environment variable, or ``Engine(backend=...)``; third-party backends
subclass :class:`ExecutionBackend` and call :func:`register_backend`.
Backends only ever see the nodes the scheduler's probe pass left
pending — cache hits and memo entries are resolved before dispatch.
"""

from repro.engine.backends.base import (
    BACKEND_ENV,
    ExecutionBackend,
    ExecutionContext,
    backend_names,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.engine.backends.local import (
    InlineBackend,
    ProcessPoolBackend,
)
from repro.engine.backends.auto import AutoBackend
from repro.engine.backends.shard import (
    ShardError,
    SubprocessShardBackend,
    balance_shards,
    partition_components,
)

__all__ = [
    "AutoBackend",
    "BACKEND_ENV",
    "ExecutionBackend",
    "ExecutionContext",
    "InlineBackend",
    "ProcessPoolBackend",
    "ShardError",
    "SubprocessShardBackend",
    "backend_names",
    "balance_shards",
    "default_backend_name",
    "get_backend",
    "partition_components",
    "register_backend",
    "resolve_backend",
]
