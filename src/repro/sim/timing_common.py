"""Shared machinery for the trace-driven timing models.

This module is the **replay core** every cycle model builds on:

* :class:`TimingConfig` / :class:`TimingResult` — the microarchitecture
  parameter block and the replay outcome (moved here so the in-order and
  out-of-order models, :mod:`repro.sim.machines`, and the engine's
  replay stage all share one definition);
* :func:`decode_binary` — precomputes, for every static instruction,
  the register keys it reads/writes, its latency class and its memory
  behaviour, packaged as a :class:`DecodedBinary` so the cycle models
  touch only small tuples in their hot loops.  Decodes are cached in a
  module-level weak map keyed by the binary object, so replaying one
  binary on N machine configurations decodes once, not N times — for
  direct :meth:`Machine.simulate` calls just as much as for
  engine-routed replay tasks;
* :class:`TimingModel` — the shared session scaffolding (cache
  hierarchy, branch predictor, result assembly).  Subclasses implement
  only the hot ``replay(trace, decoded)`` loop.

Register keys: integer registers are their index; float registers are
``1000 + index`` (the two files never collide).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.isa.machine import Binary, MOp
from repro.sim.branch import HybridPredictor
from repro.sim.cache import Cache, CacheConfig

# Latency classes (cycles) for a contemporary out-of-order core; loads get
# their latency from the cache model instead.
DEFAULT_LATENCIES = {
    "ialu": 1,
    "imul": 3,
    "idiv": 20,
    "falu": 3,
    "fmul": 5,
    "fdiv": 20,
    "fmath": 25,
    "store": 1,
    "branch": 1,
    "jump": 1,
    "call": 2,
    "ret": 2,
    "print": 10,
    "other": 1,
    "load": 0,  # resolved by the cache model
}


@dataclass
class TimingConfig:
    """Microarchitecture parameters for the cycle models."""

    width: int = 2
    rob_size: int = 64
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(8 * 1024, 32, 4))
    l2: CacheConfig | None = field(default_factory=lambda: CacheConfig(1024 * 1024, 32, 8))
    l1_hit_cycles: int = 3
    l2_hit_cycles: int = 14
    memory_cycles: int = 120
    mispredict_penalty: int = 12
    predictor_entries: int = 4096
    latencies: dict = field(default_factory=lambda: dict(DEFAULT_LATENCIES))


@dataclass
class TimingResult:
    """Cycle count plus the side statistics the figures report.

    ``mem_lat_hist`` / ``branch_run_hist`` carry exp-histogram
    snapshots (:meth:`repro.obs.metrics.ExpHistogram.snapshot_data`) of
    per-access memory latencies and correct-prediction run lengths —
    the distributions fidelity scoring compares between clone and
    original beyond scalar CPI/miss rates.  ``None`` on results from
    models that don't record them.
    """

    cycles: int
    instructions: int
    l1_hits: int
    l1_misses: int
    branch_hits: int
    branch_misses: int
    mem_lat_hist: dict | None = None
    branch_run_hist: dict | None = None

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 1.0

    @property
    def branch_accuracy(self) -> float:
        total = self.branch_hits + self.branch_misses
        return self.branch_hits / total if total else 1.0


_FLOAT_A_OPS = {
    "fst", "fmov", "fneg", "ftoi", "sqrt", "sin", "cos", "log", "exp",
    "fabs", "floor",
}
_FLOAT_BINOPS_PREFIX = "f"


@dataclass(frozen=True)
class DecodedOp:
    """Timing-relevant view of one static instruction."""

    srcs: tuple[int, ...]
    dst: int  # register key, or -1
    klass: str
    is_mem: bool
    is_store: bool
    is_cond_branch: bool
    is_call_or_ret: bool
    uid: int


def _float_key(reg: int) -> int:
    return 1000 + reg


def _addr_src_keys(ins: MOp) -> list[int]:
    keys: list[int] = []
    if ins.addr is None:
        return keys
    mode, base, idx, _off = ins.addr
    if mode == 2:  # REG base
        keys.append(base)
    if idx is not None:
        keys.append(idx)
    return keys


def decode_instruction(ins: MOp) -> DecodedOp:
    """Extract dependency and latency info from one instruction."""
    op = ins.op
    klass = ins.klass
    srcs: list[int] = _addr_src_keys(ins)
    dst = -1
    float_op = op.startswith(_FLOAT_BINOPS_PREFIX) or op in (
        "sqrt", "sin", "cos", "log", "exp", "lif",
    )
    if op in ("ld",):
        dst = ins.dst
    elif op == "fld":
        dst = _float_key(ins.dst)
    elif op in ("st",):
        if ins.a is not None:
            srcs.append(ins.a)
    elif op == "fst":
        if ins.a is not None:
            srcs.append(_float_key(ins.a))
    elif op in ("li", "lea"):
        dst = ins.dst
    elif op == "lif":
        dst = _float_key(ins.dst)
    elif op in ("itof", "utof"):
        if ins.a is not None:
            srcs.append(ins.a)
        dst = _float_key(ins.dst)
    elif op == "ftoi":
        if ins.a is not None:
            srcs.append(_float_key(ins.a))
        dst = ins.dst
    elif op in _FLOAT_A_OPS or (float_op and klass in ("falu", "fmul", "fdiv", "fmath")):
        # Float ALU: a and b are float regs; dst float unless comparison.
        if ins.a is not None:
            srcs.append(_float_key(ins.a))
        if ins.b_reg is not None:
            srcs.append(_float_key(ins.b_reg))
        if ins.dst is not None:
            dst = ins.dst if "cmp" in op else _float_key(ins.dst)
    elif op == "farg":
        if ins.a is not None:
            srcs.append(_float_key(ins.a))
    elif op == "print":
        pass  # arguments are staged by the preceding arg/farg ops
    elif op == "ret":
        if ins.a is not None:
            srcs.append(ins.a)
        if ins.b_reg is not None:
            srcs.append(_float_key(ins.b_reg))
    elif op == "call":
        dst = -1  # return-value latency handled by the callee's ret
    else:
        # Integer ALU / branches / moves / arg.
        if ins.a is not None:
            srcs.append(ins.a)
        if ins.b_reg is not None:
            srcs.append(ins.b_reg)
        if ins.dst is not None and op not in ("bt", "bf", "jmp"):
            dst = ins.dst
    return DecodedOp(
        srcs=tuple(srcs),
        dst=dst,
        klass=klass,
        is_mem=ins.is_memory,
        is_store=ins.is_store,
        is_cond_branch=op in ("bt", "bf"),
        is_call_or_ret=op in ("call", "ret"),
        uid=ins.uid,
    )


@dataclass(frozen=True)
class DecodedBinary:
    """Per-gbid decoded instructions — the reusable replay-input artifact.

    Indexing by global block id returns that block's decoded ops, so the
    cycle models' hot loops are unchanged from the raw-list days.
    """

    blocks: tuple[tuple[DecodedOp, ...], ...]

    def __getitem__(self, gbid: int) -> tuple[DecodedOp, ...]:
        return self.blocks[gbid]

    def __len__(self) -> int:
        return len(self.blocks)


# Binary objects are unhashable (mutable dataclass), so the weak cache
# keys on id() and guards against id reuse by checking the weakref still
# points at the same object; the finalizer drops dead entries.
_DECODE_CACHE: dict[int, tuple[weakref.ref, DecodedBinary]] = {}


def decode_binary(binary: Binary) -> DecodedBinary:
    """Decode *binary* once per live object (module-level weak cache).

    Every caller — direct ``Machine.simulate``, the engine's replay
    stage, N machine-points sweeping one trace — shares the same decode,
    and nothing is pinned: entries die with their binary.
    """
    key = id(binary)
    entry = _DECODE_CACHE.get(key)
    if entry is not None and entry[0]() is binary:
        return entry[1]
    decoded = DecodedBinary(tuple(
        tuple(decode_instruction(ins) for ins in
              binary.functions[func_idx].blocks[blk_idx].instrs)
        for func_idx, blk_idx in binary.block_map
    ))
    try:
        ref = weakref.ref(binary,
                          lambda _r, _k=key: _DECODE_CACHE.pop(_k, None))
    except TypeError:  # pragma: no cover - Binary is always weakref-able
        return decoded
    _DECODE_CACHE[key] = (ref, decoded)
    return decoded


def decode_cache_size() -> int:
    """Number of live entries in the decode cache (observability/tests)."""
    return len(_DECODE_CACHE)


class TimingModel:
    """Shared replay core for the trace-driven cycle models.

    Owns everything the models have in common — configuration, the
    cache hierarchy and branch predictor session state, decode lookup,
    and result assembly.  Subclasses implement :meth:`replay`, the hot
    per-instruction loop, against an explicit :class:`DecodedBinary`
    (so callers holding a cached decode skip even the cache probe).
    """

    #: Set by subclasses the batched kernels understand ("inorder" /
    #: "ooo"); models that leave it unset always replay in python.
    kernel_kind: str | None = None

    def __init__(self, config: TimingConfig | None = None):
        self.config = config or TimingConfig()

    def simulate(self, trace) -> TimingResult:
        """Replay *trace*: on the batched kernel for the models it
        understands, else on :meth:`replay`.  Both give pickle-equal
        results."""
        decoded = decode_binary(trace.binary)
        if self.kernel_kind is not None:
            from repro.sim import kernels  # deferred: kernels imports this module

            return kernels.replay_trace(self, trace, decoded)
        return self.replay(trace, decoded)

    def replay(self, trace, decoded: DecodedBinary) -> TimingResult:
        raise NotImplementedError

    # -- shared session state ----------------------------------------------

    def _session(self) -> tuple[Cache, Cache | None, HybridPredictor]:
        """Fresh (l1, l2, predictor) for one replay."""
        config = self.config
        l1 = Cache(config.l1)
        l2 = Cache(config.l2) if config.l2 is not None else None
        predictor = HybridPredictor(config.predictor_entries)
        return l1, l2, predictor

    @staticmethod
    def _result(cycles: int, instructions: int, l1: Cache,
                branch_hits: int, branch_misses: int,
                predictor: HybridPredictor | None = None) -> TimingResult:
        mem_hist = (l1.latency_hist.snapshot_data()
                    if l1.latency_hist.count else None)
        branch_hist = None
        if predictor is not None:
            predictor.finalize_runs()
            if predictor.run_hist.count:
                branch_hist = predictor.run_hist.snapshot_data()
        return TimingResult(
            cycles=cycles,
            instructions=instructions,
            l1_hits=l1.hits,
            l1_misses=l1.misses,
            branch_hits=branch_hits,
            branch_misses=branch_misses,
            mem_lat_hist=mem_hist,
            branch_run_hist=branch_hist,
        )
