"""Batched replay kernels: the numpy-accelerated timing-replay engine.

The per-instruction loops in :mod:`repro.sim.inorder` /
:mod:`repro.sim.ooo` are the hot path every replay pays (ROADMAP:
"Compiled replay kernels").  This module replays the same traces
**byte-identically** — every :class:`~repro.sim.timing_common.TimingResult`
field, histograms included, matches the pure-python models — but one to
two orders of magnitude faster, by splitting the replay into parts that
vectorize exactly and a part that cannot:

* **Cache and branch-predictor state depend only on the recorded
  streams** (``mem_addrs`` / ``branch_log``), never on timing.  So
  per-access memory latencies and per-branch mispredict bits are
  precomputed up front — latency codes by :func:`_cache_sim`, which
  runs the shared LRU stream kernel
  (:func:`repro.sim.cache.lru_sweep`) over L1 and then over the L1
  misses for L2, and mispredicts by :func:`_predictor_sim` — and the
  hit/miss/accuracy scalars plus both exp-histograms are reconstructed
  from those arrays without ever running the cycle loop.

* **Only the cycle count is sequential.**  It runs on a packed-program
  interpreter (per-op ``(flags, srcs, dst, latency, occupancy)`` tuples
  with all class dispatch precomputed) that is several times faster
  than the model loops, and on top of that **skips steady-state loop
  iterations in bulk**: the profiler's loop headers anchor periodic
  regions of the block sequence (equal occurrence gaps, identical
  block/latency/outcome rows), and once the interpreter observes the
  same *relative* pipeline state at two consecutive period boundaries,
  every remaining period is provably identical up to a constant cycle
  shift — all scoreboard operations are max/plus on cycle deltas, so
  the evolution is time-translation invariant — and is applied as
  ``cycle += periods * delta`` instead of being executed.

A machine sweep replays one trace on many configurations, so both
precomputations are kept per trace: each cache geometry's latency codes
and each predictor size's outcomes are simulated once
(:func:`_stream_result`, at most :data:`STREAMS_CACHE_SIZE` per trace),
and the segment memo's hits chain in relative form without rebuilding
the scoreboard between them (:func:`_run_cycles`).

:meth:`TimingModel.simulate` replays every trace of the models this
module understands here, whatever its length, so the engine's replay
stage, the explorer, the daemon and the figures all accelerate
transparently; the python models stay as the equivalence oracle.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import bucket_index
from repro.sim.cache import lru_sweep
from repro.sim.timing_common import TimingResult
from repro.sim.trace import as_array

# Packed-op flag bits (see _build_program).
_F_MEM = 1       # touches memory (consumes one mem_addrs slot)
_F_STORE = 2     # memory write (latency 1, hidden by the write buffer)
_F_LOADK = 4     # klass == "load" (latency = resolved cache latency)
_F_FP = 8        # klass in falu/fmul/fdiv/fmath (FP port)
_F_MD = 16       # klass in imul/idiv (mul/div port)
_F_BR = 32       # conditional branch (consumes one branch_log slot)
_F_CR = 64       # call or return (scoreboard clear)

_FP_KLASSES = ("falu", "fmul", "fdiv", "fmath")
_MD_KLASSES = ("imul", "idiv")

# Region-detection knobs: a periodic region is only worth locking onto
# when enough full periods remain after warmup to amortize the two
# boundary captures the lock needs.
_MIN_PERIODS = 4
_MIN_REGION_BLOCKS = 32


# ---------------------------------------------------------------------------
# Per-binary static data + packed programs (weak caches, decode-style)


@dataclass
class _BinaryStat:
    """Static per-block facts shared by every trace of one binary."""

    nmem: "np.ndarray"      # memory ops per gbid
    nbr: "np.ndarray"       # conditional branches per gbid
    nins: "np.ndarray"      # instructions per gbid
    header_gbids: tuple     # loop-header blocks (periodic-region anchors)
    programs: dict = field(default_factory=dict)  # lat signature -> program
    memos: dict = field(default_factory=dict)     # config fp -> segment memo


_STAT_CACHE: dict[int, tuple] = {}
_PACK_CACHE: dict[int, tuple] = {}


def _weak_get(cache: dict, obj, build):
    key = id(obj)
    entry = cache.get(key)
    if entry is not None and entry[0]() is obj:
        return entry[1]
    value = build(obj)
    try:
        ref = weakref.ref(obj, lambda _r, _k=key: cache.pop(_k, None))
    except TypeError:  # pragma: no cover - all cached types are weakref-able
        return value
    cache[key] = (ref, value)
    return value


def _binary_stat(binary, decoded) -> _BinaryStat:
    def build(_binary):
        from repro.profiling.loops import loop_header_gbids

        n = len(decoded)
        nmem = np.zeros(n, dtype=np.int64)
        nbr = np.zeros(n, dtype=np.int64)
        nins = np.zeros(n, dtype=np.int64)
        for gbid in range(n):
            ops = decoded[gbid]
            nins[gbid] = len(ops)
            nmem[gbid] = sum(1 for op in ops if op.is_mem)
            nbr[gbid] = sum(1 for op in ops if op.is_cond_branch)
        return _BinaryStat(nmem=nmem, nbr=nbr, nins=nins,
                           header_gbids=tuple(loop_header_gbids(_binary)))

    return _weak_get(_STAT_CACHE, binary, build)


def _build_program(decoded, latencies) -> list:
    """Packed per-op tuples with every class dispatch precomputed.

    Each op becomes ``(flags, srcs, dst, latency, occupancy)``; the
    interpreters then run on flag tests and integer arithmetic alone.
    """
    program = []
    for block in decoded.blocks:
        ops = []
        for op in block:
            klass = op.klass
            flags = 0
            lat = latencies.get(klass, 1)
            occ = 1
            if op.is_mem:
                flags |= _F_MEM
                if op.is_store:
                    flags |= _F_STORE
                elif klass == "load":
                    flags |= _F_LOADK
            if klass in _FP_KLASSES:
                flags |= _F_FP
                occ = lat if klass in ("fdiv", "fmath") else 1
            elif klass in _MD_KLASSES:
                flags |= _F_MD
                occ = lat if klass == "idiv" else 1
            if op.is_cond_branch:
                flags |= _F_BR
            elif op.is_call_or_ret:
                flags |= _F_CR
            ops.append((flags, op.srcs, op.dst, lat, occ))
        program.append(tuple(ops))
    return program


def _program_for(binary, decoded, latencies) -> list:
    stat = _binary_stat(binary, decoded)
    sig = tuple(sorted(latencies.items()))
    program = stat.programs.get(sig)
    if program is None:
        program = _build_program(decoded, latencies)
        stat.programs[sig] = program
    return program


# ---------------------------------------------------------------------------
# Per-trace packed arrays + periodic-region candidates


@dataclass
class _TracePack:
    """Numpy views of one trace plus its periodic-region candidates."""

    bs: "np.ndarray"            # block sequence, int64
    bs_list: list               # same, as a python list (interpreter-fast)
    mem: "np.ndarray"           # byte addresses (the trace's buffer)
    br: "np.ndarray"            # (uid << 1) | taken (the trace's buffer)
    mem_prefix: "np.ndarray"    # mem ops before block position i (len+1)
    br_prefix: "np.ndarray"     # branches before block position i (len+1)
    ins_prefix: "np.ndarray"    # instructions before block position i (len+1)
    regions: list               # (start, period, periods) block-row verified
    anchors: "np.ndarray | None"  # segment-memo cut positions
    instructions: int
    #: Stream results, computed once per geometry (_stream_result):
    #: ``(l1, l2)`` -> _cache_sim result, predictor entries ->
    #: _predictor_sim result.
    streams: dict = field(default_factory=dict)


def _find_regions(bs, header_gbids) -> list:
    """Loop-header-anchored periodic regions of the block sequence.

    A region is a maximal run of equal gaps between occurrences of one
    loop header whose per-period block rows are identical; overlapping
    candidates (nested loops) keep the largest span.
    """
    candidates = []
    n = bs.size
    for header in header_gbids:
        positions = np.flatnonzero(bs == header)
        if positions.size <= _MIN_PERIODS:
            continue
        gaps = np.diff(positions)
        change = np.flatnonzero(gaps[1:] != gaps[:-1]) + 1
        run_starts = np.concatenate(([0], change))
        run_ends = np.concatenate((change, [gaps.size]))
        period_arr = gaps[run_starts]
        periods_arr = run_ends - run_starts
        keep = ((periods_arr >= _MIN_PERIODS) & (period_arr > 0)
                & (periods_arr * period_arr >= _MIN_REGION_BLOCKS))
        for lo, period, periods in zip(run_starts[keep].tolist(),
                                       period_arr[keep].tolist(),
                                       periods_arr[keep].tolist()):
            start = int(positions[lo])
            if start + periods * period > n:  # pragma: no cover - by construction
                continue
            rows = bs[start:start + periods * period].reshape(periods, period)
            same = (rows[1:] == rows[:-1]).all(axis=1)
            bad = np.flatnonzero(~same)
            skip = int(bad[-1]) + 1 if bad.size else 0
            periods -= skip
            start += skip * period
            if periods < _MIN_PERIODS or periods * period < _MIN_REGION_BLOCKS:
                continue
            candidates.append((start, period, periods))
    candidates.sort(key=lambda r: -(r[1] * r[2]))
    chosen: list = []
    starts: list = []  # accepted intervals, kept sorted by start
    ends: list = []
    for region in candidates:
        start, period, periods = region
        end = start + period * periods
        i = bisect.bisect_right(starts, start)
        if i and ends[i - 1] > start:
            continue
        if i < len(starts) and starts[i] < end:
            continue
        starts.insert(i, start)
        ends.insert(i, end)
        chosen.append(region)
    chosen.sort()
    return chosen


# Segment-memo knobs: a segment shorter than _SEG_MIN_BLOCKS is
# overhead-dominated, one longer than _SEG_MAX_BLOCKS is unlikely to
# repeat exactly (and would make the memo keys huge); both fall back to
# plain interpretation.
_SEG_MIN_BLOCKS = 4
_SEG_MAX_BLOCKS = 4096
_SEG_TARGET_BLOCKS = 96
_SEG_FILL_BLOCKS = 256
_SEG_FILL_STEP = 64
_SEG_MEMO_CAP = 32768

#: Diagnostic hook: set to a dict (e.g. ``kernels.SEG_DEBUG = {}``) to
#: count segment-memo lookups — keys ``"hit"`` / ``"miss"`` accumulate
#: across replays until reset, ``"expand"`` counts scoreboard rebuilds
#: after a hit (before a chunk that must be interpreted).  Used by the equivalence tests to assert the memo and
#: its hit chain actually engage; leave ``None`` in production (the
#: check is one ``is not None`` per segment).
SEG_DEBUG: dict | None = None


def _pick_anchor(bs, header_gbids):
    """Occurrence positions of the header that best segments the trace.

    Splitting at every occurrence of one loop header turns the trace
    into outer-iteration-sized slices — the unit that actually repeats
    when inner trip counts vary (so no fixed period exists).  The
    header whose mean gap is closest to ``_SEG_TARGET_BLOCKS`` wins;
    headers so frequent that segments would be overhead-dominated are
    skipped.
    """
    n = bs.size
    best = None
    for header in header_gbids:
        count = int((bs == header).sum())
        if not count:
            continue
        mean = n / count
        if mean < 2 * _SEG_MIN_BLOCKS:
            continue
        score = abs(mean - _SEG_TARGET_BLOCKS)
        if best is None or score < best[0]:
            best = (score, header)
    if best is None:
        return None
    return np.flatnonzero(bs == best[1])


def _segment_cuts(bs, header_gbids):
    """All memo-segment cut positions for one trace.

    The best single anchor gives outer-iteration-aligned cuts, but its
    occurrences can cluster in one phase of the program (a setup loop,
    say) and leave the hot phase as a single giant segment.  Stretches
    that run more than ``_SEG_FILL_BLOCKS`` without an anchor are
    therefore filled with bucketed cuts drawn from *every* header
    occurrence — the content keys absorb whatever alignment those cuts
    land on.
    """
    anchor = _pick_anchor(bs, header_gbids)
    if not header_gbids:
        return anchor
    n = bs.size
    base = anchor if anchor is not None else np.empty(0, dtype=np.int64)
    bounds = np.concatenate(([0], base, [n]))
    occurrences = None
    extra = []
    for i in range(bounds.size - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if hi - lo <= _SEG_FILL_BLOCKS:
            continue
        if occurrences is None:
            occurrences = np.flatnonzero(
                np.isin(bs, np.asarray(header_gbids, dtype=bs.dtype)))
        i0, i1 = np.searchsorted(occurrences, (lo + 1, hi))
        inside = occurrences[i0:i1]
        if inside.size == 0:
            continue
        buckets = inside // _SEG_FILL_STEP
        first = np.flatnonzero(np.diff(buckets) > 0) + 1
        extra.append(inside[np.concatenate(([0], first))])
    if not extra:
        return anchor
    return np.unique(np.concatenate([base] + extra))


def _trace_pack(trace, stat: _BinaryStat) -> _TracePack:
    def build(_trace):
        # The block sequence widens to int64: segment-memo keys are its
        # raw bytes, shared across every trace of one binary, so all of
        # them must use one width.  The streams are read zero-copy.
        bs = as_array(_trace.block_seq).astype(np.int64)
        mem = as_array(_trace.mem_addrs)
        br = as_array(_trace.branch_log)
        if bs.size:
            mem_counts = stat.nmem[bs]
            br_counts = stat.nbr[bs]
            ins_counts = stat.nins[bs]
        else:
            mem_counts = br_counts = ins_counts = np.zeros(0, dtype=np.int64)
        mem_prefix = np.concatenate(([0], np.cumsum(mem_counts)))
        br_prefix = np.concatenate(([0], np.cumsum(br_counts)))
        ins_prefix = np.concatenate(([0], np.cumsum(ins_counts)))
        return _TracePack(
            bs=bs, bs_list=bs.tolist(), mem=mem, br=br,
            mem_prefix=mem_prefix, br_prefix=br_prefix,
            ins_prefix=ins_prefix,
            regions=_find_regions(bs, stat.header_gbids),
            anchors=_segment_cuts(bs, stat.header_gbids) if bs.size else None,
            instructions=int(ins_prefix[-1]))

    return _weak_get(_PACK_CACHE, trace, build)


def pack_cache_size() -> int:
    """Live entries in the trace-pack cache (observability/tests)."""
    return len(_PACK_CACHE)


#: Stream results one trace pack keeps (cache geometries plus predictor
#: sizes, least recently used evicted first): a machine sweep reuses
#: each one across every width/ROB point, while a long search over
#: cache sizes cannot pin unbounded memory to a live trace.
STREAMS_CACHE_SIZE = 8

# Guards every pack's ``streams`` dict: thread-backend replays of one
# trace share its pack (the simulations themselves run unlocked).
_STREAMS_LOCK = threading.Lock()


def _stream_result(pack: _TracePack, key, simulate):
    """*pack*'s stream result for geometry *key*, from ``simulate()``
    on first use.

    Cache and predictor state depend only on the recorded streams and
    their own geometry, so every machine sharing an L1/L2 pair (or a
    predictor size) shares one result.  Its array is made read-only.
    """
    streams = pack.streams
    with _STREAMS_LOCK:
        result = streams.pop(key, None)
        if result is not None:
            streams[key] = result  # now the most recently used
            return result
    result = simulate()
    result[0].flags.writeable = False
    with _STREAMS_LOCK:
        if key not in streams and len(streams) >= STREAMS_CACHE_SIZE:
            del streams[next(iter(streams))]
        streams[key] = result
    return result


# ---------------------------------------------------------------------------
# Stream precomputation: cache latencies, branch outcomes, histograms


def _cache_sim(mem, config):
    """Per-access L1/L2 latency codes for the address stream.

    Returns ``(codes, l1_hits, l1_misses)`` where ``codes[i]`` is 0 for
    an L1 hit, 1 for an L2 hit and 2 for a memory access — exactly the
    latency class the python models resolve per access.
    :func:`~repro.sim.cache.lru_sweep` replays the address stream
    through L1, and the L1 misses through L2.
    """
    n = mem.size
    codes = np.zeros(n, dtype=np.uint8)
    if n == 0:
        return codes, 0, 0
    missed = np.flatnonzero(lru_sweep(mem, [config.l1])[0] == 0)
    codes[missed] = 2
    if config.l2 is not None:
        codes[missed] -= lru_sweep(mem[missed], [config.l2])[0]
    return codes, n - missed.size, missed.size


_HISTORY_MASK = 0xFFF  # HybridPredictor's 12 history bits
_HISTORY_BITS = 12
_PREDICTOR_VECTOR_MIN = 4096  # below this the python loop wins


def _predictor_sim(br, entries: int):
    """Replay the branch log through the hybrid predictor.

    Returns ``(correct, hits, misses)`` with ``correct`` a uint8 array
    of per-branch outcomes (1 = the chooser's pick was right) — the
    only predictor fact the cycle interpreters need.  Long logs go
    through the vectorized segmented-scan path, short ones through the
    reference loop; both produce byte-identical results.
    """
    if br.size >= _PREDICTOR_VECTOR_MIN and entries <= 1 << 16:
        return _predictor_sim_numpy(br, entries)
    return _predictor_sim_python(br, entries)


# Saturating 2-bit counters as 4-state automata.  A step is a monotone
# map f: {0..3} -> {0..3}, packed into one byte (2 bits per output);
# composition is then a single 256x256 table lookup, which turns the
# per-entry counter history into an associative prefix scan over bytes.
def _encode_map(outputs):
    return outputs[0] | (outputs[1] << 2) | (outputs[2] << 4) | (outputs[3] << 6)


_STEP_UP = _encode_map([1, 2, 3, 3])      # taken: min(3, s + 1)
_STEP_DOWN = _encode_map([0, 0, 1, 2])    # not taken: max(0, s - 1)
_STEP_ID = _encode_map([0, 1, 2, 3])      # chooser tie: unchanged
_RESET = _encode_map([2, 2, 2, 2])        # constant: fresh counter at 2

# _COMP[a, b] = encode(f_b . f_a): apply a's map, then b's.
_DECODE = (np.arange(256, dtype=np.uint8)[:, None]
           >> (2 * np.arange(4, dtype=np.uint8))) & 3  # [code, s]
_COMP = np.zeros((256, 256), dtype=np.uint8)
for _s in range(4):
    # Output bits of state _s: f_b(f_a(_s)), for every (a, b) at once.
    _COMP |= _DECODE[:, _DECODE[:, _s]].T << (2 * _s)
del _s
_STEP_BY_DELTA = np.array([_STEP_DOWN, _STEP_ID, _STEP_UP], dtype=np.uint8)


def _comp_scan(codes):
    """Inclusive prefix scan of automaton bytes under composition.

    Work-efficient pairwise recursion: combine adjacent pairs, scan the
    half-length array, then fill the even positions — ~2n table gathers
    total instead of n log n.
    """
    n = codes.size
    if n < 2:
        return codes.copy()
    even = codes[0::2]
    odd = codes[1::2]
    pair_scan = _comp_scan(_COMP[even[: odd.size], odd])
    out = np.empty(n, dtype=np.uint8)
    out[0] = codes[0]
    out[1::2] = pair_scan
    if n > 2:
        out[2::2] = _COMP[pair_scan[: even.size - 1], even[1:]]
    return out


def _seg_counter_states(order, same, step_codes):
    """State of each table entry's counter *before* each access.

    ``order`` groups accesses per entry (stable sort of entry indices),
    ``same`` marks sorted positions sharing the previous position's
    entry.  Each sorted position takes its predecessor's step map — or
    the constant reset-to-2 map at group heads, which absorbs anything
    composed before it, so one *unsegmented* scan handles all groups.
    """
    n = order.size
    g = np.empty(n, dtype=np.uint8)
    g[0] = _RESET
    sorted_steps = step_codes[order]
    g[1:] = np.where(same, sorted_steps[:-1], _RESET)
    # Every scan prefix contains its group's reset, so the composed map
    # is constant: its value on input 0 (the low bits) is the state.
    states_sorted = _comp_scan(g) & 3
    states = np.empty(n, dtype=np.uint8)
    states[order] = states_sorted
    return states


def _group_order(keys):
    # uint16 keys take numpy's 2-pass radix path — 5x faster than the
    # int64 stable sort (the dispatcher guards entries <= 2**16).
    keys = keys.astype(np.uint16)
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    return order, k[1:] == k[:-1]


def _predictor_sim_numpy(br, entries: int):
    """Vectorized hybrid-predictor replay, pinned to the reference loop.

    Global history is a 12-bit shift register of outcomes, so each
    branch's history is twelve shifted ORs of the taken stream; the
    bimodal and gshare tables see outcome-only updates and reduce to
    independent per-entry counter scans; the chooser's steps depend only
    on those two prediction streams, giving a third scan over the
    bimodal grouping.
    """
    n = br.size
    mask = entries - 1
    pcs = (br >> 1).astype(np.int64)
    taken = (br & 1).astype(np.int64)
    hist = np.zeros(n, dtype=np.int64)
    for k in range(1, _HISTORY_BITS + 1):
        hist[k:] |= taken[: n - k] << (k - 1)
    bi = pcs & mask
    gi = (pcs ^ hist) & mask
    updown = np.where(taken == 1, _STEP_UP, _STEP_DOWN).astype(np.uint8)
    b_order, b_same = _group_order(bi)
    g_order, g_same = _group_order(gi)
    b_pred = (_seg_counter_states(b_order, b_same, updown) >= 2).astype(np.int64)
    g_pred = (_seg_counter_states(g_order, g_same, updown) >= 2).astype(np.int64)
    b_right = b_pred == taken
    g_right = g_pred == taken
    meta_steps = _STEP_BY_DELTA[
        (g_right.astype(np.int64) - b_right.astype(np.int64)) + 1
    ]
    chooser = _seg_counter_states(b_order, b_same, meta_steps)
    chosen = np.where(chooser >= 2, g_pred, b_pred)
    correct = (chosen == taken).astype(np.uint8)
    hits = int(correct.sum())
    return correct, hits, n - hits


def _predictor_sim_python(br, entries: int):
    """Reference per-branch hybrid-predictor loop (pin target)."""
    n = br.size
    correct = bytearray(n)
    if n == 0:
        return np.zeros(0, dtype=np.uint8), 0, 0
    mask = entries - 1
    bimodal = [2] * entries
    gshare = [2] * entries
    meta = [2] * entries
    history = 0
    hits = 0
    pcs = (br >> 1).tolist()
    takens = (br & 1).tolist()
    for i in range(n):
        pc = pcs[i]
        taken = takens[i]
        bi = pc & mask
        gi = (pc ^ history) & mask
        b_pred = bimodal[bi] >= 2
        g_pred = gshare[gi] >= 2
        chooser = meta[bi]
        if (g_pred if chooser >= 2 else b_pred) == taken:
            correct[i] = 1
            hits += 1
        b_right = b_pred == taken
        if (g_pred == taken) != b_right:
            if b_right:
                if chooser > 0:
                    meta[bi] = chooser - 1
            elif chooser < 3:
                meta[bi] = chooser + 1
        counter = bimodal[bi]
        if taken:
            if counter < 3:
                bimodal[bi] = counter + 1
        elif counter > 0:
            bimodal[bi] = counter - 1
        counter = gshare[gi]
        if taken:
            if counter < 3:
                gshare[gi] = counter + 1
        elif counter > 0:
            gshare[gi] = counter - 1
        history = ((history << 1) | taken) & _HISTORY_MASK
    return np.frombuffer(bytes(correct), dtype=np.uint8), hits, n - hits


def _snapshot(values_and_counts) -> dict | None:
    """Exp-histogram snapshot dict, byte-identical to ExpHistogram's.

    *values_and_counts* is an iterable of ``(int value, count)`` pairs;
    the incremental float sum the python models accumulate is exact for
    integer values (every partial sum is an integer below 2**53), so
    ``sum(value * count)`` reproduces it bit-for-bit.
    """
    buckets: dict[int, int] = {}
    total = 0
    acc = 0
    low = high = None
    for value, count in values_and_counts:
        if not count:
            continue
        idx = bucket_index(value)
        buckets[idx] = buckets.get(idx, 0) + count
        total += count
        acc += value * count
        low = value if low is None else min(low, value)
        high = value if high is None else max(high, value)
    if not total:
        return None
    return {
        "count": total,
        "sum": float(acc),
        "min": low,
        "max": high,
        "buckets": {k: buckets[k] for k in sorted(buckets)},
    }


def _mem_hist(codes, config) -> dict | None:
    if codes.size == 0:
        return None
    counts = np.bincount(codes, minlength=3)
    return _snapshot([
        (config.l1_hit_cycles, int(counts[0])),
        (config.l2_hit_cycles, int(counts[1])),
        (config.memory_cycles, int(counts[2])),
    ])


def _branch_hist(correct) -> dict | None:
    """Correct-prediction run lengths, as HybridPredictor records them.

    One run value per mispredict (the correct streak before it, zeros
    included) plus the trailing streak when nonzero — matching
    ``update()`` + ``finalize_runs()`` exactly.
    """
    n = correct.size
    if n == 0:
        return None
    miss_idx = np.flatnonzero(correct == 0)
    runs = (np.diff(np.concatenate(([-1], miss_idx))) - 1).tolist()
    last = int(miss_idx[-1]) if miss_idx.size else -1
    trailing = n - 1 - last
    if trailing > 0:
        runs.append(trailing)
    values: dict[int, int] = {}
    for run in runs:
        values[run] = values.get(run, 0) + 1
    return _snapshot(sorted(values.items()))


# ---------------------------------------------------------------------------
# Cycle interpreters (the only sequential part)
#
# State tuples keep span calls cheap; the per-op loops only do flag
# tests, dict lookups and integer max/plus — every class dispatch,
# cache latency and branch outcome was precomputed above.


def _span_inorder(program, blocks, lo, hi, state, ready, mem_lat, correct,
                  width, penalty):
    (cycle, slots, max_completion, mem_idx, br_idx,
     mem_port, fp_port, md_port) = state
    ready_get = ready.get
    for pos in range(lo, hi):
        for op in program[blocks[pos]]:
            flags, srcs, dst, lat, occ = op
            if slots >= width:
                cycle += 1
                slots = 0
            issue = cycle
            for src in srcs:
                when = ready_get(src, 0)
                if when > issue:
                    issue = when
            if flags == 0:
                # Plain ALU op: no ports, no memory, no control flow.
                if issue > cycle:
                    cycle = issue
                    slots = 0
                slots += 1
                completion = cycle + lat
                if completion > max_completion:
                    max_completion = completion
                if dst >= 0:
                    ready[dst] = completion
                continue
            if flags & _F_MEM and mem_port > issue:
                issue = mem_port
            elif flags & _F_FP and fp_port > issue:
                issue = fp_port
            elif flags & _F_MD and md_port > issue:
                issue = md_port
            if issue > cycle:
                cycle = issue  # the whole pipeline waits
                slots = 0
            slots += 1
            if flags & _F_MEM:
                resolved = mem_lat[mem_idx]
                mem_idx += 1
                mem_port = cycle + 1
                if flags & _F_STORE:
                    latency = 1
                elif flags & _F_LOADK:
                    latency = resolved
                else:
                    latency = resolved + lat
            else:
                latency = lat
                if flags & _F_FP:
                    fp_port = cycle + occ
                elif flags & _F_MD:
                    md_port = cycle + occ
            completion = cycle + latency
            if completion > max_completion:
                max_completion = completion
            if dst >= 0:
                ready[dst] = completion
            if flags & _F_BR:
                if not correct[br_idx]:
                    cycle = completion + penalty
                    slots = 0
                br_idx += 1
            elif flags & _F_CR:
                ready.clear()
    return (cycle, slots, max_completion, mem_idx, br_idx,
            mem_port, fp_port, md_port)


def _span_ooo(program, blocks, lo, hi, state, ready, rob, mem_lat, correct,
              width, penalty, rob_size):
    # *rob* is a zero-prefilled ring buffer ``[completions] + [head]``:
    # retiring a prefill zero is a no-op (``0 > cycle`` never holds), so
    # the ring behaves exactly like the model's warm-up-phase deque
    # while skipping the length check and deque rotation per op.
    (cycle, slots, max_completion, mem_idx, br_idx,
     mem_port, fp_port, md_port) = state
    ready_get = ready.get
    head = rob[rob_size]
    for pos in range(lo, hi):
        for op in program[blocks[pos]]:
            flags, srcs, dst, lat, occ = op
            if slots >= width:
                cycle += 1
                slots = 0
            oldest = rob[head]
            if oldest > cycle:
                cycle = oldest
                slots = 0
            slots += 1
            issue = cycle
            for src in srcs:
                when = ready_get(src, 0)
                if when > issue:
                    issue = when
            if flags == 0:
                completion = issue + lat
                if completion > max_completion:
                    max_completion = completion
                rob[head] = completion
                head += 1
                if head == rob_size:
                    head = 0
                if dst >= 0:
                    ready[dst] = completion
                continue
            if flags & _F_MEM:
                if mem_port > issue:
                    issue = mem_port
                mem_port = issue + 1
                resolved = mem_lat[mem_idx]
                mem_idx += 1
                if flags & _F_STORE:
                    latency = 1
                elif flags & _F_LOADK:
                    latency = resolved
                else:
                    latency = resolved + lat
            else:
                latency = lat
                if flags & _F_FP:
                    if fp_port > issue:
                        issue = fp_port
                    fp_port = issue + occ
                elif flags & _F_MD:
                    if md_port > issue:
                        issue = md_port
                    md_port = issue + occ
            completion = issue + latency
            if completion > max_completion:
                max_completion = completion
            rob[head] = completion
            head += 1
            if head == rob_size:
                head = 0
            if dst >= 0:
                ready[dst] = completion
            if flags & _F_BR:
                if not correct[br_idx]:
                    cycle = completion + penalty
                    slots = 0
                br_idx += 1
            elif flags & _F_CR:
                ready.clear()
    rob[rob_size] = head
    return (cycle, slots, max_completion, mem_idx, br_idx,
            mem_port, fp_port, md_port)


def _steady_regions(pack: _TracePack, codes, correct, rob_size: int):
    """Per-replay usable regions: block rows are periodic by
    construction; latency codes and branch outcomes must be too (they
    depend on the cache/predictor config).  Regions whose expected
    skip savings cannot cover the lock's boundary-capture cost — each
    capture canonicalizes the whole ROB, and the ROB must cycle through
    ``rob_size`` completions before its relative contents can repeat —
    are dropped up front.  Returns
    ``(start, period, periods, warmup, mem_per, br_per)`` tuples.
    """
    usable = []
    mem_prefix = pack.mem_prefix
    br_prefix = pack.br_prefix
    ins_prefix = pack.ins_prefix
    capture_cost = 16 + rob_size // 3  # in interpreted-op equivalents
    for start, period, periods in pack.regions:
        if period <= _SEG_MAX_BLOCKS:
            # The segment memo covers this loop: its header occurs
            # every ``period`` blocks, so the region gets cut into
            # memoizable segments whose content repeats period to
            # period — no lock captures needed, and a carved-out
            # region would only fragment those segments.  Locking is
            # reserved for loops whose single iteration overflows a
            # memo segment.
            continue
        mem_lo = int(mem_prefix[start])
        mem_per = int(mem_prefix[start + period]) - mem_lo
        br_lo = int(br_prefix[start])
        br_per = int(br_prefix[start + period]) - br_lo
        period_ops = int(ins_prefix[start + period]) - int(ins_prefix[start])
        if not period_ops:
            continue
        steady = np.ones(periods - 1, dtype=bool)
        if mem_per:
            rows = codes[mem_lo:mem_lo + periods * mem_per]
            rows = rows.reshape(periods, mem_per)
            steady &= (rows[1:] == rows[:-1]).all(axis=1)
        if br_per:
            rows = correct[br_lo:br_lo + periods * br_per]
            rows = rows.reshape(periods, br_per)
            steady &= (rows[1:] == rows[:-1]).all(axis=1)
        bad = np.flatnonzero(~steady)
        warmup = int(bad[-1]) + 1 if bad.size else 0
        lock_lag = rob_size // period_ops + 3  # periods until a lock can land
        savings = (periods - warmup - lock_lag) * period_ops
        if savings > lock_lag * capture_cost:
            usable.append((start, period, periods, warmup, mem_per, br_per))
    return usable


def _canon_ready(ready, cycle):
    return tuple(sorted(
        (reg, when - cycle) for reg, when in ready.items() if when > cycle))


#: The pipeline's steady state may repeat only every few loop
#: iterations (e.g. a 2-wide dispatch over an odd-length body
#: alternates slot phase), so boundary states are matched against the
#: last ``_MAX_STRIDE`` boundaries, not just the previous one.
_MAX_STRIDE = 6
#: Boundary captures per region before giving up on a lock — bounds
#: the capture overhead on regions whose state never settles.
_MAX_ATTEMPTS = 24


def _gap_chunks(chunks, pack, lo, hi):
    """Append the memo segments covering ``[lo, hi)`` to *chunks*.

    Splits the gap at every anchor occurrence inside it; with no
    anchors the gap is one segment (too-long segments are interpreted,
    not memoized, so this stays correct either way).  Each segment is
    ``(lo, hi, mem_hi, br_hi)``: its block range and the stream
    positions at its end.
    """
    if hi <= lo:
        return
    anchors = pack.anchors
    if anchors is not None:
        i0, i1 = np.searchsorted(anchors, (lo + 1, hi))
        bounds = np.concatenate(([lo], anchors[i0:i1], [hi]))
    else:
        bounds = np.array([lo, hi])
    ends = bounds[1:]
    chunks.extend(zip(bounds[:-1].tolist(), ends.tolist(),
                      pack.mem_prefix[ends].tolist(),
                      pack.br_prefix[ends].tolist()))


def _run_cycles(kind, program, pack, mem_lat, correct, regions, config,
                codes, correct_arr, memo):
    """Interpret the block sequence, skipping repeated work two ways.

    **Locked periodic regions** (from :func:`_steady_regions`): once two
    period boundaries ``s`` periods apart show the same canonical
    relative state (slots, live ready deltas, port deltas, ROB deltas —
    entries at or below ``cycle`` are dead: every comparison they feed
    is ``> issue`` with ``issue >= cycle``), each further stride of
    ``s`` periods adds exactly ``delta`` cycles and consumes exactly
    ``s`` rows of each stream — all scoreboard updates are max/plus on
    cycle deltas, so the evolution is time-translation invariant — and
    every remaining stride is applied arithmetically.
    ``max_completion`` is skippable when the periodic part drives it
    (it grew over the matched stride) or when ``delta == 0``
    (completions repeat in place); otherwise the interpreter keeps
    stepping periods until one of those holds.

    **Memoized segments** (the gaps between locked regions, cut at
    anchor-header occurrences): loops whose inner trip counts vary have
    no fixed period, but their outer iterations still repeat — just not
    consecutively.  Each segment is keyed by its exact content (block
    ids, latency codes and branch outcomes as raw bytes — hashed at
    C speed) plus the same canonical entry state the lock uses, and its
    whole effect (cycle delta, out slots, live ready/port/ROB deltas,
    completion-max delta) is replayed arithmetically on a hit.  The
    same time-translation argument makes the replay exact; the live
    ROB suffix is part of the entry state, so segments entered with
    in-flight work memoize too.  A hit's recorded exit state is exactly
    the next segment's entry state, so runs of hits chain in that
    relative form and the absolute scoreboard is rebuilt only before a
    chunk that must be interpreted.  The memo dict is per
    (binary, timing-config) and so persists across traces and replays.
    """
    blocks = pack.bs_list
    nblocks = len(blocks)
    width = config.width
    penalty = config.mispredict_penalty
    in_order = kind == "inorder"
    if in_order:
        rob = None
        rob_size = 0

        def span(lo, hi, state, ready):
            return _span_inorder(program, blocks, lo, hi, state, ready,
                                 mem_lat, correct, width, penalty)
    else:
        rob_size = config.rob_size
        # Ring of completions plus the head index in the last slot; a
        # prefill zero retires as a no-op, exactly like a not-yet-full
        # ROB (see _span_ooo).
        rob = [0] * (rob_size + 1)

        def span(lo, hi, state, ready):
            return _span_ooo(program, blocks, lo, hi, state, ready, rob,
                             mem_lat, correct, width, penalty, rob_size)

    # Memo keys hold raw stream bytes; slicing python bytes is several
    # times cheaper than slicing and converting the arrays per segment.
    block_bytes = pack.bs.tobytes()
    block_size = pack.bs.itemsize
    code_bytes = codes.tobytes()  # uint8: byte offset == stream index
    outcome_bytes = correct_arr.tobytes()

    # The schedule: locked regions in trace order, the gaps between
    # them cut into candidate memo segments.  Region chunks are the
    # 6-tuples from _steady_regions, segments the 4-tuples of
    # _gap_chunks.
    chunks: list = []
    gap_lo = 0
    for region in regions:
        _gap_chunks(chunks, pack, gap_lo, region[0])
        chunks.append(region)
        gap_lo = region[0] + region[1] * region[2]
    _gap_chunks(chunks, pack, gap_lo, nblocks)

    def canon(state):
        """The canonical relative state at ``state[0]``: slots, live
        ready deltas, port deltas and the live ROB suffix."""
        cycle = state[0]
        if in_order:
            live = ()
        else:
            # The live ROB suffix, oldest first: the tuple length fixes
            # how many dispatches retire dead prefill slots before the
            # first live entry can stall, interior dead entries clamp
            # to 0 (they retire as no-ops either way), so this is the
            # full ROB influence on what follows.
            head = rob[rob_size]
            ring = rob[head:rob_size] + rob[:head]  # oldest first
            idx = 0
            while idx < rob_size and ring[idx] <= cycle:
                idx += 1
            live = tuple(when - cycle if when > cycle else 0
                         for when in ring[idx:])
        return (state[1], _canon_ready(ready, cycle),
                max(state[5] - cycle, 0), max(state[6] - cycle, 0),
                max(state[7] - cycle, 0), live)

    def expand(state, rel):
        """Absolute ``ready`` (returned) and ROB (in place) from *rel*,
        the canonical state at ``state[0]``."""
        cycle = state[0]
        if not in_order:
            live = rel[5]
            rob[:rob_size] = ([0] * (rob_size - len(live))
                              + [cycle + d for d in live])
            rob[rob_size] = 0
        return {reg: cycle + d for reg, d in rel[1]}

    state = (0, 0, 0, 0, 0, 0, 0, 0)
    ready: dict[int, int] = {}
    # ``rel`` caches canon(state) (None: derive it from ready/rob).  A
    # memo hit yields the next ``rel`` directly and leaves ready/rob
    # ``stale``: consecutive hits chain in relative form, and the
    # absolute scoreboard is rebuilt only before a chunk that has to be
    # interpreted.
    rel = None
    stale = False
    for chunk in chunks:
        segment = len(chunk) == 4
        memoizable = (segment and _SEG_MIN_BLOCKS <= chunk[1] - chunk[0]
                      <= _SEG_MAX_BLOCKS)
        if memoizable:
            lo, hi, mem_hi, br_hi = chunk
            if rel is None:
                rel = canon(state)
            cycle = state[0]
            mem_lo, br_lo = state[3], state[4]
            key = (block_bytes[lo * block_size:hi * block_size],
                   code_bytes[mem_lo:mem_hi],
                   outcome_bytes[br_lo:br_hi]) + rel
            value = memo.get(key)
            if SEG_DEBUG is not None:
                which = "miss" if value is None else "hit"
                SEG_DEBUG[which] = SEG_DEBUG.get(which, 0) + 1
            if value is not None:
                dcycle, dmc, rel = value
                out_cycle = cycle + dcycle
                max_completion = state[2]
                if dmc:
                    cand = cycle + dmc
                    if cand > max_completion:
                        max_completion = cand
                state = (out_cycle, rel[0], max_completion, mem_hi, br_hi,
                         out_cycle + rel[2], out_cycle + rel[3],
                         out_cycle + rel[4])
                stale = True
                continue
        if stale:
            if SEG_DEBUG is not None:
                SEG_DEBUG["expand"] = SEG_DEBUG.get("expand", 0) + 1
            ready = expand(state, rel)
            stale = False
        if memoizable:
            # A miss: interpret, then record the segment's effect.  Run
            # with max_completion zeroed: it is write-only in the
            # spans, and starting from 0 yields the segment's own
            # completion max — the translation-invariant part.
            mc_in = state[2]
            st = span(lo, hi, (cycle, state[1], 0, mem_lo, br_lo,
                               state[5], state[6], state[7]), ready)
            seg_mc = st[2]
            state = (st[0], st[1], seg_mc if seg_mc > mc_in else mc_in,
                     st[3], st[4], st[5], st[6], st[7])
            rel = canon(state)
            if len(memo) < _SEG_MEMO_CAP:
                memo[key] = (st[0] - cycle, seg_mc - cycle if seg_mc else 0,
                             rel)
            continue
        rel = None
        if segment:  # too short or too long to memoize
            state = span(chunk[0], chunk[1], state, ready)
            continue
        start, period, periods, warmup, mem_per, br_per = chunk
        pos = start + warmup * period
        state = span(start, pos, state, ready)
        done = warmup
        history: list = []
        attempts = 0
        while done < periods:
            state = span(pos, pos + period, state, ready)
            pos += period
            done += 1
            if attempts >= _MAX_ATTEMPTS:
                continue
            attempts += 1
            cycle, max_completion = state[0], state[2]
            sig = canon(state)
            locked = False
            for stride in range(1, min(len(history), _MAX_STRIDE) + 1):
                past_sig, past_cycle, past_mc = history[-stride]
                if sig != past_sig:
                    continue
                delta = cycle - past_cycle
                strides = (periods - done) // stride
                if strides and (delta == 0 or max_completion > past_mc):
                    skipped = strides * stride
                    cycle += strides * delta
                    if delta:
                        max_completion += strides * delta
                    state = (cycle, sig[0], max_completion,
                             state[3] + skipped * mem_per,
                             state[4] + skipped * br_per,
                             cycle + sig[2], cycle + sig[3], cycle + sig[4])
                    ready = expand(state, sig)
                    pos += skipped * period
                    done += skipped
                    locked = True
                break  # an equal-but-unskippable match: keep stepping
            if locked:
                # Leftover periods (< stride) may re-lock at stride 1.
                history = []
                attempts = 0
                continue
            history.append((sig, cycle, max_completion))
    return max(state[0], state[2])


# ---------------------------------------------------------------------------
# Entry point


def replay_trace(model, trace, decoded=None) -> TimingResult:
    """Replay *trace* under *model*'s config on the batched kernel.

    Produces a :class:`TimingResult` whose pickle is byte-identical to
    the python model's — the equivalence suite asserts it across every
    workload pair and Table III machine.
    """
    kind = getattr(model, "kernel_kind", None)
    if kind not in ("inorder", "ooo"):
        raise ValueError(f"model {type(model).__name__} has no batched kernel")
    if decoded is None:
        from repro.sim.timing_common import decode_binary

        decoded = decode_binary(trace.binary)
    config = model.config
    stat = _binary_stat(trace.binary, decoded)
    pack = _trace_pack(trace, stat)
    program = _program_for(trace.binary, decoded, config.latencies)
    codes, l1_hits, l1_misses = _stream_result(
        pack, (config.l1, config.l2), lambda: _cache_sim(pack.mem, config))
    correct, branch_hits, branch_misses = _stream_result(
        pack, config.predictor_entries,
        lambda: _predictor_sim(pack.br, config.predictor_entries))
    lat_by_code = np.array(
        [config.l1_hit_cycles, config.l2_hit_cycles, config.memory_cycles],
        dtype=np.int64)
    mem_lat = lat_by_code[codes].tolist()
    regions = _steady_regions(pack, codes, correct,
                              0 if kind == "inorder" else config.rob_size)
    # Segment memos are valid for exactly one timing behavior: the
    # cache/predictor configs are covered by the latency-code/outcome
    # bytes inside each key, everything else must scope the dict.
    fingerprint = (kind, config.width, config.mispredict_penalty,
                   config.rob_size if kind == "ooo" else 0,
                   config.l1_hit_cycles, config.l2_hit_cycles,
                   config.memory_cycles,
                   tuple(sorted(config.latencies.items())))
    memo = stat.memos.setdefault(fingerprint, {})
    cycles = _run_cycles(kind, program, pack, mem_lat, correct.tolist(),
                         regions, config, codes=codes, correct_arr=correct,
                         memo=memo)
    return TimingResult(
        cycles=int(cycles),
        instructions=pack.instructions,
        l1_hits=l1_hits,
        l1_misses=l1_misses,
        branch_hits=branch_hits,
        branch_misses=branch_misses,
        mem_lat_hist=_mem_hist(codes, config),
        branch_run_hist=_branch_hist(correct),
    )
