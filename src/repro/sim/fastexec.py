"""Fast functional execution engine.

The engine :meth:`repro.sim.functional.Simulator.run` (and so
:func:`~repro.sim.functional.run_binary`) tries first.  It produces a
**byte-identical** :class:`repro.sim.trace.ExecutionTrace` (pickle-equal:
same block sequence, memory-address stream, branch log, output, exit
value and instruction count) while running several times faster.
Three layers:

1. **Block compilation** — every function of a :class:`Binary` is decoded
   once into specialized Python source (``exec``-compiled, weakly cached
   per live binary like ``kernels._PACK_CACHE``): registers become true
   locals (``r0..``/``f0..``), opcode dispatch disappears entirely, and
   single-predecessor blocks are inlined into their predecessor's chain so
   straight-line regions run without dispatch at all.  Calls become direct
   Python recursion (a ``RecursionError`` falls back to the reference
   interpreter).

2. **Batched trace buffers** — the dynamic block sequence and the memory
   address stream are recorded as constant-tuple ``list.extend`` batches
   per straight-line region instead of one ``list.append`` per event;
   :meth:`ExecutionTrace.from_buffers` then packs each list once into
   the narrowest typed array that holds it.

3. **Architectural segment memoization** — innermost call-free loops are
   *anchored* (PR 8's loop-header segmentation applied to architectural
   state): on loop entry the anchor keys the loop body's full
   architectural effect (register deltas, relative/absolute memory writes
   and the emitted trace slices) on the content-defined read footprint +
   entry state, and replays memoized loop executions arithmetically.
   Footprints are fp-relative when the segment is "clean" (no REG-mode
   addressing, no fp-dependent ``lea``, no absolute access into the stack
   region), so a memoized loop re-hits across call frames.  Traced runs
   always memoize; untraced runs have no trace slices to replay.

Trap parity is exact: loads/stores/divides raise the same ``SimTrap``
messages, and the instruction budget check is placed at backedges, call
prologues and at entry of every block that can itself trap — which
preserves both the trap/complete outcome and the trap *kind* of the
reference interpreter (whose per-block check is only observable at a
potential trap site, since a trap discards all other state).

:func:`run_compiled` returns ``None`` — and the caller runs the
reference interpreter — for unsupported binaries (unknown opcodes,
``arg`` staging that crosses a block boundary), entry frames larger
than the stack and ``RecursionError``.  Anchor tables are plain dicts
mutated under the GIL; concurrent runs can at worst duplicate a
recording or skew the adaptive counters — never corrupt a trace.
"""

from __future__ import annotations

import sys
import weakref

from repro.ir.ops_eval import BINOPS, UNOPS
from repro.isa.machine import Binary
from repro.profiling.loops import find_machine_loops
from repro.sim.functional import SimTrap, _format_output
from repro.sim.trace import ExecutionTrace

# Segment-memoization caps (per anchor): recording aborts past these and
# the adaptive policy disables anchors that never pay for themselves.
SEG_MAX_INSTRS = 4096
SEG_MAX_READS = 64
SEG_MAX_WRITES = 256
SEG_MAX_GROUPS = 4
SEG_MAX_ENTRIES = 96
SEG_MIN_PROBES = 16
SEG_MAX_ABORTS = 4
_MAX_BODY_BLOCKS = 64

_RECURSION_LIMIT = 120_000

# Optional introspection hook (mirrors kernels.SEG_DEBUG): set to a dict
# to collect per-unit compile info and fallback reasons.
EXEC_DEBUG: dict | None = None

_BUDGET_MSG = "instruction budget exceeded (%d)"

_TERMINATORS = ("bt", "bf", "jmp", "call", "ret")
_INT_DIV_OPS = ("div", "udiv", "mod", "umod")


class _Unsupported(Exception):
    """Binary shape the compiler does not handle; caller falls back."""


def _wrap_int_div(fn):
    def run(a, b, _fn=fn):
        try:
            return _fn(a, b)
        except ZeroDivisionError as exc:
            raise SimTrap("integer division by zero") from exc

    return run


_HELPERS = {
    "_T": SimTrap,
    "_fo": _format_output,
    "_div": _wrap_int_div(BINOPS["div"]),
    "_udiv": _wrap_int_div(BINOPS["udiv"]),
    "_mod": _wrap_int_div(BINOPS["mod"]),
    "_umod": _wrap_int_div(BINOPS["umod"]),
    "_sar": BINOPS["sar"],
    "_slt": BINOPS["cmplt"],
    "_sle": BINOPS["cmple"],
    "_sgt": BINOPS["cmpgt"],
    "_sge": BINOPS["cmpge"],
    "_fdiv": BINOPS["fdiv"],
    "_absi": UNOPS["absi"],
    "_itof": UNOPS["itof"],
    "_ftoi": UNOPS["ftoi"],
    "_sqrt": UNOPS["sqrt"],
    "_sin": UNOPS["sin"],
    "_cos": UNOPS["cos"],
    "_log": UNOPS["log"],
    "_exp": UNOPS["exp"],
    "_floor": UNOPS["floor"],
}


def _canon(v):
    """Hashable, type- and bit-exact key form of a register/memory value."""
    return v if type(v) is int else ("f", repr(v))


class _Anchor:
    """Segment-memo table for one anchored (innermost, call-free) loop."""

    __slots__ = (
        "func",
        "header",
        "body",
        "resume_map",
        "stack_base",
        "on",
        "groups",
        "table",
        "probes",
        "hits",
        "recs",
        "aborts",
    )

    def __init__(self, func, header, body, resume_map, stack_base):
        self.func = func
        self.header = header
        self.body = body
        self.resume_map = resume_map
        self.stack_base = stack_base
        self.on = True
        self.groups: list = []
        self.table: dict = {}
        self.probes = 0
        self.hits = 0
        self.recs = 0
        self.aborts = 0

    # -- probe -----------------------------------------------------------

    def entry(self, ri, rf, fp, memory, n, ctx):
        """Called at loop entry; returns ``(iregs, fregs, n, b)`` when the
        anchor executed (replayed or recorded) past the loop, else None."""
        if not self.on:
            return None
        self.probes += 1
        probes = self.probes
        hits = self.hits
        if (
            (probes >= 32 and hits == 0)
            or (probes >= SEG_MIN_PROBES and hits * 8 < probes)
            or self.aborts >= SEG_MAX_ABORTS
            or (len(self.table) >= SEG_MAX_ENTRIES and hits * 4 < probes)
        ):
            self.on = False
            self.groups = []
            self.table = {}
            return None
        mlen = len(memory)
        table = self.table
        for gi, (irs, frs, abss, rels, fpk, rlo, rhi, amax) in enumerate(
            self.groups
        ):
            if rels and (fp + rlo < 0 or fp + rhi >= mlen):
                continue
            if amax >= mlen:
                continue
            parts = [gi]
            for i in irs:
                v = ri[i]
                parts.append(v if type(v) is int else ("f", repr(v)))
            for i in frs:
                v = rf[i]
                parts.append(v if type(v) is int else ("f", repr(v)))
            for a in abss:
                v = memory[a]
                parts.append(v if type(v) is int else ("f", repr(v)))
            for s in rels:
                v = memory[fp + s]
                parts.append(v if type(v) is int else ("f", repr(v)))
            if fpk:
                parts.append(fp)
            hit = table.get(tuple(parts))
            if hit is not None:
                res = self._apply(hit, ri, rf, fp, memory, n, ctx)
                if res is not None:
                    self.hits += 1
                    return res
        if self.recs < 4 or self.hits * 4 >= self.probes:
            if len(table) < SEG_MAX_ENTRIES:
                return self._record(ri, rf, fp, memory, n, ctx)
        return None

    # -- replay ----------------------------------------------------------

    def _apply(self, hit, ri, rf, fp, memory, n, ctx):
        (
            icount,
            iw,
            fw,
            mw,
            wlo,
            whi,
            awhi,
            resume,
            bsl,
            brl,
            msl,
            mflags,
            rec_fp,
        ) = hit
        if n + icount > ctx[7]:
            return None  # the reference engine would trap inside; execute
        mlen = len(memory)
        if wlo is not None and (fp + wlo < 0 or fp + whi >= mlen):
            return None
        if awhi is not None and awhi >= mlen:
            return None
        li = list(ri)
        for i, v in iw:
            li[i] = v
        lf = list(rf)
        for i, v in fw:
            lf[i] = v
        for a, rel, v in mw:
            memory[fp + a if rel else a] = v
        if bsl:
            ctx[1](bsl)
        if brl:
            ctx[5](brl)
        if msl:
            if mflags is None or fp == rec_fp:
                ctx[3](msl)
            else:
                d4 = (fp - rec_fp) << 2
                ctx[3](
                    tuple(
                        (v + d4) if flag else v
                        for v, flag in zip(msl, mflags)
                    )
                )
        return (li, lf, n + icount, resume)

    # -- record ----------------------------------------------------------

    def _record(self, ri, rf, fp, memory, n, ctx):
        """Execute the whole loop (tracking the architectural footprint)
        with reference-interpreter semantics, then store a memo entry."""
        self.recs += 1
        func = self.func
        blocks = func.blocks
        body = self.body
        resume_map = self.resume_map
        stack_base = self.stack_base
        tb, _, tm, _, tbr, _, _, budget = ctx
        block_seq = tb.__self__
        mem_addrs = tm.__self__
        branch_log = tbr.__self__
        b0 = len(block_seq)
        m0 = len(mem_addrs)
        g0 = len(branch_log)

        iregs = list(ri)
        fregs = list(rf)
        memory_len = len(memory)  # constant: the body contains no calls
        iread: dict = {}
        fread: dict = {}
        iwr: set = set()
        fwr: set = set()
        mrd: dict = {}
        mwr: dict = {}
        mfl: list = []
        clean = True
        icount = 0
        tracked = True
        binops = BINOPS
        unops = UNOPS

        def gi(i):
            if tracked and i not in iwr and i not in iread:
                iread[i] = iregs[i]
            return iregs[i]

        def gf(i):
            if tracked and i not in fwr and i not in fread:
                fread[i] = fregs[i]
            return fregs[i]

        bi = self.header
        while True:
            if bi not in body:
                break
            if not tracked and bi in resume_map:
                break
            block = blocks[bi]
            tb(block.gbid)
            icount += len(block.instrs)
            if n + icount > budget:
                raise SimTrap(_BUDGET_MSG % budget)
            if tracked and (
                icount > SEG_MAX_INSTRS
                or len(mrd) > SEG_MAX_READS
                or len(mwr) > SEG_MAX_WRITES
            ):
                tracked = False
                self.aborts += 1
            nb = block.fall_through
            for ins in block.instrs:
                op = ins.op
                if op == "ld" or op == "fld":
                    mode, abase, aidx, off = ins.addr
                    if mode == 1:
                        ea = fp + abase + off
                        isfp = True
                    elif mode == 0:
                        ea = abase + off
                        isfp = False
                    else:
                        ea = gi(abase) + off
                        isfp = False
                        clean = False
                    if aidx is not None:
                        ea += gi(aidx)
                    if mode == 0 and ea >= stack_base:
                        clean = False
                    if ea >= memory_len or ea < 0:
                        raise SimTrap(f"load out of range: word {ea}")
                    if tracked and ea not in mwr and ea not in mrd:
                        mrd[ea] = (memory[ea], isfp)
                    tm(ea << 2)
                    mfl.append(isfp)
                    if op == "ld":
                        iwr.add(ins.dst)
                        iregs[ins.dst] = memory[ea]
                    else:
                        fwr.add(ins.dst)
                        fregs[ins.dst] = memory[ea]
                elif op == "st" or op == "fst":
                    mode, abase, aidx, off = ins.addr
                    if mode == 1:
                        ea = fp + abase + off
                        isfp = True
                    elif mode == 0:
                        ea = abase + off
                        isfp = False
                    else:
                        ea = gi(abase) + off
                        isfp = False
                        clean = False
                    if aidx is not None:
                        ea += gi(aidx)
                    if mode == 0 and ea >= stack_base:
                        clean = False
                    if ea >= memory_len or ea < 0:
                        raise SimTrap(f"store out of range: word {ea}")
                    if tracked and ea not in mwr:
                        mwr[ea] = isfp
                    tm(ea << 2)
                    mfl.append(isfp)
                    if ins.a is not None:
                        memory[ea] = gi(ins.a) if op == "st" else gf(ins.a)
                    else:
                        memory[ea] = ins.b_imm
                elif op == "li":
                    iwr.add(ins.dst)
                    iregs[ins.dst] = ins.b_imm
                elif op == "lif":
                    fwr.add(ins.dst)
                    fregs[ins.dst] = ins.b_imm
                elif op == "mov":
                    v = gi(ins.a)
                    iwr.add(ins.dst)
                    iregs[ins.dst] = v
                elif op == "fmov":
                    v = gf(ins.a)
                    fwr.add(ins.dst)
                    fregs[ins.dst] = v
                elif op == "bt" or op == "bf":
                    cond = gi(ins.a)
                    jump = bool(cond) if op == "bt" else not cond
                    tbr((ins.uid << 1) | jump)
                    if jump:
                        nb = ins.target
                    break
                elif op == "jmp":
                    nb = ins.target
                    break
                elif op == "lea":
                    mode, abase, aidx, off = ins.addr
                    if mode == 1:
                        ea = fp + abase + off
                        clean = False
                    elif mode == 0:
                        ea = abase + off
                    else:
                        ea = gi(abase) + off
                        clean = False
                    if aidx is not None:
                        ea += gi(aidx)
                    iwr.add(ins.dst)
                    iregs[ins.dst] = ea
                elif op in ("call", "ret", "print", "arg", "farg"):
                    # Excluded by anchor selection; defensive.
                    raise RuntimeError(
                        f"fastexec: anchored segment reached {op!r}"
                    )
                else:
                    handler = binops.get(op)
                    if handler is not None:
                        if ins.addr is not None:
                            mode, abase, aidx, off = ins.addr
                            if mode == 1:
                                ea = fp + abase + off
                                isfp = True
                            elif mode == 0:
                                ea = abase + off
                                isfp = False
                            else:
                                ea = gi(abase) + off
                                isfp = False
                                clean = False
                            if aidx is not None:
                                ea += gi(aidx)
                            if mode == 0 and ea >= stack_base:
                                clean = False
                            if ea >= memory_len or ea < 0:
                                raise SimTrap(f"load out of range: word {ea}")
                            if tracked and ea not in mwr and ea not in mrd:
                                mrd[ea] = (memory[ea], isfp)
                            tm(ea << 2)
                            mfl.append(isfp)
                            bv = memory[ea]
                        elif ins.b_reg is not None:
                            bv = (
                                gf(ins.b_reg)
                                if op[0] == "f" and op not in ("floor",)
                                else gi(ins.b_reg)
                            )
                        else:
                            bv = ins.b_imm
                        if op[0] == "f":
                            try:
                                res = handler(gf(ins.a), bv)
                            except ZeroDivisionError as exc:
                                raise SimTrap("float division by zero") from exc
                            if "cmp" in op:
                                iwr.add(ins.dst)
                                iregs[ins.dst] = res
                            else:
                                fwr.add(ins.dst)
                                fregs[ins.dst] = res
                        else:
                            try:
                                res = handler(gi(ins.a), bv)
                            except ZeroDivisionError as exc:
                                raise SimTrap(
                                    "integer division by zero"
                                ) from exc
                            iwr.add(ins.dst)
                            iregs[ins.dst] = res
                    else:
                        uhandler = unops.get(op)
                        if uhandler is None:  # pragma: no cover - compile-gated
                            raise SimTrap(f"unknown opcode {op!r}")
                        if op in ("itof", "utof"):
                            v = uhandler(gi(ins.a))
                            fwr.add(ins.dst)
                            fregs[ins.dst] = v
                        elif op == "ftoi":
                            v = uhandler(gf(ins.a))
                            iwr.add(ins.dst)
                            iregs[ins.dst] = v
                        elif op in ("fneg", "sqrt", "sin", "cos", "log",
                                    "exp", "fabs", "floor"):
                            try:
                                v = uhandler(gf(ins.a))
                            except ValueError as exc:  # pragma: no cover
                                raise SimTrap(
                                    f"math domain error in {op}"
                                ) from exc
                            fwr.add(ins.dst)
                            fregs[ins.dst] = float(v) if op == "floor" else v
                        else:
                            v = uhandler(gi(ins.a))
                            iwr.add(ins.dst)
                            iregs[ins.dst] = v
            if nb is None:
                raise SimTrap(f"fell off the end of {func.name}")
            bi = nb

        resume = resume_map[bi]
        result = (iregs, fregs, n + icount, resume)
        if not tracked:
            return result

        # -- finalize the memo entry -------------------------------------
        if clean:
            abss = tuple(sorted(a for a, (_, f) in mrd.items() if not f))
            rels = tuple(sorted(a - fp for a, (_, f) in mrd.items() if f))
            fpk = False
        else:
            abss = tuple(sorted(mrd))
            rels = ()
            fpk = True
        rlo = min(rels) if rels else 0
        rhi = max(rels) if rels else 0
        amax = max(abss) if abss else -1
        sig = (
            tuple(sorted(iread)),
            tuple(sorted(fread)),
            abss,
            rels,
            fpk,
            rlo,
            rhi,
            amax,
        )
        try:
            gidx = self.groups.index(sig)
        except ValueError:
            if len(self.groups) >= SEG_MAX_GROUPS:
                return result
            gidx = len(self.groups)
            self.groups.append(sig)
        parts = [gidx]
        for i in sig[0]:
            parts.append(_canon(iread[i]))
        for i in sig[1]:
            parts.append(_canon(fread[i]))
        for a in abss:
            parts.append(_canon(mrd[a][0]))
        for s in rels:
            parts.append(_canon(mrd[fp + s][0]))
        if fpk:
            parts.append(fp)

        iw = tuple((i, iregs[i]) for i in sorted(iwr))
        fw = tuple((i, fregs[i]) for i in sorted(fwr))
        mwl = []
        wrl = []
        for ea, f in mwr.items():
            if clean and f:
                wrl.append(ea - fp)
                mwl.append((ea - fp, True, memory[ea]))
            else:
                mwl.append((ea, False, memory[ea]))
        wlo = min(wrl) if wrl else None
        whi = max(wrl) if wrl else None
        awhi = max((e for e, f, _ in mwl if not f), default=None)
        bsl = tuple(block_seq[b0:])
        brl = tuple(branch_log[g0:])
        msl = tuple(mem_addrs[m0:])
        mflags = tuple(mfl) if (clean and any(mfl)) else None
        self.table[tuple(parts)] = (
            icount,
            iw,
            fw,
            tuple(mwl),
            wlo,
            whi,
            awhi,
            resume,
            bsl,
            brl,
            msl,
            mflags,
            fp,
        )
        return result


class _FuncEmitter:
    """Compiles one MachineFunction into Python source."""

    def __init__(self, binary, fi, func, traced, memo_on, anchors):
        self.binary = binary
        self.fi = fi
        self.func = func
        self.traced = traced
        self.memo_on = memo_on
        self.anchors = anchors  # shared, namespace-wide
        self.blocks = func.blocks
        self.lines: list[str] = []
        self._ntemp = 0

        self.executed = [self._executed(b) for b in self.blocks]
        self._verify_staging()
        self._analyze_cfg()
        self._pick_anchors()
        self.dispatchable = set(self.sections)
        self.needs_check = [self._needs_check(i) for i in range(len(self.blocks))]
        self.has_checks = any(
            ins.addr is not None and ins.op != "lea" and not self._mem_safe(ins)
            for ex in self.executed
            for ins in ex
        )
        self.use_fp4 = traced and any(
            ins.addr is not None
            and ins.op != "lea"
            and ins.addr[0] == 1
            and ins.addr[2] is None
            and self._mem_safe(ins)
            for ex in self.executed
            for ins in ex
        )

    # -- prepass ---------------------------------------------------------

    @staticmethod
    def _executed(block):
        out = []
        for ins in block.instrs:
            out.append(ins)
            if ins.op in _TERMINATORS:
                break
        return out

    def _verify_staging(self):
        """Args must be staged in the same block as their call/print —
        anything else falls back.  When other instructions interrupt the
        staging (they may overwrite a staged register), each staged value
        is snapshotted into a local at its ``arg`` and the consumer reads
        the locals; otherwise it reads the registers directly."""
        self.consumers: dict = {}
        self.snapshots: dict = {}  # (block, pos) of an arg -> assignment
        for bi, ex in enumerate(self.executed):
            staged: list[str] = []
            positions: list[int] = []
            interrupted = False
            for pos, ins in enumerate(ex):
                op = ins.op
                if op == "arg":
                    staged.append(
                        f"r{ins.a}" if ins.a is not None else self._imm(ins.b_imm)
                    )
                    positions.append(pos)
                elif op == "farg":
                    staged.append(
                        f"f{ins.a}" if ins.a is not None else self._imm(ins.b_imm)
                    )
                    positions.append(pos)
                elif op in ("call", "print"):
                    if interrupted:
                        names = [self._temp() for _ in staged]
                        for at, name, value in zip(positions, names, staged):
                            self.snapshots[(bi, at)] = f"{name} = {value}"
                        staged = names
                    self.consumers[(bi, pos)] = staged
                    staged, positions, interrupted = [], [], False
                elif staged:
                    if op in _TERMINATORS:
                        raise _Unsupported(
                            f"arg staging interrupted by {op!r} in "
                            f"{self.func.name}"
                        )
                    interrupted = True
            if staged:
                raise _Unsupported(
                    f"arg staging crosses a block boundary in {self.func.name}"
                )

    def _analyze_cfg(self):
        nblocks = len(self.blocks)
        self.succs: list[list[int]] = []
        preds = [0] * nblocks
        for bi, block in enumerate(self.blocks):
            ex = self.executed[bi]
            term = ex[-1].op if ex and ex[-1].op in _TERMINATORS else None
            out = []
            if term in ("bt", "bf"):
                out.append(ex[-1].target)
                if block.fall_through is not None:
                    out.append(block.fall_through)
            elif term == "jmp":
                out.append(ex[-1].target)
            elif term == "ret":
                pass
            else:  # call or plain fall-through
                if block.fall_through is not None:
                    out.append(block.fall_through)
            self.succs.append(out)
            for s in out:
                preds[s] += 1
        self.sections = {0}
        for bi in range(nblocks):
            if preds[bi] > 1:
                self.sections.add(bi)
        self.loops = find_machine_loops(self.func)
        depth = {}
        for loop in self.loops:
            for bi in loop.body:
                depth[bi] = max(depth.get(bi, 0), loop.depth)
        self.block_depth = depth

    def _pick_anchors(self):
        """Anchor innermost call/print/ret-free loops for memoization."""
        self.anchored: list = []  # (loop, header, syn_id, anchor_name)
        self.anchor_headers: dict = {}  # header -> (loop, syn_id, name)
        if not (self.traced and self.memo_on):
            return
        nblocks = len(self.blocks)
        syn = nblocks
        for loop in self.loops:
            if loop.children or len(loop.body) > _MAX_BODY_BLOCKS:
                continue
            if any(
                ins.op in ("call", "print", "ret")
                for bi in loop.body
                for ins in self.executed[bi]
            ):
                continue
            self.anchored.append((loop, loop.header, syn))
            self.sections.add(loop.header)
            for bi in loop.body:
                for s in self.succs[bi]:
                    if s not in loop.body:
                        self.sections.add(s)
            syn += 1

    def _needs_check(self, bi):
        block = self.blocks[bi]
        ex = self.executed[bi]
        term = ex[-1].op if ex and ex[-1].op in _TERMINATORS else None
        if term in (None, "bt", "bf") and block.fall_through is None:
            return True  # a fell-off-the-end raise lives in this block
        for ins in ex:
            op = ins.op
            if op in _INT_DIV_OPS:
                return True
            if ins.addr is not None and op != "lea" and not self._mem_safe(ins):
                return True
        return False

    def _mem_safe(self, ins):
        """True when the access provably cannot trap (check elided)."""
        mode, abase, idx, off = ins.addr
        if idx is not None:
            return False
        c = abase + off
        if mode == 1:
            return 0 <= c < self.func.frame_size
        if mode == 0:
            return 0 <= c < self.binary.stack_base
        return False

    # -- source helpers --------------------------------------------------

    def _temp(self):
        self._ntemp += 1
        return f"_e{self._ntemp}"

    @staticmethod
    def _imm(v):
        if isinstance(v, float) and (v != v or v in (float("inf"), float("-inf"))):
            return f"float({repr(repr(v))})"
        return repr(v)

    def _line(self, ind, text):
        self.lines.append(" " * ind + text)

    def _budget_line(self, ind):
        self._line(ind, f'if n > budget: raise _T("{_BUDGET_MSG}" % budget)')

    def _flush_n(self, ind, pn):
        """Emit the accumulated instruction-count bump for the chain so far.

        Per-block ``n += len(instrs)`` adds are deferred and merged; they
        must be materialized before anything that observes ``n`` (budget
        checks, calls, returns, dispatch transfers, anchor probes)."""
        if pn[0]:
            self._line(ind, f"n += {pn[0]}")
            pn[0] = 0

    def _flush(self, ind, gbp, mep):
        if gbp:
            if len(gbp) == 1:
                self._line(ind, f"tb({gbp[0]})")
            else:
                self._line(ind, f"tbx(({', '.join(map(str, gbp))}))")
            gbp.clear()
        if mep:
            if len(mep) == 1:
                self._line(ind, f"tm({mep[0]})")
            else:
                self._line(ind, f"tmx(({', '.join(mep)}))")
            mep.clear()

    def _mem_index(self, ins, ind, mep, store):
        """Emit address computation + bounds check, queue the trace event;
        returns the expression to index ``memory`` with."""
        mode, abase, idx, off = ins.addr
        msg = "store out of range: word %d" if store else "load out of range: word %d"
        if mode == 0 and idx is None:
            c = abase + off
            safe = 0 <= c < self.binary.stack_base
            if not safe:
                self._line(
                    ind, f'if {c} < 0 or {c} >= _lm: raise _T("{msg}" % {c})'
                )
            if self.traced:
                mep.append(str(c << 2))
            return str(c)
        if mode == 1:
            c = abase + off
            base = "fp" if c == 0 else f"fp + {c}"
            safe = idx is None and 0 <= c < self.func.frame_size
        elif mode == 0:
            base = str(abase + off)
            safe = False
        else:
            base = f"r{abase}" if off == 0 else f"r{abase} + {off}"
            safe = False
        expr = base if idx is None else f"{base} + r{idx}"
        if safe:
            # Frame-local accesses need no temp: the address is a constant
            # offset from fp (loop-invariant within the function), so the
            # deferred trace expression can use the prologue's fp4.
            if self.traced:
                mep.append("fp4" if c == 0 else f"fp4 + {c << 2}")
            return f"({expr})" if " " in expr else expr
        name = self._temp()
        self._line(ind, f"{name} = {expr}")
        self._line(
            ind,
            f'if {name} < 0 or {name} >= _lm: raise _T("{msg}" % {name})',
        )
        if self.traced:
            mep.append(f"{name} << 2")
        return name

    # -- instruction emission --------------------------------------------

    def _emit_alu(self, ins, ind, mep):
        op = ins.op
        d = ins.dst
        handler = BINOPS.get(op)
        if handler is not None:
            fop = op[0] == "f"
            a = f"f{ins.a}" if fop else f"r{ins.a}"
            bimm = None
            if ins.addr is not None:
                b = f"memory[{self._mem_index(ins, ind, mep, store=False)}]"
            elif ins.b_reg is not None:
                b = f"f{ins.b_reg}" if fop else f"r{ins.b_reg}"
            else:
                bimm = ins.b_imm
                b = self._imm(bimm)
            M = "4294967295"
            if op in ("add", "sub", "mul"):
                sym = {"add": "+", "sub": "-", "mul": "*"}[op]
                self._line(ind, f"r{d} = ({a} {sym} {b}) & {M}")
            elif op in ("and", "or", "xor"):
                sym = {"and": "&", "or": "|", "xor": "^"}[op]
                if op == "and" and isinstance(bimm, int) and 0 <= bimm <= 0xFFFFFFFF:
                    # & with an in-range non-negative immediate already
                    # yields a masked non-negative result.
                    self._line(ind, f"r{d} = {a} & {bimm}")
                else:
                    self._line(ind, f"r{d} = ({a} {sym} {b}) & {M}")
            elif op in _INT_DIV_OPS:
                h = {"div": "_div", "udiv": "_udiv", "mod": "_mod", "umod": "_umod"}[op]
                self._line(ind, f"r{d} = {h}({a}, {b})")
            elif op == "shl":
                if isinstance(bimm, int):
                    self._line(ind, f"r{d} = ({a} << {bimm & 31}) & {M}")
                else:
                    self._line(ind, f"r{d} = ({a} << ({b} & 31)) & {M}")
            elif op == "shr":
                if isinstance(bimm, int):
                    self._line(ind, f"r{d} = ({a} & {M}) >> {bimm & 31}")
                else:
                    self._line(ind, f"r{d} = ({a} & {M}) >> ({b} & 31)")
            elif op == "sar":
                self._line(ind, f"r{d} = _sar({a}, {b})")
            elif op in ("cmpeq", "cmpne", "cmpltu", "cmpleu", "cmpgtu", "cmpgeu"):
                sym = {
                    "cmpeq": "==",
                    "cmpne": "!=",
                    "cmpltu": "<",
                    "cmpleu": "<=",
                    "cmpgtu": ">",
                    "cmpgeu": ">=",
                }[op]
                bm = str(bimm & 0xFFFFFFFF) if isinstance(bimm, int) else f"({b}) & {M}"
                self._line(ind, f"r{d} = 1 if ({a} & {M}) {sym} {bm} else 0")
            elif op in ("cmplt", "cmple", "cmpgt", "cmpge"):
                h = {"cmplt": "_slt", "cmple": "_sle", "cmpgt": "_sgt", "cmpge": "_sge"}[op]
                self._line(ind, f"r{d} = {h}({a}, {b})")
            elif op in ("fadd", "fsub", "fmul"):
                sym = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
                self._line(ind, f"f{d} = {a} {sym} ({b})")
            elif op == "fdiv":
                self._line(ind, f"f{d} = _fdiv({a}, {b})")
            elif op.startswith("fcmp"):
                sym = {
                    "fcmpeq": "==",
                    "fcmpne": "!=",
                    "fcmplt": "<",
                    "fcmple": "<=",
                    "fcmpgt": ">",
                    "fcmpge": ">=",
                }[op]
                self._line(ind, f"r{d} = 1 if {a} {sym} ({b}) else 0")
            else:
                raise _Unsupported(f"binop {op!r}")
            return
        if op not in UNOPS:
            raise _Unsupported(f"opcode {op!r}")
        a = ins.a
        if op == "neg":
            self._line(ind, f"r{d} = (-r{a}) & 4294967295")
        elif op == "not":
            self._line(ind, f"r{d} = (~r{a}) & 4294967295")
        elif op == "lognot":
            self._line(ind, f"r{d} = 0 if r{a} & 4294967295 else 1")
        elif op == "absi":
            self._line(ind, f"r{d} = _absi(r{a})")
        elif op == "itof":
            self._line(ind, f"f{d} = _itof(r{a})")
        elif op == "utof":
            self._line(ind, f"f{d} = float(r{a} & 4294967295)")
        elif op == "ftoi":
            self._line(ind, f"r{d} = _ftoi(f{a})")
        elif op == "fneg":
            self._line(ind, f"f{d} = -f{a}")
        elif op == "fabs":
            self._line(ind, f"f{d} = abs(f{a})")
        elif op in ("sqrt", "sin", "cos", "log", "exp", "floor"):
            self._line(ind, f"f{d} = _{op}(f{a})")
        else:
            raise _Unsupported(f"unop {op!r}")

    def _emit_ins(self, bi, pos, ins, ind, mep):
        op = ins.op
        if op in ("arg", "farg"):
            snapshot = self.snapshots.get((bi, pos))
            if snapshot is not None:
                self._line(ind, snapshot)
            return
        if op == "ld":
            self._line(
                ind, f"r{ins.dst} = memory[{self._mem_index(ins, ind, mep, False)}]"
            )
        elif op == "fld":
            self._line(
                ind, f"f{ins.dst} = memory[{self._mem_index(ins, ind, mep, False)}]"
            )
        elif op in ("st", "fst"):
            ea = self._mem_index(ins, ind, mep, store=True)
            if ins.a is not None:
                src = f"r{ins.a}" if op == "st" else f"f{ins.a}"
            else:
                src = self._imm(ins.b_imm)
            self._line(ind, f"memory[{ea}] = {src}")
        elif op == "li":
            self._line(ind, f"r{ins.dst} = {self._imm(ins.b_imm)}")
        elif op == "lif":
            self._line(ind, f"f{ins.dst} = {self._imm(ins.b_imm)}")
        elif op == "mov":
            self._line(ind, f"r{ins.dst} = r{ins.a}")
        elif op == "fmov":
            self._line(ind, f"f{ins.dst} = f{ins.a}")
        elif op == "lea":
            mode, abase, idx, off = ins.addr
            if mode == 1:
                c = abase + off
                expr = "fp" if c == 0 else f"fp + {c}"
            elif mode == 0:
                expr = str(abase + off)
            else:
                expr = f"r{abase}" if off == 0 else f"r{abase} + {off}"
            if idx is not None:
                expr = f"{expr} + r{idx}"
            self._line(ind, f"r{ins.dst} = {expr}")
        elif op == "print":
            args = ", ".join(self.consumers[(bi, pos)])
            self._line(ind, f"oap(_fo({ins.fmt!r}, [{args}]))")
        else:
            self._emit_alu(ins, ind, mep)

    # -- block / chain emission ------------------------------------------

    def _goto(self, src, tgt, ind, gbp, mep, pn):
        if tgt in self.dispatchable:
            self._flush(ind, gbp, mep)
            self._flush_n(ind, pn)
            if tgt <= src:
                self._budget_line(ind)
            did = tgt
            info = self.anchor_headers.get(tgt)
            if info is not None and src in info[0].back_edges:
                did = info[1]  # re-enter the loop body without re-probing
            self._line(ind, f"b = {did}")
            self._line(ind, "continue")
        else:
            self._chain(tgt, ind, gbp, mep, pn)

    def _fell(self, ind, gbp, mep):
        self._line(ind, f'raise _T("fell off the end of {self.func.name}")')

    def _arm(self, src, dest, brval, ind, gbp, mep, pn):
        if self.traced:
            self._line(ind, f"tbr({brval})")
        if dest is None:
            self._fell(ind, gbp, mep)
        else:
            self._goto(src, dest, ind, gbp, mep, pn)

    def _chain(self, bi, ind, gbp, mep, pn):
        block = self.blocks[bi]
        if self.traced:
            gbp.append(block.gbid)
        pn[0] += len(block.instrs)
        if self.needs_check[bi]:
            self._flush_n(ind, pn)
            self._budget_line(ind)
        ex = self.executed[bi]
        term = ex[-1].op if ex and ex[-1].op in _TERMINATORS else None
        body = ex[:-1] if term else ex
        for pos, ins in enumerate(body):
            self._emit_ins(bi, pos, ins, ind, mep)
        fall = block.fall_through
        if term is None:
            if fall is None:
                self._fell(ind, gbp, mep)
            else:
                self._goto(bi, fall, ind, gbp, mep, pn)
            return
        ins = ex[-1]
        if term == "jmp":
            self._goto(bi, ins.target, ind, gbp, mep, pn)
        elif term in ("bt", "bf"):
            taken_val = (ins.uid << 1) | 1
            nt_val = ins.uid << 1
            self._line(ind, f"if r{ins.a}:")
            if term == "bt":
                self._arm(bi, ins.target, taken_val, ind + 4,
                          list(gbp), list(mep), [pn[0]])
                self._line(ind, "else:")
                self._arm(bi, fall, nt_val, ind + 4,
                          list(gbp), list(mep), [pn[0]])
            else:
                self._arm(bi, fall, nt_val, ind + 4,
                          list(gbp), list(mep), [pn[0]])
                self._line(ind, "else:")
                self._arm(bi, ins.target, taken_val, ind + 4,
                          list(gbp), list(mep), [pn[0]])
        elif term == "ret":
            self._flush(ind, gbp, mep)
            self._flush_n(ind, pn)
            if not self.needs_check[bi]:
                # Completion parity: the reference engine budget-checks at
                # every block entry, so a return may never slip past it.
                self._budget_line(ind)
            if ins.a is not None:
                val = f"r{ins.a}"
            elif ins.b_reg is not None:
                val = f"f{ins.b_reg}"
            else:
                val = self._imm(ins.b_imm if ins.b_imm is not None else 0)
            self._line(ind, f"return ({val}, n)")
        else:  # call
            self._flush(ind, gbp, mep)
            self._flush_n(ind, pn)
            callee_idx = ins.target
            callee = self.binary.functions[callee_idx]
            staged = self.consumers[(bi, len(ex) - 1)]
            ncov = min(len(staged), len(callee.param_locs))
            t = self._temp()
            self._line(ind, f"{t} = fp + {self.func.frame_size}")
            self._line(ind, f"if {t} + {callee.frame_size} >= len(memory):")
            self._line(
                ind + 4,
                f"memory.extend([0] * max({t} + {callee.frame_size}"
                f" - len(memory) + 1, 16384))",
            )
            kwargs = []
            for p in range(ncov):
                kind, where, index = callee.param_locs[p]
                if where == "r":
                    reg = f"f{index}" if kind == "f" else f"r{index}"
                    kwargs.append(f"{reg}={staged[p]}")
                else:
                    self._line(ind, f"memory[{t} + {index}] = {staged[p]}")
            callargs = f"ctx, n, memory, {t}"
            if kwargs:
                callargs += ", " + ", ".join(kwargs)
            self._line(ind, f"_rv, n = _f{callee_idx}({callargs})")
            if self.has_checks:
                # The callee (or its callees) may have grown the stack.
                self._line(ind, "_lm = len(memory)")
            if ins.dst is not None:
                reg = f"f{ins.dst}" if ins.b_imm == "f" else f"r{ins.dst}"
                self._line(ind, f"{reg} = _rv")
            if fall is None:
                self._fell(ind, gbp, mep)
            else:
                self._goto(bi, fall, ind, gbp, mep, pn)

    # -- function emission -----------------------------------------------

    def emit(self) -> list[str]:
        func = self.func
        param_regs = []
        sig_parts = []
        for kind, where, index in func.param_locs:
            if where == "r":
                if kind == "f":
                    param_regs.append(("f", index))
                    sig_parts.append(f"f{index}=0.0")
                else:
                    param_regs.append(("r", index))
                    sig_parts.append(f"r{index}=0")
        sig = (", " + ", ".join(sig_parts)) if sig_parts else ""
        self._line(0, f"def _f{self.fi}(ctx, n, memory, fp{sig}):")
        if self.traced:
            self._line(4, "tb, tbx, tm, tmx, tbr, tbrx, oap, budget = ctx")
        else:
            self._line(4, "oap, budget = ctx")
        taken = set(param_regs)
        ints = [f"r{i}" for i in range(func.num_int_regs) if ("r", i) not in taken]
        floats = [f"f{i}" for i in range(func.num_float_regs) if ("f", i) not in taken]
        if ints:
            self._line(4, f"{' = '.join(ints)} = 0")
        if floats:
            self._line(4, f"{' = '.join(floats)} = 0.0")
        if self.has_checks:
            self._line(4, "_lm = len(memory)")
        if self.use_fp4:
            self._line(4, "fp4 = fp << 2")
        self._budget_line(4)
        self._line(4, "b = 0")
        self._line(4, "while 1:")

        # Register the anchors (they need the final section set).
        for loop, header, syn in self.anchored:
            resume_map = {s: s for s in self.dispatchable}
            resume_map[header] = syn
            anchor = _Anchor(
                func, header, frozenset(loop.body), resume_map,
                self.binary.stack_base,
            )
            name = f"_A{len(self.anchors)}"
            self.anchors.append(anchor)
            self.anchor_headers[header] = (loop, syn, name)

        entries = []  # (sort_key, dispatch_id, kind, block_idx)
        for s in sorted(self.sections):
            d = self.block_depth.get(s, 0)
            kind = "probe" if s in self.anchor_headers else "chain"
            entries.append(((-(d * 2), s), s, kind, s))
        for header, (loop, syn, name) in self.anchor_headers.items():
            d = self.block_depth.get(header, 0)
            entries.append(((-(d * 2 + 1), syn), syn, "syn", header))
        entries.sort()

        first = True
        for _, did, kind, bidx in entries:
            kw = "if" if first else "elif"
            first = False
            self._line(8, f"{kw} b == {did}:")
            if kind == "probe":
                loop, syn, name = self.anchor_headers[bidx]
                rtuple = ", ".join(f"r{i}" for i in range(func.num_int_regs))
                ftuple = ", ".join(f"f{i}" for i in range(func.num_float_regs))
                self._line(
                    12,
                    f"_t = {name}.entry(({rtuple}{',' if func.num_int_regs == 1 else ''}), "
                    f"({ftuple}{',' if func.num_float_regs == 1 else ''}), "
                    "fp, memory, n, ctx)",
                )
                self._line(12, "if _t is not None:")
                self._line(16, "_ri, _rf, n, b = _t")
                if func.num_int_regs:
                    self._line(
                        16,
                        f"{rtuple}{',' if func.num_int_regs == 1 else ''} = _ri",
                    )
                if func.num_float_regs:
                    self._line(
                        16,
                        f"{ftuple}{',' if func.num_float_regs == 1 else ''} = _rf",
                    )
                self._line(16, "continue")
                self._line(12, f"b = {syn}")
                self._line(12, "continue")
            else:
                self._chain(bidx, 12, [], [], [0])
        self._line(8, "else:")
        self._line(12, 'raise _T("fastexec: bad dispatch %r" % b)')
        self._line(0, "")
        return self.lines


class _Unit:
    __slots__ = ("entry", "anchors", "source", "traced")

    def __init__(self, entry, anchors, source, traced):
        self.entry = entry
        self.anchors = anchors
        self.source = source
        self.traced = traced


def _build_unit(binary: Binary, traced: bool, memo_on: bool) -> _Unit:
    anchors: list[_Anchor] = []
    lines: list[str] = []
    for fi, func in enumerate(binary.functions):
        emitter = _FuncEmitter(binary, fi, func, traced, memo_on, anchors)
        lines.extend(emitter.emit())
    source = "\n".join(lines)
    namespace: dict = dict(_HELPERS)
    for i, anchor in enumerate(anchors):
        namespace[f"_A{i}"] = anchor
    exec(compile(source, "<repro.sim.fastexec>", "exec"), namespace)
    unit = _Unit(namespace[f"_f{binary.entry}"], anchors, source, traced)
    if isinstance(EXEC_DEBUG, dict):
        EXEC_DEBUG.setdefault("units", []).append(
            {
                "traced": traced,
                "memo": memo_on,
                "functions": len(binary.functions),
                "anchors": len(anchors),
                "source_lines": len(lines),
            }
        )
    return unit


_UNIT_CACHE: dict = {}


def _weak_get(cache, obj, build):
    key = id(obj)
    entry = cache.get(key)
    if entry is not None:
        ref, value = entry
        if ref() is obj:
            return value
    value = build(obj)

    def _drop(_ref, cache=cache, key=key):
        cache.pop(key, None)

    cache[key] = (weakref.ref(obj, _drop), value)
    return value


def _compiled_unit(binary: Binary, collect_trace: bool) -> "_Unit | None":
    """The (weakly cached) compiled unit for *binary*, or None when the
    binary's shape is unsupported.  Traced units memoize segments."""
    traced = bool(collect_trace)
    variants = _weak_get(_UNIT_CACHE, binary, lambda b: {})
    if traced not in variants:
        try:
            variants[traced] = _build_unit(binary, traced, traced)
        except _Unsupported as exc:
            if isinstance(EXEC_DEBUG, dict):
                EXEC_DEBUG.setdefault("fallbacks", []).append(str(exc))
            variants[traced] = None
    return variants[traced]


def compiled_cache_size() -> int:
    """Number of live binaries with compiled units (for tests)."""
    return len(_UNIT_CACHE)


def run_compiled(
    binary: Binary,
    max_instructions: int,
    stack_words: int,
    collect_trace: bool,
) -> "ExecutionTrace | None":
    """Run *binary* on its compiled unit; same contract as
    :meth:`repro.sim.functional.Simulator.run`.  Returns ``None`` when
    this engine cannot run the binary, so the caller falls back."""
    unit = _compiled_unit(binary, collect_trace)
    if unit is None or binary.functions[binary.entry].frame_size > stack_words:
        return None
    memory: list = [0] * (binary.stack_base + stack_words)
    base = binary.data_base
    memory[base : base + len(binary.data_image)] = list(binary.data_image)
    block_seq: list[int] = []
    mem_addrs: list[int] = []
    branch_log: list[int] = []
    output: list[str] = []
    if collect_trace:
        ctx = (
            block_seq.append,
            block_seq.extend,
            mem_addrs.append,
            mem_addrs.extend,
            branch_log.append,
            branch_log.extend,
            output.append,
            max_instructions,
        )
    else:
        ctx = (output.append, max_instructions)
    old_limit = sys.getrecursionlimit()
    if old_limit < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        exit_value, instructions = unit.entry(ctx, 0, memory, binary.stack_base)
    except RecursionError:
        return None
    finally:
        if old_limit < _RECURSION_LIMIT:
            sys.setrecursionlimit(old_limit)
    return ExecutionTrace.from_buffers(
        binary,
        block_seq,
        mem_addrs,
        branch_log,
        output,
        exit_value,
        instructions,
    )
