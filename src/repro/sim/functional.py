"""Functional simulator for linked binaries.

Executes machine code with 32-bit integer / double float semantics (shared
with the constant folder via :mod:`repro.ir.ops_eval`) and records an
:class:`repro.sim.trace.ExecutionTrace`:

* the dynamic basic-block id sequence (one append per block),
* every data memory byte address in program order,
* every conditional-branch outcome as ``(uid << 1) | taken``.

All heavier analyses (cache, predictors, timing, SFGL) replay the trace
offline, keeping this inner loop as lean as a Python interpreter can be.
"""

from __future__ import annotations

from repro.ir.ops_eval import BINOPS, UNOPS, to_signed
from repro.isa.machine import AddressMode, Binary
from repro.sim.trace import ExecutionTrace

_STACK_WORDS = 1 << 16
_DEFAULT_MAX_INSTRUCTIONS = 200_000_000


class SimTrap(Exception):
    """Raised on run-time faults (division by zero, bad address, ...)."""


def _format_output(fmt: str, values: list) -> str:
    """C-style printf formatting for the supported conversions."""
    out: list[str] = []
    i = 0
    vi = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        if i + 1 < len(fmt) and fmt[i + 1] == "%":
            out.append("%")
            i += 2
            continue
        j = i + 1
        while j < len(fmt) and (fmt[j].isdigit() or fmt[j] == "."):
            j += 1
        spec = fmt[i + 1 : j]
        conv = fmt[j]
        value = values[vi]
        vi += 1
        if conv == "d":
            out.append(format(to_signed(int(value)), spec or "d"))
        elif conv == "u":
            out.append(format(int(value) & 0xFFFFFFFF, spec or "d"))
        elif conv == "x":
            out.append(format(int(value) & 0xFFFFFFFF, (spec or "") + "x"))
        elif conv == "c":
            out.append(chr(int(value) & 0xFF))
        elif conv == "f":
            precision = spec.split(".")[1] if "." in spec else "6"
            out.append(f"{float(value):.{precision}f}")
        else:  # pragma: no cover - semantics rejects other conversions
            raise SimTrap(f"unsupported conversion %{conv}")
        i = j + 1
    return "".join(out)


class Simulator:
    """Interprets a linked binary."""

    def __init__(
        self,
        binary: Binary,
        max_instructions: int = _DEFAULT_MAX_INSTRUCTIONS,
        stack_words: int = _STACK_WORDS,
    ):
        self.binary = binary
        self.max_instructions = max_instructions
        self.stack_words = stack_words

    def run(self, collect_trace: bool = True) -> ExecutionTrace:
        """Execute from ``main`` to completion; returns the trace.

        With ``collect_trace=False`` the block/memory/branch logs stay
        empty (fast correctness-only runs).

        Runs on :mod:`repro.sim.fastexec`, the block-compiling engine,
        which produces a byte-identical trace several times faster, and
        falls back to :meth:`_run_python`, this reference interpreter,
        for the binaries that engine cannot run.
        """
        from repro.sim import fastexec

        trace = fastexec.run_compiled(
            self.binary, self.max_instructions, self.stack_words, collect_trace
        )
        return self._run_python(collect_trace) if trace is None else trace

    def _run_python(self, collect_trace: bool = True) -> ExecutionTrace:
        """The reference per-instruction interpreter."""
        binary = self.binary
        memory: list = [0] * (binary.stack_base + self.stack_words)
        base = binary.data_base
        memory[base : base + len(binary.data_image)] = list(binary.data_image)
        memory_len = len(memory)

        block_seq: list[int] = []
        mem_addrs: list[int] = []
        branch_log: list[int] = []
        output: list[str] = []
        trace_blocks = block_seq.append if collect_trace else None
        trace_mem = mem_addrs.append if collect_trace else None
        trace_branch = branch_log.append if collect_trace else None

        binops = BINOPS
        unops = UNOPS

        func = binary.functions[binary.entry]
        iregs: list = [0] * func.num_int_regs
        fregs: list = [0.0] * func.num_float_regs
        fp = binary.stack_base
        sp = fp + func.frame_size
        # Call stack entries: (func, block_idx_to_resume, iregs, fregs, fp,
        #                      dst_reg, dst_kind)
        call_stack: list[tuple] = []
        arg_stage: list = []
        block_idx = 0
        instructions = 0
        budget = self.max_instructions
        exit_value = 0

        while True:
            block = func.blocks[block_idx]
            if trace_blocks is not None:
                trace_blocks(block.gbid)
            instrs = block.instrs
            instructions += len(instrs)
            if instructions > budget:
                raise SimTrap(f"instruction budget exceeded ({budget})")
            next_block = block.fall_through
            for ins in instrs:
                op = ins.op
                if op == "ld" or op == "fld":
                    mode, abase, idx, off = ins.addr
                    if mode == 1:
                        ea = fp + abase + off
                    elif mode == 0:
                        ea = abase + off
                    else:
                        ea = iregs[abase] + off
                    if idx is not None:
                        ea += iregs[idx]
                    if ea >= memory_len or ea < 0:
                        raise SimTrap(f"load out of range: word {ea}")
                    if trace_mem is not None:
                        trace_mem(ea << 2)
                    if op == "ld":
                        iregs[ins.dst] = memory[ea]
                    else:
                        fregs[ins.dst] = memory[ea]
                elif op == "st" or op == "fst":
                    mode, abase, idx, off = ins.addr
                    if mode == 1:
                        ea = fp + abase + off
                    elif mode == 0:
                        ea = abase + off
                    else:
                        ea = iregs[abase] + off
                    if idx is not None:
                        ea += iregs[idx]
                    if ea >= memory_len or ea < 0:
                        raise SimTrap(f"store out of range: word {ea}")
                    if trace_mem is not None:
                        trace_mem(ea << 2)
                    if ins.a is not None:
                        memory[ea] = iregs[ins.a] if op == "st" else fregs[ins.a]
                    else:
                        memory[ea] = ins.b_imm
                elif op == "li":
                    iregs[ins.dst] = ins.b_imm
                elif op == "lif":
                    fregs[ins.dst] = ins.b_imm
                elif op == "mov":
                    iregs[ins.dst] = iregs[ins.a]
                elif op == "fmov":
                    fregs[ins.dst] = fregs[ins.a]
                elif op == "bt" or op == "bf":
                    cond = iregs[ins.a]
                    jump = bool(cond) if op == "bt" else not cond
                    if trace_branch is not None:
                        trace_branch((ins.uid << 1) | jump)
                    if jump:
                        next_block = ins.target
                    break  # terminator
                elif op == "jmp":
                    next_block = ins.target
                    break
                elif op == "lea":
                    mode, abase, idx, off = ins.addr
                    if mode == 1:
                        ea = fp + abase + off
                    elif mode == 0:
                        ea = abase + off
                    else:  # pragma: no cover - lea of REG base unused
                        ea = iregs[abase] + off
                    if idx is not None:
                        ea += iregs[idx]
                    iregs[ins.dst] = ea
                elif op == "arg":
                    arg_stage.append(iregs[ins.a] if ins.a is not None else ins.b_imm)
                elif op == "farg":
                    arg_stage.append(fregs[ins.a] if ins.a is not None else ins.b_imm)
                elif op == "call":
                    callee = binary.functions[ins.target]
                    call_stack.append(
                        (func, next_block, iregs, fregs, fp, ins.dst, ins.b_imm)
                    )
                    new_iregs = [0] * callee.num_int_regs
                    new_fregs = [0.0] * callee.num_float_regs
                    new_fp = sp
                    sp = new_fp + callee.frame_size
                    if sp >= memory_len:
                        extension = max(sp - memory_len + 1, 1 << 14)
                        memory.extend([0] * extension)
                        memory_len = len(memory)
                    for value, (kind, where, index) in zip(
                        arg_stage, callee.param_locs
                    ):
                        if where == "r":
                            if kind == "f":
                                new_fregs[index] = value
                            else:
                                new_iregs[index] = value
                        else:  # spilled parameter: straight to the frame
                            memory[new_fp + index] = value
                    arg_stage.clear()
                    func = callee
                    iregs = new_iregs
                    fregs = new_fregs
                    fp = new_fp
                    next_block = 0
                    break
                elif op == "ret":
                    if ins.a is not None:
                        value = iregs[ins.a]
                    elif ins.b_reg is not None:
                        value = fregs[ins.b_reg]
                    else:
                        value = ins.b_imm if ins.b_imm is not None else 0
                    if not call_stack:
                        exit_value = value
                        return ExecutionTrace.from_buffers(
                            binary,
                            block_seq,
                            mem_addrs,
                            branch_log,
                            output,
                            exit_value,
                            instructions,
                        )
                    sp = fp
                    func, resume_block, iregs, fregs, fp, dst, dst_kind = call_stack.pop()
                    if dst is not None:
                        if dst_kind == "f":
                            fregs[dst] = value
                        else:
                            iregs[dst] = value
                    next_block = resume_block
                    break
                elif op == "print":
                    # Arguments were staged by preceding arg/farg ops.
                    output.append(_format_output(ins.fmt, arg_stage))
                    arg_stage.clear()
                else:
                    # Generic ALU path (including fused memory operands).
                    a = ins.a
                    handler = binops.get(op)
                    if handler is not None:
                        if ins.addr is not None:
                            mode, abase, idx, off = ins.addr
                            if mode == 1:
                                ea = fp + abase + off
                            elif mode == 0:
                                ea = abase + off
                            else:
                                ea = iregs[abase] + off
                            if idx is not None:
                                ea += iregs[idx]
                            if ea >= memory_len or ea < 0:
                                raise SimTrap(f"load out of range: word {ea}")
                            if trace_mem is not None:
                                trace_mem(ea << 2)
                            b = memory[ea]
                        elif ins.b_reg is not None:
                            b = (
                                fregs[ins.b_reg]
                                if op[0] == "f" and op not in ("floor",)
                                else iregs[ins.b_reg]
                            )
                        else:
                            b = ins.b_imm
                        if op[0] == "f":
                            lhs = fregs[a]
                            try:
                                result = handler(lhs, b)
                            except ZeroDivisionError as exc:
                                raise SimTrap("float division by zero") from exc
                            if "cmp" in op:
                                iregs[ins.dst] = result
                            else:
                                fregs[ins.dst] = result
                        else:
                            lhs = iregs[a]
                            try:
                                result = handler(lhs, b)
                            except ZeroDivisionError as exc:
                                raise SimTrap("integer division by zero") from exc
                            iregs[ins.dst] = result
                    else:
                        uhandler = unops.get(op)
                        if uhandler is None:
                            raise SimTrap(f"unknown opcode {op!r}")
                        if op in ("itof", "utof"):
                            fregs[ins.dst] = uhandler(iregs[a])
                        elif op == "ftoi":
                            iregs[ins.dst] = uhandler(fregs[a])
                        elif op in ("fneg", "sqrt", "sin", "cos", "log", "exp",
                                    "fabs", "floor"):
                            try:
                                value = uhandler(fregs[a])
                            except ValueError as exc:
                                raise SimTrap(f"math domain error in {op}") from exc
                            if op == "floor":
                                fregs[ins.dst] = float(value)
                            else:
                                fregs[ins.dst] = value
                        else:
                            iregs[ins.dst] = uhandler(iregs[a])
            else:
                # No terminator fired: fall through.
                pass
            if next_block is None:
                raise SimTrap(f"fell off the end of {func.name}")
            block_idx = next_block


def run_binary(binary: Binary, collect_trace: bool = True, **kwargs) -> ExecutionTrace:
    """Convenience wrapper: simulate *binary* and return its trace."""
    return Simulator(binary, **kwargs).run(collect_trace=collect_trace)
