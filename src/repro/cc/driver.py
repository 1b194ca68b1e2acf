"""The compiler driver, playing the role GCC plays in the paper.

``compile_program(source, isa, opt_level)`` runs the full pipeline:

    frontend: parse → analyze  [O3: inline → analyze, unroll → analyze]
    backend:  lower (O0: memory-resident locals / O1+: promoted scalars)
              → IR passes → [CISC O1+: load-op fusion] → register
              allocation → code generation → link

The frontend runs once per source text per process. ``_frontend`` is a
bounded LRU memo keyed by ``(source, inline, unroll)``: O0–O2 on every
ISA share one analysed AST, and the O3 variants are built from the
cached variant below them. Lowering only reads the AST, and the AST
never leaves this module (``compile_to_ir`` returns the IR, and
``CompileResult`` holds only the binary and pass statistics), so no
caller can change a cached entry.

The optimization-level behaviours are chosen to reproduce the first-order
compiler effects the paper measures: the O0→O1 dynamic-instruction drop
(Fig. 5), the shrinking load fraction at O2 (Fig. 6), and the extra
static-scheduling benefit IA64 sees from O2/O3 (Fig. 11).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.lang.parser import parse_program
from repro.lang.semantics import analyze
from repro.ir.builder import lower_program
from repro.ir.verify import verify_program
from repro.isa.linker import link_program
from repro.isa.machine import Binary
from repro.isa.targets import ISA, ISA_BY_NAME, X86
from repro.opt.inline import inline_small_functions
from repro.opt.pipeline import optimize_ir
from repro.opt.unroll import unroll_loops

#: Frontend variants kept per process. One source has at most three
#: (plain, inlined, inlined + unrolled).
FRONTEND_CACHE_SIZE = 64


@dataclass
class CompileResult:
    """A compiled binary plus the IR pass statistics (pass name → change
    count). This is what the engine stores for a compile."""

    binary: Binary
    opt_stats: dict = field(default_factory=dict)


def _resolve_isa(isa: ISA | str) -> ISA:
    if isinstance(isa, str):
        return ISA_BY_NAME[isa]
    return isa


@functools.lru_cache(maxsize=FRONTEND_CACHE_SIZE)
def _frontend(source: str, inline: bool, unroll: bool):
    """``(program, analyzer)`` for one variant of *source*, shared by
    every compile that asks for it; callers must not modify either."""
    if unroll:
        program = unroll_loops(_frontend(source, inline, False)[0])
    elif inline:
        program = inline_small_functions(_frontend(source, False, False)[0])
    else:
        program = parse_program(source)
    return program, analyze(program)


def compile_to_ir(
    source: str,
    opt_level: int = 0,
    cisc_fusion: bool = False,
    allocatable_int_regs: int = 16,
):
    """Front half of the pipeline: source to optimized IR.

    Returns ``(ir, stats)``; *stats* maps pass name to change count.
    """
    inline = opt_level >= 3
    # Unrolling doubles loop-body register pressure; production
    # compilers throttle it on register-starved targets, so do we.
    unroll = inline and allocatable_int_regs >= 8
    program, analyzer = _frontend(source, inline, unroll)
    ir = lower_program(program, analyzer, promote_scalars=opt_level >= 1)
    verify_program(ir)
    stats = optimize_ir(
        ir, opt_level, cisc_fusion=cisc_fusion,
        allocatable_int_regs=allocatable_int_regs,
    )
    verify_program(ir)
    return ir, stats


def compile_program(source: str, isa: ISA | str = X86, opt_level: int = 0) -> CompileResult:
    """Compile mini-C *source* for *isa* at *opt_level* (0..3)."""
    if opt_level not in (0, 1, 2, 3):
        raise ValueError(f"unsupported optimization level {opt_level}")
    target = _resolve_isa(isa)
    ir, stats = compile_to_ir(
        source,
        opt_level=opt_level,
        cisc_fusion=target.cisc_fusion,
        allocatable_int_regs=target.allocatable_int,
    )
    binary = link_program(ir, target, opt_level)
    return CompileResult(binary=binary, opt_stats=stats)
