"""Optimization pipelines for the -O0..-O3 levels.

``optimize_ir`` applies IR-level passes for a given level; the AST-level
O3 transforms (inlining, unrolling) are applied by the compiler driver
before lowering.  Pass ordering follows the classic recipe: canonicalize
(fold) → clean copies → value-number → strength-reduce → hoist → clean up.
"""

from __future__ import annotations

from repro.ir.instructions import IRProgram
from repro.opt.constant_folding import fold_constants
from repro.opt.copy_propagation import propagate_copies
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.fuse import fuse_memory_operands
from repro.opt.licm import hoist_loop_invariants
from repro.opt.promote_globals import promote_globals
from repro.opt.strength import reduce_strength

OPT_LEVELS = (0, 1, 2, 3)


def optimize_ir(
    program: IRProgram,
    opt_level: int,
    cisc_fusion: bool = False,
    allocatable_int_regs: int = 16,
) -> dict:
    """Run the IR pass pipeline for *opt_level* in place.

    ``allocatable_int_regs`` gates the register-pressure-sensitive passes
    (LICM, global promotion): on a register-starved target like x86,
    hoisting aggressively just converts reloads into spills, so those
    passes throttle back — mirroring how production compilers tune for
    CISC register files.

    Returns a statistics dict (pass name -> change count) for
    introspection and tests.
    """
    stats: dict[str, int] = {}

    def run(name: str, func, *args) -> None:
        stats[name] = stats.get(name, 0) + func(program, *args)

    if opt_level >= 1:
        run("fold", fold_constants)
        run("cse", eliminate_common_subexpressions)
        run("fold", fold_constants)
        run("dce", eliminate_dead_code)
        run("promote", promote_globals, allocatable_int_regs)
        run("copyprop", propagate_copies)
        run("cse", eliminate_common_subexpressions)
        run("dce", eliminate_dead_code)
    if opt_level >= 2:
        for _ in range(2):
            run("copyprop", propagate_copies)
            run("fold", fold_constants)
            run("cse", eliminate_common_subexpressions)
            run("strength", reduce_strength)
            run("dce", eliminate_dead_code)
        # Promotion already ran at O1; re-running would stack more live
        # ranges onto register-starved targets and spill.  Wide targets
        # get a second promotion round plus LICM.
        if allocatable_int_regs >= 8:
            run("promote", promote_globals, allocatable_int_regs)
            run("licm", hoist_loop_invariants)
        run("copyprop", propagate_copies)
        run("fold", fold_constants)
        run("cse", eliminate_common_subexpressions)
        run("dce", eliminate_dead_code)
    if opt_level >= 1 and cisc_fusion:
        run("fuse", fuse_memory_operands)
    return stats
