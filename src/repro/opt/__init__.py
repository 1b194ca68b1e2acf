"""Optimization passes and the -O0..-O3 pass pipelines.

The pipelines mirror GCC's first-order behaviour, which is what the
paper's evaluation reads off (Fig. 5: ~1/3 dynamic-instruction drop from
O0 to O1+; Fig. 6: load fraction shrinks at O2 because copy propagation
removes reloads):

* **O0** — no passes; locals memory-resident (set at IR build time).
* **O1** — scalar promotion (build-time) + constant folding + local CSE
  + dead-code elimination.
* **O2** — O1 + copy propagation + loop-invariant code motion + strength
  reduction, run to a fixpoint.
* **O3** — O2 + inlining of small leaf functions + unrolling of small
  counted loops.
"""

from repro.opt.constant_folding import fold_constants
from repro.opt.copy_propagation import propagate_copies
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.fuse import fuse_memory_operands
from repro.opt.inline import inline_small_functions
from repro.opt.licm import hoist_loop_invariants
from repro.opt.pipeline import OPT_LEVELS
from repro.opt.regalloc import Allocation, allocate_registers
from repro.opt.strength import reduce_strength
from repro.opt.unroll import unroll_loops

__all__ = [
    "Allocation",
    "OPT_LEVELS",
    "allocate_registers",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "fold_constants",
    "fuse_memory_operands",
    "hoist_loop_invariants",
    "inline_small_functions",
    "propagate_copies",
    "reduce_strength",
    "unroll_loops",
]
