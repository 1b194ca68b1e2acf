"""Local CSE keeps its kill indexes in step with a plain rescan.

``reference_cse_function`` is the straightforward formulation: at every
definition it rescans each available expression for the redefined temp.
The pass proper indexes each expression's temps once, when it becomes
available; both must produce the same binaries and the same
``opt_stats`` on every builtin workload, ISA and opt level.
"""

import pickle

import pytest

from repro.cc.driver import compile_program
from repro.ir.instructions import (
    BasicBlockRef, BinOp, Call, Const, IRFunction, Print, Store, Temp, UnOp,
)
from repro.opt import cse
from repro.workloads import get_workload, workload_names

ISAS = ("x86", "x86_64", "ia64")
LEVELS = (0, 1, 2, 3)
BUILTINS = tuple(name for name in workload_names()
                 if not name.startswith("synth:"))


def reference_cse_function(func) -> int:
    changes = 0
    for blk in func.blocks:
        available = {}
        for i, instr in enumerate(blk.instrs):
            if isinstance(instr, (Store, Call, Print)):
                available = {key: temp for key, temp in available.items()
                             if key[0] != "mem"}
                continue
            key = cse._expr_key(instr)
            definition = instr.defs()
            if key is not None and key in available:
                op = "fmov" if instr.defs().kind == "f" else "mov"
                blk.instrs[i] = UnOp(op, instr.defs(), available[key])
                changes += 1
                definition = blk.instrs[i].defs()
                key = None
            if definition is not None:
                dead = [k for k, temp in available.items()
                        if temp == definition
                        or definition.id in cse._mentioned_temps(k)]
                for k in dead:
                    del available[k]
            if key is not None and definition is not None:
                available[key] = definition
    return changes


@pytest.mark.parametrize("redefine", [False, True])
def test_redefined_holder_kills_its_expression(redefine):
    a, b, x, y = Temp(1), Temp(2), Temp(3), Temp(4)
    instrs = [BinOp("add", x, a, b), BinOp("add", y, a, b)]
    if redefine:
        instrs.insert(1, UnOp("mov", x, Const(7)))
    results = []
    for run in (cse.eliminate_common_subexpressions_function,
                reference_cse_function):
        block = BasicBlockRef("entry", list(instrs))
        results.append((run(IRFunction("f", blocks=[block])), block.instrs))
    assert results[0] == results[1]
    changes, out = results[0]
    assert changes == (0 if redefine else 1)
    assert out[-1] == (BinOp("add", y, a, b) if redefine
                       else UnOp("mov", y, x))


@pytest.mark.parametrize("workload", BUILTINS)
def test_indexed_kills_match_the_rescan(workload, monkeypatch):
    source = get_workload(workload).source_for("small")
    grid = [(isa, level) for isa in ISAS for level in LEVELS]
    indexed = [pickle.dumps(compile_program(source, isa, level))
               for isa, level in grid]
    monkeypatch.setattr(cse, "eliminate_common_subexpressions_function",
                        reference_cse_function)
    rescan = [pickle.dumps(compile_program(source, isa, level))
              for isa, level in grid]
    for coord, fast, slow in zip(grid, indexed, rescan):
        assert fast == slow, coord
