"""Block-local common-subexpression elimination (local value numbering).

Within a basic block, a pure expression ``(op, operands)`` that was
already computed into a still-valid temp is replaced by a move from that
temp.  Loads participate too, keyed on their address, and are invalidated
by any store or call (conservative alias model: all memory is one
location class).  An expression also dies when any temp it mentions is
redefined.
"""

from __future__ import annotations

from repro.ir.instructions import (
    Address,
    BinOp,
    Call,
    Const,
    IRFunction,
    IRProgram,
    Load,
    LoadAddress,
    Print,
    StackSlot,
    Store,
    Temp,
    UnOp,
)
from repro.ir.ops_eval import COMMUTATIVE_OPS


def _operand_key(operand) -> tuple | None:
    if isinstance(operand, Temp):
        return ("t", operand.id, operand.kind)
    if isinstance(operand, Const):
        return ("c", operand.value, operand.kind)
    return None


def _address_key(addr: Address) -> tuple | None:
    if isinstance(addr.base, str):
        base_key = ("g", addr.base)
    elif isinstance(addr.base, StackSlot):
        base_key = ("s", addr.base.name)
    else:
        base_key = ("t", addr.base.id)
    index_key = _operand_key(addr.index) if addr.index is not None else None
    return (base_key, index_key)


def _expr_key(instr) -> tuple | None:
    """Hashable signature of a pure computation, or None if not eligible."""
    if isinstance(instr, BinOp):
        if isinstance(instr.rhs, Address):
            return None  # fused memory operand: leave alone
        lhs, rhs = _operand_key(instr.lhs), _operand_key(instr.rhs)
        if instr.op in COMMUTATIVE_OPS and rhs < lhs:
            lhs, rhs = rhs, lhs
        return ("bin", instr.op, lhs, rhs)
    if isinstance(instr, UnOp) and instr.op not in ("mov", "fmov"):
        return ("un", instr.op, _operand_key(instr.src))
    if isinstance(instr, LoadAddress):
        base = instr.base if isinstance(instr.base, str) else instr.base.name
        return ("lea", base)
    if isinstance(instr, Load):
        return ("mem", _address_key(instr.addr))
    return None


def _mentioned_temps(key: tuple) -> set[int]:
    temps: set[int] = set()

    def walk(item) -> None:
        if isinstance(item, tuple):
            if len(item) >= 2 and item[0] == "t" and isinstance(item[1], int):
                temps.add(item[1])
            for sub in item:
                walk(sub)

    walk(key)
    return temps


def eliminate_common_subexpressions_function(func: IRFunction) -> int:
    changes = 0
    for blk in func.blocks:
        available: dict[tuple, Temp] = {}
        # Kill indexes, filled as keys become available: temp id -> keys
        # mentioning it, value temp -> keys it holds, and the load keys.
        # Entries may outlive their key; a kill pops only live ones.
        mentions: dict[int, list[tuple]] = {}
        holders: dict[Temp, list[tuple]] = {}
        loads: list[tuple] = []
        for i, instr in enumerate(blk.instrs):
            if isinstance(instr, (Store, Call, Print)):
                # Conservative: all loads die on stores and calls.
                for k in loads:
                    available.pop(k, None)
                loads.clear()
                continue
            key = _expr_key(instr)
            definition = instr.defs()
            if key is not None and key in available:
                source = available[key]
                op = "fmov" if instr.defs().kind == "f" else "mov"
                blk.instrs[i] = UnOp(op, instr.defs(), source)
                changes += 1
                definition = blk.instrs[i].defs()
                key = None
            if definition is not None:
                # Kill expressions that mention the redefined temp, and
                # any availability produced by an earlier def of it.
                for k in mentions.pop(definition.id, ()):
                    available.pop(k, None)
                for k in holders.pop(definition, ()):
                    if available.get(k) == definition:
                        del available[k]
            if key is not None and definition is not None:
                available[key] = definition
                for temp_id in _mentioned_temps(key):
                    mentions.setdefault(temp_id, []).append(key)
                holders.setdefault(definition, []).append(key)
                if key[0] == "mem":
                    loads.append(key)
    return changes


def eliminate_common_subexpressions(program: IRProgram) -> int:
    """Run local CSE program-wide; returns replacement count."""
    return sum(
        eliminate_common_subexpressions_function(func)
        for func in program.functions.values()
    )
