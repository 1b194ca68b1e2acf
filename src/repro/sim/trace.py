"""Execution traces and trace-level analyses.

An :class:`ExecutionTrace` is the single artifact a functional run
produces; instruction mixes, block/edge counts, branch outcome streams and
memory address streams are all derived from it offline — the same
"profile once, analyze many times" structure the paper gets from Pin.

A trace is *packed*: its three event streams are :class:`array.array`
buffers of the narrowest unsigned type that holds every value (uint8,
uint16 or uint32; int64 past 32 bits or below 0), narrowed once when the trace
is built (:func:`pack_buffer`).  They pickle as raw bytes, iterate as
python ints for the pure-python consumers, and numpy reads them
zero-copy through :func:`as_array`.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.isa.machine import Binary, KLASS_NAMES

_KLASS_INDEX = {name: i for i, name in enumerate(KLASS_NAMES)}

# Paper-style 4-way mix (Fig. 6): loads / stores / branches / others.
MIX_CATEGORIES = ("loads", "stores", "branches", "others")


@dataclass
class InstructionMix:
    """Dynamic instruction counts by class."""

    by_klass: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.by_klass.values())

    def fraction(self, klass: str) -> float:
        total = self.total
        return self.by_klass.get(klass, 0) / total if total else 0.0

    def paper_mix(self) -> dict[str, float]:
        """Fractions in the paper's four categories (Fig. 6).

        Conditional branches and unconditional jumps both count as
        "branches"; calls/returns and everything else fall under
        "others".
        """
        total = self.total
        if not total:
            return {name: 0.0 for name in MIX_CATEGORIES}
        loads = self.by_klass.get("load", 0)
        stores = self.by_klass.get("store", 0)
        branches = self.by_klass.get("branch", 0) + self.by_klass.get("jump", 0)
        others = total - loads - stores - branches
        return {
            "loads": loads / total,
            "stores": stores / total,
            "branches": branches / total,
            "others": others / total,
        }


#: The unsigned typecodes a buffer packs into, narrowest first.
_NARROW_FIRST = ("B", "H", "I")
_CODE_MAX = {code: (1 << (8 * array(code).itemsize)) - 1
             for code in _NARROW_FIRST}


def pack_buffer(values) -> array:
    """*values* (non-negative ints) as the narrowest unsigned array.

    One C-level pass converts to C ``unsigned long`` (the fastest
    conversion :mod:`array` has); a numpy max over that buffer then
    picks uint8, uint16 or uint32, and only values past 32 bits keep
    int64.
    """
    try:
        wide = array("L", values)
    except OverflowError:  # a negative value (or one past 64 bits)
        return array("q", values)
    if not wide:
        return array("B")
    view = np.frombuffer(wide, dtype=wide.typecode)
    top = int(view.max())
    for code in _NARROW_FIRST:
        if top <= _CODE_MAX[code]:
            return array(code, view.astype(code).tobytes())
    return array("q", values)


def as_array(buffer) -> np.ndarray:
    """Zero-copy numpy view of one packed trace buffer (any other
    sequence goes through :func:`numpy.asarray`)."""
    if isinstance(buffer, array):
        return np.frombuffer(buffer, dtype=buffer.typecode)
    return np.asarray(buffer)


def _block_klass_matrix(binary: Binary) -> np.ndarray:
    """(num_blocks x num_klasses) static instruction counts, cached."""
    cached = getattr(binary, "_klass_matrix", None)
    if cached is not None:
        return cached
    matrix = np.zeros((len(binary.block_map), len(KLASS_NAMES)), dtype=np.int64)
    for gbid, (func_idx, blk_idx) in enumerate(binary.block_map):
        block = binary.functions[func_idx].blocks[blk_idx]
        for ins in block.instrs:
            matrix[gbid, _KLASS_INDEX[ins.klass]] += 1
    binary._klass_matrix = matrix
    return matrix


@dataclass
class ExecutionTrace:
    """Record of one functional simulation.

    The three streams are packed on construction (:func:`pack_buffer`),
    so a trace built from lists holds the same arrays as one built by
    :meth:`from_buffers`.
    """

    binary: Binary
    block_seq: array  # global block ids, program order
    mem_addrs: array  # byte addresses, program order
    branch_log: array  # (uid << 1) | taken
    output: str
    exit_value: int | float
    instructions: int

    def __post_init__(self) -> None:
        self.block_seq = pack_buffer(self.block_seq)
        self.mem_addrs = pack_buffer(self.mem_addrs)
        self.branch_log = pack_buffer(self.branch_log)

    @classmethod
    def from_buffers(
        cls,
        binary: Binary,
        block_seq: list[int],
        mem_addrs: list[int],
        branch_log: list[int],
        output_parts: list[str],
        exit_value: int | float,
        instructions: int,
    ) -> "ExecutionTrace":
        """Finalize a run from the engine's recording buffers.

        Both execution engines append into plain lists while running;
        each list is narrowed here once, in one C-level pass, into the
        packed array every consumer reads.
        """
        return cls(
            binary=binary,
            block_seq=block_seq,
            mem_addrs=mem_addrs,
            branch_log=branch_log,
            output="".join(output_parts),
            exit_value=exit_value,
            instructions=instructions,
        )

    # -- derived views ---------------------------------------------------

    def block_counts(self) -> Counter:
        """Execution count per global block id."""
        return Counter(self.block_seq)

    def instruction_mix(self) -> InstructionMix:
        """Dynamic instruction mix, accumulated over the block sequence."""
        matrix = _block_klass_matrix(self.binary)
        if not self.block_seq:
            return InstructionMix({})
        counts = np.bincount(as_array(self.block_seq), minlength=len(matrix))
        totals = counts @ matrix
        return InstructionMix(
            {name: int(totals[i]) for i, name in enumerate(KLASS_NAMES) if totals[i]}
        )

    def branch_outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """(uids, taken) arrays for every dynamic conditional branch."""
        log = as_array(self.branch_log).astype(np.int64)
        return log >> 1, log & 1

    def edge_counts(self) -> Counter:
        """Intra-function control-flow edge counts ``(src_gbid, dst_gbid)``.

        Replays the block sequence with a virtual call stack: call edges
        push the caller's continuation block and are not recorded;
        return edges record the caller's ``call-block -> continuation``
        edge instead, so the caller's flow graph stays connected.
        """
        binary = self.binary
        num_blocks = len(binary.block_map)
        # Per-block: 0 = normal, 1 = ends in call, 2 = ends in ret.
        kinds = [0] * num_blocks
        cont_gbid = [0] * num_blocks
        for gbid, (func_idx, blk_idx) in enumerate(binary.block_map):
            func = binary.functions[func_idx]
            block = func.blocks[blk_idx]
            if block.instrs:
                last = block.instrs[-1].op
                if last == "call":
                    kinds[gbid] = 1
                    fall = block.fall_through
                    if fall is not None:
                        cont_gbid[gbid] = func.blocks[fall].gbid
                elif last == "ret":
                    kinds[gbid] = 2
        edges: Counter = Counter()
        stack: list[tuple[int, int]] = []
        prev = -1
        for gbid in self.block_seq:
            if prev >= 0:
                kind = kinds[prev]
                if kind == 0:
                    edges[(prev, gbid)] += 1
                elif kind == 1:
                    stack.append((prev, cont_gbid[prev]))
                else:  # return
                    if stack:
                        call_block, cont = stack.pop()
                        edges[(call_block, cont)] += 1
            prev = gbid
        return edges

    def call_counts(self) -> Counter:
        """Dynamic call count per callee function index."""
        binary = self.binary
        counts: Counter = Counter()
        calls_by_block: dict[int, int] = {}
        for gbid, (func_idx, blk_idx) in enumerate(binary.block_map):
            block = binary.functions[func_idx].blocks[blk_idx]
            if block.instrs and block.instrs[-1].op == "call":
                calls_by_block[gbid] = block.instrs[-1].target
        for gbid in self.block_seq:
            target = calls_by_block.get(gbid)
            if target is not None:
                counts[target] += 1
        return counts

    def summary(self) -> dict:
        """Compact description used in reports and tests."""
        mix = self.instruction_mix()
        return {
            "instructions": self.instructions,
            "blocks": len(self.block_seq),
            "memory_accesses": len(self.mem_addrs),
            "branches": len(self.branch_log),
            "mix": mix.paper_mix(),
            "exit": self.exit_value,
        }
