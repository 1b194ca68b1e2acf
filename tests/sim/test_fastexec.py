"""Fast-engine equivalence suite: python vs fast must be byte-identical.

The fast engine's contract is pickle-equality of the full
:class:`ExecutionTrace` — block sequence, memory-address stream, branch
log, output, exit value, instruction count — plus exact ``SimTrap``
parity (same trap kind and message at the same boundary).

``REPRO_EXEC_EQUIV_ALL=1`` widens the traced sweep from the sample pairs
to every workload pair (a CI step of the test job).
"""

import gc
import os
import pickle

import pytest

from repro.cc.driver import compile_program
from repro.sim import fastexec
from repro.sim.functional import SimTrap, Simulator, run_binary
from repro.workloads import WORKLOADS, all_pairs

# Loop-heavy, call-heavy, FP-heavy and branchy workloads; small inputs
# keep the tier-1 run fast.  dijkstra exercises the memo-hit path.
SAMPLE_PAIRS = (
    ("bitcount", "small"),
    ("crc32", "small"),
    ("dijkstra", "small"),
    ("fft", "small"),
    ("qsort", "small"),
    ("sha", "small"),
    ("stringsearch", "small"),
)


def equiv_pairs():
    if os.environ.get("REPRO_EXEC_EQUIV_ALL") == "1":
        return tuple(all_pairs())
    return SAMPLE_PAIRS


# Optimized binaries whose argument staging other instructions
# interrupt (a load between two ``arg``s, say): the compiled engine
# snapshots the staged values instead of falling back.  The large
# inputs join under REPRO_EXEC_EQUIV_ALL=1.
_INTERRUPTED_STAGING = tuple(
    (workload, isa, level)
    for workload in ("bitcount", "jpeg", "qsort", "susan")
    for isa, level in (("x86", 1), ("x86", 2), ("x86", 3))
) + (("susan", "x86_64", 2), ("susan", "x86_64", 3))


def staging_coords():
    inputs = ("small", "large") \
        if os.environ.get("REPRO_EXEC_EQUIV_ALL") == "1" else ("small",)
    return tuple((workload, input_name, isa, level)
                 for workload, isa, level in _INTERRUPTED_STAGING
                 for input_name in inputs)


_BINARIES: dict = {}


def binary_for(workload: str, input_name: str, isa: str = "x86",
               opt_level: int = 0):
    key = (workload, input_name, isa, opt_level)
    if key not in _BINARIES:
        source = WORKLOADS[workload].source_for(input_name)
        _BINARIES[key] = compile_program(source, isa, opt_level).binary
    return _BINARIES[key]


def run_fast(binary, collect_trace: bool = True, **sim_kwargs):
    """The compiled engine alone, with ``Simulator``'s defaults; fails
    instead of falling back to the reference interpreter."""
    sim = Simulator(binary, **sim_kwargs)
    trace = fastexec.run_compiled(
        binary, sim.max_instructions, sim.stack_words, collect_trace)
    assert trace is not None, "the compiled engine fell back"
    return trace


def assert_equivalent(binary, collect_trace: bool = True) -> None:
    ref = Simulator(binary)._run_python(collect_trace)
    fast = run_fast(binary, collect_trace)
    assert pickle.dumps(ref) == pickle.dumps(fast)


class TestTraceEquivalence:
    @pytest.mark.parametrize("workload,input_name", equiv_pairs())
    def test_traced_byte_identical(self, workload, input_name):
        assert_equivalent(binary_for(workload, input_name), collect_trace=True)

    @pytest.mark.parametrize("workload,input_name", SAMPLE_PAIRS)
    def test_untraced_byte_identical(self, workload, input_name):
        assert_equivalent(binary_for(workload, input_name), collect_trace=False)

    @pytest.mark.parametrize("collect_trace", [True, False],
                             ids=["traced", "untraced"])
    @pytest.mark.parametrize("workload,input_name,isa,level",
                             staging_coords())
    def test_interrupted_staging_byte_identical(
            self, workload, input_name, isa, level, collect_trace):
        assert_equivalent(binary_for(workload, input_name, isa, level),
                          collect_trace=collect_trace)

    @pytest.mark.parametrize("workload,input_name", SAMPLE_PAIRS[:3])
    def test_memo_kill_switch_byte_identical(self, workload, input_name,
                                             monkeypatch):
        binary = binary_for(workload, input_name)
        unit = fastexec._build_unit(binary, True, False)
        monkeypatch.setattr(fastexec, "_compiled_unit",
                            lambda _binary, _traced: unit)
        assert_equivalent(binary, collect_trace=True)


class TestTrapParity:
    def trap_message(self, run, *args, **kwargs) -> str:
        with pytest.raises(SimTrap) as excinfo:
            run(*args, **kwargs)
        return str(excinfo.value)

    def assert_same_trap(self, binary, needle: str, **sim_kwargs) -> None:
        ref = self.trap_message(
            lambda: Simulator(binary, **sim_kwargs)._run_python(True))
        fast = self.trap_message(
            lambda: run_fast(binary, **sim_kwargs))
        assert ref == fast
        assert needle in fast

    def test_budget_exhaustion(self):
        binary = compile_program("int main() { while (1) { } return 0; }",
                                 "x86", 0).binary
        self.assert_same_trap(binary, "budget", max_instructions=10_000)

    def test_budget_boundary_is_exact(self):
        """Trap-vs-complete must flip at the same instruction count."""
        binary = binary_for("bitcount", "small")
        total = Simulator(binary)._run_python(True).instructions
        for runner in (
            lambda mi: Simulator(binary, max_instructions=mi)._run_python(True),
            lambda mi: run_fast(binary, max_instructions=mi),
        ):
            assert runner(total).instructions == total
            with pytest.raises(SimTrap, match="budget"):
                runner(total - 1)

    def test_division_by_zero(self):
        binary = compile_program(
            "int main() { int z = 0; return 1 / z; }", "x86", 0).binary
        self.assert_same_trap(binary, "division by zero")

    @pytest.mark.parametrize("idx,kind", [
        (-2000000000, "load"), (2000000000, "load"),
    ])
    def test_out_of_range_load(self, idx, kind):
        binary = compile_program(
            "int t[4];\n"
            "int peek(int i) { return t[i]; }\n"
            f"int main() {{ printf(\"%d\", peek({idx})); return 0; }}",
            "x86", 0).binary
        self.assert_same_trap(binary, f"{kind} out of range")

    @pytest.mark.parametrize("idx", [-2000000000, 2000000000])
    def test_out_of_range_store(self, idx):
        binary = compile_program(
            "int t[4];\n"
            "void poke(int i) { t[i] = 7; }\n"
            f"int main() {{ poke({idx}); return 0; }}",
            "x86", 0).binary
        self.assert_same_trap(binary, "store out of range")


class TestSelection:
    def test_default_is_fast(self, monkeypatch):
        """``run_binary`` runs the compiled engine without being asked."""
        def no_reference(self, collect_trace=True):
            raise AssertionError("fell back to the reference interpreter")

        monkeypatch.setattr(Simulator, "_run_python", no_reference)
        assert run_binary(binary_for("crc32", "small")).instructions > 0

    @pytest.mark.parametrize("choice", ["python", "fast"])
    def test_explicit_choice(self, choice):
        """Either engine, called directly, gives ``run_binary``'s bytes."""
        binary = binary_for("crc32", "small")
        engine = {
            "python": lambda: Simulator(binary)._run_python(True),
            "fast": lambda: run_fast(binary),
        }[choice]
        assert pickle.dumps(engine()) == pickle.dumps(run_binary(binary))

    def test_oversized_entry_frame_falls_back(self):
        binary = binary_for("crc32", "small")
        frame = binary.functions[binary.entry].frame_size
        assert fastexec.run_compiled(binary, 10_000, frame - 1, True) is None


class TestSegmentMemo:
    def test_memo_engages(self):
        """Anchored loops must actually replay memoized iterations —
        otherwise the equivalence above only covers compiled blocks."""
        binary = binary_for("dijkstra", "small")
        unit = fastexec._compiled_unit(binary, True)
        assert unit is not None and unit.anchors
        before = sum(a.hits for a in unit.anchors)
        run_fast(binary)
        assert sum(a.hits for a in unit.anchors) > before

    def test_adaptive_anchors_self_disable(self):
        """Loops whose entry state never repeats (bitcount's LCG-driven
        kernels) must shut their anchors off instead of probing forever."""
        binary = binary_for("bitcount", "small")
        unit = fastexec._compiled_unit(binary, True)
        assert unit is not None
        run_fast(binary)
        probed = [a for a in unit.anchors if a.probes]
        assert probed
        assert all(not a.on or a.hits for a in probed)


class TestCompiledCache:
    SOURCE = ('int main() { int i; int s; s = 0; '
              'for (i = 0; i < 10; i = i + 1) { s = s + i; } '
              'printf("%d", s); return 0; }')

    def test_unit_reused_per_binary(self):
        binary = compile_program(self.SOURCE, "x86", 0).binary
        unit1 = fastexec._compiled_unit(binary, True)
        unit2 = fastexec._compiled_unit(binary, True)
        assert unit1 is not None and unit1 is unit2

    def test_traced_and_untraced_compile_separately(self):
        binary = compile_program(self.SOURCE, "x86", 0).binary
        traced = fastexec._compiled_unit(binary, True)
        untraced = fastexec._compiled_unit(binary, False)
        assert traced is not untraced
        assert traced.traced and not untraced.traced

    def test_cache_entry_dies_with_binary(self):
        gc.collect()  # flush earlier tests' cyclic garbage first
        binary = compile_program(self.SOURCE, "x86", 0).binary
        fastexec._compiled_unit(binary, True)
        before = fastexec.compiled_cache_size()
        del binary
        gc.collect()
        assert fastexec.compiled_cache_size() == before - 1

    def test_debug_hook_records_units(self):
        binary = compile_program(self.SOURCE, "x86", 0).binary
        fastexec.EXEC_DEBUG = {}
        try:
            run_fast(binary)
            units = fastexec.EXEC_DEBUG.get("units")
            assert units and units[0]["traced"]
        finally:
            fastexec.EXEC_DEBUG = None
