"""Functional simulator semantics tests (the compiler+ISA oracle suite)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.ops_eval import to_signed
from repro.sim.functional import SimTrap, Simulator, run_binary
from repro.cc.driver import compile_program
from tests.conftest import run_source

WORD = 0xFFFFFFFF


def run_expr(expr: str, decls: str = "", fmt: str = "%d") -> str:
    source = f'int main() {{ {decls} printf("{fmt}", {expr}); return 0; }}'
    return run_source(source).output


class TestIntegerSemantics:
    def test_wrapping_addition(self):
        assert run_expr("a + 1", "int a = 2147483647;") == "-2147483648"

    def test_unsigned_wraparound(self):
        assert run_expr("a + 1u", "unsigned a = 4294967295u;", "%u") == "0"

    def test_truncating_division(self):
        assert run_expr("a / 2", "int a = -7;") == "-3"

    def test_remainder_sign(self):
        assert run_expr("a % 3", "int a = -7;") == "-1"

    def test_unsigned_division(self):
        assert run_expr("a / b", "unsigned a = 4294967290u; unsigned b = 7u;", "%u") == str(
            0xFFFFFFFA // 7
        )

    def test_arithmetic_shift_right(self):
        assert run_expr("a >> 2", "int a = -16;") == "-4"

    def test_logical_shift_right(self):
        assert run_expr("a >> 2", "unsigned a = 4294967280u;", "%u") == str(
            0xFFFFFFF0 >> 2
        )

    def test_signed_vs_unsigned_compare(self):
        assert run_expr("a < b", "int a = -1; int b = 1;") == "1"
        assert run_expr("a < b", "unsigned a = 4294967295u; unsigned b = 1u;") == "0"

    def test_division_by_zero_traps(self):
        with pytest.raises(SimTrap):
            run_source("int main() { int z = 0; return 1 / z; }")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-(2**31), 2**31 - 1),
        st.integers(-(2**31), 2**31 - 1),
        st.sampled_from(["+", "-", "*", "&", "|", "^"]),
    )
    def test_binops_match_python_semantics(self, a, b, op):
        """Property: simulated C arithmetic == wrapped Python arithmetic."""
        result = run_expr(f"a {op} b", f"int a = {a}; int b = {b};")
        python_ops = {
            "+": a + b, "-": a - b, "*": a * b,
            "&": a & b, "|": a | b, "^": a ^ b,
        }
        expected = to_signed(python_ops[op] & WORD)
        assert result == str(expected)


class TestFloatSemantics:
    def test_double_precision(self):
        assert run_expr("a / 3.0", "float a = 1.0;", "%.10f") == "0.3333333333"

    def test_float_int_mixing(self):
        assert run_expr("a + 1", "float a = 0.5;", "%.1f") == "1.5"

    def test_cast_truncates_toward_zero(self):
        assert run_expr("(int)a", "float a = -2.9;") == "-2"

    def test_math_builtins(self):
        assert run_expr("sqrt(a)", "float a = 2.25;", "%.1f") == "1.5"
        assert run_expr("fabs(a)", "float a = -3.5;", "%.1f") == "3.5"
        assert run_expr("floor(a)", "float a = 2.9;", "%.1f") == "2.0"

    def test_cos_of_infinity_is_nan(self):
        out = run_expr("cos(a / b)", "float a = 1.0; float b = 0.0;", "%f")
        assert out == "nan"

    def test_log_zero_is_minus_inf(self):
        out = run_expr("log(a)", "float a = 0.0;", "%f")
        assert out == "-inf"


class TestControlAndCalls:
    def test_recursion_factorial(self):
        source = """
        int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
        int main() { printf("%d", fact(10)); return 0; }
        """
        assert run_source(source).output == "3628800"

    def test_deep_recursion_grows_stack(self):
        source = """
        int depth(int n) { if (n == 0) { return 0; } return 1 + depth(n - 1); }
        int main() { printf("%d", depth(2000)); return 0; }
        """
        assert run_source(source).output == "2000"

    def test_mutual_recursion(self):
        source = """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
        int main() { printf("%d%d", is_even(10), is_odd(7)); return 0; }
        """
        # Forward declarations are not in the language: restructure.
        source = """
        int helper(int n, int odd) {
          if (n == 0) { return odd; }
          return helper(n - 1, 1 - odd);
        }
        int main() { printf("%d%d", helper(10, 0) == 0, helper(7, 0)); return 0; }
        """
        assert run_source(source).output == "11"

    def test_array_passed_by_reference(self):
        source = """
        void fill(int a[], int n) {
          int i;
          for (i = 0; i < n; i++) { a[i] = i * i; }
        }
        int t[5];
        int main() {
          fill(t, 5);
          printf("%d %d", t[2], t[4]);
          return 0;
        }
        """
        assert run_source(source).output == "4 16"

    def test_local_array_per_activation(self):
        source = """
        int sum_window(int seed) {
          int buf[4];
          int i;
          for (i = 0; i < 4; i++) { buf[i] = seed + i; }
          if (seed > 0) { return buf[0] + sum_window(seed - 1); }
          return buf[0];
        }
        int main() { printf("%d", sum_window(3)); return 0; }
        """
        assert run_source(source).output == "6"

    def test_instruction_budget_trap(self):
        source = "int main() { while (1) { } return 0; }"
        binary = compile_program(source).binary
        with pytest.raises(SimTrap, match="budget"):
            Simulator(binary, max_instructions=10_000).run()

    def test_printf_formats(self):
        source = (
            'int main() { printf("%d|%u|%x|%c|%5d|%.2f", -3, 4294967295u, '
            '255, 65, 42, 3.14159); return 0; }'
        )
        assert run_source(source).output == "-3|4294967295|ff|A|   42|3.14"


class TestTraceContents:
    def test_block_sequence_nonempty(self, fib_source):
        trace = run_source(fib_source)
        assert len(trace.block_seq) > 10

    def test_memory_accesses_match_mix(self, fib_source):
        trace = run_source(fib_source)
        mix = trace.instruction_mix()
        expected = mix.by_klass.get("load", 0) + mix.by_klass.get("store", 0)
        assert len(trace.mem_addrs) == expected

    def test_branch_log_matches_mix(self, fib_source):
        trace = run_source(fib_source)
        mix = trace.instruction_mix()
        assert len(trace.branch_log) == mix.by_klass.get("branch", 0)

    def test_no_trace_mode_skips_logs(self, fib_source):
        binary = compile_program(fib_source).binary
        trace = Simulator(binary).run(collect_trace=False)
        assert len(trace.block_seq) == 0
        assert len(trace.mem_addrs) == 0
        assert trace.output  # behaviour unchanged

    def test_mix_totals_equal_instruction_count(self, fib_source):
        trace = run_source(fib_source)
        assert trace.instruction_mix().total == trace.instructions


class TestLoadBounds:
    """Loads trap out-of-range addresses symmetrically with stores.

    Regression: a negative effective address used to read silently via
    Python negative indexing instead of raising SimTrap like stores do.
    Both engines must agree, message included.
    """

    READ = """
    int t[4];
    int peek(int i) { return t[i]; }
    int main() { printf("%d", peek(IDX)); return 0; }
    """
    WRITE = """
    int t[4];
    void poke(int i) { t[i] = 7; }
    int main() { poke(IDX); return 0; }
    """

    # The reference interpreter, and the public entry point, which runs
    # the compiled engine.
    ENGINES = {
        "python": lambda binary: Simulator(binary)._run_python(True),
        "fast": run_binary,
    }

    def run(self, engine: str, source: str):
        return self.ENGINES[engine](compile_program(source, "x86", 0).binary)

    @pytest.mark.parametrize("engine", ["python", "fast"])
    @pytest.mark.parametrize("idx", [-2000000000, 2000000000])
    def test_out_of_range_load_traps(self, engine, idx):
        with pytest.raises(SimTrap, match="load out of range"):
            self.run(engine, self.READ.replace("IDX", str(idx)))

    @pytest.mark.parametrize("engine", ["python", "fast"])
    @pytest.mark.parametrize("idx", [-2000000000, 2000000000])
    def test_out_of_range_store_traps(self, engine, idx):
        with pytest.raises(SimTrap, match="store out of range"):
            self.run(engine, self.WRITE.replace("IDX", str(idx)))

    def test_trap_message_parity(self):
        source = self.READ.replace("IDX", "-2000000000")
        messages = {}
        for engine in self.ENGINES:
            with pytest.raises(SimTrap) as excinfo:
                self.run(engine, source)
            messages[engine] = str(excinfo.value)
        assert messages["python"] == messages["fast"]
