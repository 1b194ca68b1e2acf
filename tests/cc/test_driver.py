"""Compiler driver tests."""

import dataclasses
import pickle
import sys
import threading

import pytest

from repro.cc import driver
from repro.cc.driver import _frontend, compile_program, compile_to_ir
from repro.isa.targets import X86, X86_64
from repro.lang.parser import parse_program
from repro.lang.semantics import analyze
from repro.opt.inline import inline_small_functions
from repro.opt.unroll import unroll_loops
from tests.conftest import run_source

ISAS = ("x86", "x86_64", "ia64")
LEVELS = (0, 1, 2, 3)


class TestDriver:
    def test_accepts_isa_by_name_or_object(self, fib_source):
        by_name = compile_program(fib_source, "x86", 0)
        by_object = compile_program(fib_source, X86, 0)
        assert by_name.binary.isa_name == by_object.binary.isa_name == "x86"

    def test_rejects_bad_level(self, fib_source):
        with pytest.raises(ValueError):
            compile_program(fib_source, "x86", 5)

    def test_result_carries_artifacts(self, fib_source):
        result = compile_program(fib_source, "x86_64", 2)
        assert [f.name for f in dataclasses.fields(result)] == [
            "binary", "opt_stats"]
        assert result.binary is not None
        assert isinstance(result.opt_stats, dict)
        ir, stats = compile_to_ir(fib_source, opt_level=2)
        assert ir.functions

    def test_opt_stats_populated_at_o2(self, loopy_source):
        result = compile_program(loopy_source, "x86_64", 2)
        assert result.opt_stats.get("dce", 0) >= 0
        assert "fold" in result.opt_stats

    def test_o0_runs_no_passes(self, loopy_source):
        result = compile_program(loopy_source, "x86_64", 0)
        assert result.opt_stats == {}

    def test_compile_to_ir_standalone(self, fib_source):
        ir, stats = compile_to_ir(fib_source, opt_level=1)
        assert "fib" in ir.functions

    def test_binary_records_level_and_isa(self, fib_source):
        result = compile_program(fib_source, "ia64", 3)
        assert result.binary.opt_level == 3
        assert result.binary.isa_name == "ia64"


class TestOptimizationLevels:
    """Each level must preserve semantics and never regress much."""

    PROGRAM = """
    int table[128];
    int f(int x) { return x * x + 1; }
    int main() {
      int i;
      int total = 0;
      for (i = 0; i < 128; i++) {
        table[i] = f(i) & 1023;
      }
      for (i = 0; i < 128; i++) {
        total = total + table[i];
        if (table[i] > 900) { total = total - 900; }
      }
      printf("%d", total);
      return 0;
    }
    """

    def test_all_levels_agree(self):
        outputs = {
            run_source(self.PROGRAM, isa=isa, opt_level=level).output
            for isa in ("x86", "x86_64", "ia64")
            for level in (0, 1, 2, 3)
        }
        assert len(outputs) == 1

    def test_levels_monotone_enough(self):
        counts = [
            run_source(self.PROGRAM, isa="x86_64", opt_level=level).instructions
            for level in (0, 1, 2, 3)
        ]
        assert counts[1] < counts[0]
        assert counts[2] <= counts[1] * 1.10
        assert counts[3] <= counts[2] * 1.10


def _compile_grid(source):
    return [compile_program(source, isa, level)
            for isa in ISAS for level in LEVELS]


class TestFrontendMemo:
    """The frontend runs once per source; sharing it changes no byte."""

    # One inlinable call and two unrollable loops: all three variants.
    SOURCE = TestOptimizationLevels.PROGRAM
    THREADS = 8

    @pytest.fixture(autouse=True)
    def _cold_frontend(self):
        _frontend.cache_clear()
        yield
        _frontend.cache_clear()

    def test_parses_each_source_once(self, monkeypatch):
        calls = []

        def spy(source):
            calls.append(source)
            return parse_program(source)

        monkeypatch.setattr(driver, "parse_program", spy)
        _compile_grid(self.SOURCE)
        assert calls == [self.SOURCE]

    def test_cached_variants_equal_a_fresh_frontend(self):
        _compile_grid(self.SOURCE)
        assert _frontend.cache_info().currsize == 3
        plain = parse_program(self.SOURCE)
        inlined = inline_small_functions(plain)
        fresh = {
            (False, False): plain,
            (True, False): inlined,
            (True, True): unroll_loops(inlined),
        }
        for (inline, unroll), program in fresh.items():
            analyzer = analyze(program)
            cached, cached_analyzer = _frontend(self.SOURCE, inline, unroll)
            assert cached == program
            assert cached_analyzer.functions == analyzer.functions
            assert cached_analyzer.globals.symbols == analyzer.globals.symbols

    def test_memoised_compiles_are_byte_identical(self):
        memoised = [pickle.dumps(r) for r in _compile_grid(self.SOURCE)]
        fresh = []
        for isa in ISAS:
            for level in LEVELS:
                _frontend.cache_clear()
                fresh.append(
                    pickle.dumps(compile_program(self.SOURCE, isa, level)))
        assert memoised == fresh

    def test_threads_compiling_one_source_agree(self):
        expected = [pickle.dumps(r) for r in _compile_grid(self.SOURCE)]
        _frontend.cache_clear()
        results = [None] * self.THREADS
        start = threading.Barrier(self.THREADS)

        def work(index):
            start.wait(timeout=60)
            results[index] = [
                pickle.dumps(r) for r in _compile_grid(self.SOURCE)]

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * self.THREADS
