"""Unit tests for individual optimization passes."""

from repro.cc.driver import compile_to_ir
from repro.ir.builder import lower_program
from repro.ir.instructions import BinOp, Load, LoadConst, Store, UnOp
from repro.ir.verify import verify_program
from repro.lang.parser import parse_program
from repro.lang.semantics import analyze
from repro.opt.constant_folding import fold_constants
from repro.opt.copy_propagation import propagate_copies
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.fuse import fuse_memory_operands
from repro.opt.licm import hoist_loop_invariants
from repro.opt.promote_globals import promote_globals
from repro.opt.strength import reduce_strength
from tests.conftest import run_source


def build_ir(source: str, promote: bool = True):
    program = parse_program(source)
    analyzer = analyze(program)
    return lower_program(program, analyzer, promote_scalars=promote)


def all_instrs(ir, name="main"):
    return [i for blk in ir.functions[name].blocks for i in blk.instrs]


class TestConstantFolding:
    def test_constant_binop_folds(self):
        ir = build_ir("int main() { int x = 3 + 4 * 2; return x; }")
        # fold -> propagate the new constant -> fold the outer op.
        fold_constants(ir)
        propagate_copies(ir)
        fold_constants(ir)
        consts = [i for i in all_instrs(ir) if isinstance(i, LoadConst)]
        assert any(c.value == 11 for c in consts)

    def test_wrapping_semantics(self):
        ir = build_ir("int main() { int x = 2147483647 + 1; return x; }")
        fold_constants(ir)
        consts = [i.value for i in all_instrs(ir) if isinstance(i, LoadConst)]
        assert 0x80000000 in consts

    def test_identity_add_zero(self):
        ir = build_ir("int main() { int y = 5; int x = y + 0; return x; }")
        changed = fold_constants(ir)
        assert changed >= 1
        assert not any(
            isinstance(i, BinOp) and i.op == "add" for i in all_instrs(ir)
        )

    def test_mul_by_zero(self):
        ir = build_ir("int main() { int y = 5; return y * 0; }")
        fold_constants(ir)
        assert not any(isinstance(i, BinOp) for i in all_instrs(ir))

    def test_division_by_zero_not_folded(self):
        ir = build_ir("int main() { return 1 / 0; }")
        fold_constants(ir)
        assert any(
            isinstance(i, BinOp) and i.op == "div" for i in all_instrs(ir)
        )

    def test_folding_preserves_behaviour(self):
        source = "int main() { int x = (3 << 4) | 5; printf(\"%d\", x - 1 * 1); return 0; }"
        assert run_source(source, opt_level=0).output == run_source(
            source, opt_level=2
        ).output


class TestCSEAndCopyProp:
    def test_repeated_expression_eliminated(self):
        ir = build_ir(
            "int g; int main() { int a = g * 3; int b = g * 3; return a + b; }"
        )
        changed = eliminate_common_subexpressions(ir)
        assert changed >= 1

    def test_loads_killed_by_store(self):
        ir = build_ir(
            "int g; int main() { int a = g; g = 7; int b = g; return a + b; }"
        )
        before = len([i for i in all_instrs(ir) if isinstance(i, Load)])
        eliminate_common_subexpressions(ir)
        after = len([i for i in all_instrs(ir) if isinstance(i, Load)])
        assert after == before  # second load must survive the store

    def test_copy_propagation_forwards_temps(self):
        ir = build_ir("int main() { int a = 4; int b = a; return b + b; }")
        changed = propagate_copies(ir)
        assert changed >= 1

    def test_semantics_preserved_under_o2(self, loopy_source):
        assert run_source(loopy_source, opt_level=0).output == run_source(
            loopy_source, opt_level=2
        ).output


class TestDCE:
    def test_unused_computation_removed(self):
        ir = build_ir("int main() { int a = 3 * 7; return 0; }")
        removed = eliminate_dead_code(ir)
        assert removed >= 1
        assert not any(isinstance(i, BinOp) for i in all_instrs(ir))

    def test_stores_never_removed(self):
        ir = build_ir("int g; int main() { g = 42; return 0; }")
        eliminate_dead_code(ir)
        assert any(isinstance(i, Store) for i in all_instrs(ir))

    def test_dead_chain_unravels(self):
        ir = build_ir(
            "int main() { int a = 1; int b = a + 2; int c = b * 3; return 0; }"
        )
        eliminate_dead_code(ir)
        assert not any(isinstance(i, BinOp) for i in all_instrs(ir))


class TestStrengthReduction:
    def test_mul_pow2_becomes_shift(self):
        ir = build_ir("int main() { int a = 5; return a * 8; }")
        reduce_strength(ir)
        ops = [i.op for i in all_instrs(ir) if isinstance(i, BinOp)]
        assert "shl" in ops
        assert "mul" not in ops

    def test_unsigned_div_pow2_becomes_shr(self):
        ir = build_ir("int main() { unsigned a = 40u; return (int)(a / 4u); }")
        reduce_strength(ir)
        ops = [i.op for i in all_instrs(ir) if isinstance(i, BinOp)]
        assert "shr" in ops

    def test_signed_div_left_alone(self):
        ir = build_ir("int main() { int a = -40; return a / 4; }")
        reduce_strength(ir)
        ops = [i.op for i in all_instrs(ir) if isinstance(i, BinOp)]
        assert "div" in ops

    def test_umod_pow2_becomes_and(self):
        ir = build_ir("int main() { unsigned a = 40u; return (int)(a % 8u); }")
        reduce_strength(ir)
        ops = [i.op for i in all_instrs(ir) if isinstance(i, BinOp)]
        assert "and" in ops

    def test_strength_preserves_negative_division(self):
        source = 'int main() { int a = -40; printf("%d %d", a / 4, a % 8); return 0; }'
        assert run_source(source, opt_level=0).output == run_source(
            source, opt_level=2
        ).output


class TestLICM:
    SOURCE = """
    int g;
    int main() {
      int total = 0;
      int i;
      int a = 7;
      for (i = 0; i < 10; i++) {
        total = total + a * 13;
      }
      return total;
    }
    """

    def test_invariant_hoisted(self):
        ir = build_ir(self.SOURCE)
        hoisted = hoist_loop_invariants(ir)
        assert hoisted >= 1
        labels = [blk.label for blk in ir.functions["main"].blocks]
        assert any(label.startswith("preheader") for label in labels)
        verify_program(ir)

    def test_licm_preserves_behaviour(self):
        base = run_source(self.SOURCE, opt_level=0)
        optimized = run_source(self.SOURCE, opt_level=2)
        assert base.exit_value == optimized.exit_value


class TestGlobalPromotion:
    SOURCE = """
    int g;
    int main() {
      int i;
      for (i = 0; i < 100; i++) {
        g = g + i;
      }
      printf("%d", g);
      return 0;
    }
    """

    def test_loop_loads_become_moves(self):
        ir = build_ir(self.SOURCE)
        promoted = promote_globals(ir)
        assert promoted >= 1
        verify_program(ir)

    def test_promotion_preserves_behaviour(self):
        assert run_source(self.SOURCE, opt_level=0).output == run_source(
            self.SOURCE, opt_level=2
        ).output

    def test_dynamic_loads_reduced(self):
        o1 = run_source(self.SOURCE, opt_level=1)
        o0 = run_source(self.SOURCE, opt_level=0)
        loads_o0 = o0.instruction_mix().by_klass.get("load", 0)
        loads_o1 = o1.instruction_mix().by_klass.get("load", 0)
        assert loads_o1 < loads_o0 / 2

    def test_call_in_loop_blocks_promotion(self):
        source = """
        int g;
        void bump() { g = g + 1; }
        int main() {
          int i;
          for (i = 0; i < 10; i++) { bump(); }
          printf("%d", g);
          return 0;
        }
        """
        assert run_source(source, opt_level=2).output == "10"


class TestFusion:
    def test_load_op_fused(self):
        ir, stats = compile_to_ir(
            "int g; int main() { int a = 5; return a + g; }",
            opt_level=1,
            cisc_fusion=True,
        )
        assert stats.get("fuse", 0) >= 1

    def test_fusion_preserves_behaviour(self, loopy_source):
        x86 = run_source(loopy_source, isa="x86", opt_level=2)
        ia64 = run_source(loopy_source, isa="ia64", opt_level=2)
        assert x86.output == ia64.output

    def test_fusion_reduces_instruction_count(self, loopy_source):
        x86 = run_source(loopy_source, isa="x86_64", opt_level=2)
        ia64 = run_source(loopy_source, isa="ia64", opt_level=2)
        assert x86.instructions <= ia64.instructions
