"""Fig. 11 on the engine: the consolidated clone's timings come from the
store, and the figure equals the direct compile/run/simulate loop."""

import pickle
from dataclasses import replace

import pytest

from repro.cc import driver
from repro.cc.driver import compile_program
from repro.engine.api import Engine
from repro.engine.store import ArtifactStore
from repro.experiments.fig11_machines import Fig11Result, run_fig11
from repro.experiments.runner import ExperimentRunner
from repro.sim import functional
from repro.sim.functional import run_binary
from repro.sim.machines import MACHINES, TABLE_III_SPECS, Machine
from repro.sim.timing_common import TimingModel
from repro.synthesis.synthesizer import synthesize_consolidated

PAIRS = (("crc32", "small"), ("synth:s5-int-f64-d1-t3-e20-c1", "small"))
LEVELS = (0, 2)
TARGET = 4000
#: Table III plus a Pentium 4 that differs from the baseline only in its
#: clock, so it shares the baseline's cycle model and artifacts.
SLOW_P4 = replace(TABLE_III_SPECS[0], name="Pentium 4, 1.5GHz",
                  frequency_ghz=1.5).build()
MACHINE_SET = MACHINES + (SLOW_P4,)


def direct_fig11(runner, pairs, machines, levels, target) -> Fig11Result:
    """The figure computed outside the engine: every trace simulated on
    every machine in-process, the consolidated clone compiled and run
    once per (ISA, level)."""
    org_times, syn_times = {}, {}
    for machine in machines:
        for level in levels:
            org_times[(machine.name, level)] = sum(
                machine.runtime_seconds(runner.original_trace(
                    workload, input_name, machine.isa.name, level))
                for workload, input_name in pairs) / len(pairs)
    profiles = [runner.profile(*pair) for pair in pairs]
    clone = synthesize_consolidated(profiles,
                                    target_instructions=target * len(pairs))
    traces = {}
    for machine in machines:
        for level in levels:
            coord = (machine.isa.name, level)
            if coord not in traces:
                traces[coord] = run_binary(
                    compile_program(clone.source, machine.isa, level).binary)
            syn_times[(machine.name, level)] = machine.runtime_seconds(
                traces[coord])
    result = Fig11Result()
    base = machines[0].name
    for key, value in org_times.items():
        result.original[key] = value / org_times[(base, 0)]
    for key, value in syn_times.items():
        result.synthetic[key] = value / syn_times[(base, 0)]
    return result


def make_runner(root) -> ExperimentRunner:
    return ExperimentRunner(target_instructions=TARGET,
                            engine=Engine(store=ArtifactStore(root=root)))


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A store a cold fig11 filled, and that cold run's result."""
    root = tmp_path_factory.mktemp("fig11")
    cold = run_fig11(make_runner(root), PAIRS, MACHINE_SET, LEVELS)
    return root, cold


class TestFig11:
    def test_equals_the_direct_loop_cold_and_warm(self, filled, tmp_path):
        root, cold = filled
        oracle = direct_fig11(make_runner(tmp_path / "oracle"), PAIRS,
                              MACHINE_SET, LEVELS, TARGET)
        warm = run_fig11(make_runner(root), PAIRS, MACHINE_SET, LEVELS)
        assert pickle.dumps(cold) == pickle.dumps(oracle)
        assert pickle.dumps(warm) == pickle.dumps(oracle)

    def test_warm_run_computes_nothing(self, filled, monkeypatch):
        root, cold = filled

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm fig11 must not compute")

        monkeypatch.setattr(driver, "compile_program", forbidden)
        monkeypatch.setattr(functional, "run_binary", forbidden)
        monkeypatch.setattr(TimingModel, "simulate", forbidden)
        runner = make_runner(root)
        warm = run_fig11(runner, PAIRS, MACHINE_SET, LEVELS)
        assert runner.cache_stats.misses == 0
        assert runner.cache_stats.puts == 0
        assert warm.original == cold.original
        assert warm.synthetic == cold.synthetic

    def test_each_machine_scales_by_its_own_clock(self, filled):
        _, cold = filled
        for side in (cold.original, cold.synthetic):
            for level in LEVELS:
                assert side[(SLOW_P4.name, level)] == pytest.approx(
                    2 * side[(MACHINES[0].name, level)], rel=1e-12)
            assert side[("Pentium 4, 2.8GHz", 0)] != \
                side[("Pentium 4, 3GHz", 0)]

    def test_machine_without_spec_is_rejected(self, tmp_path):
        bare = MACHINES[1]
        specless = Machine(name="hand-built", isa=bare.isa,
                           frequency_ghz=bare.frequency_ghz,
                           in_order=bare.in_order, timing=bare.timing)
        with pytest.raises(ValueError, match="hand-built"):
            run_fig11(make_runner(tmp_path / "store"), PAIRS,
                      machines=(MACHINES[0], specless), levels=LEVELS)
