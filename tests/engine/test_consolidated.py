"""The consolidated-timing stage: Fig. 11's synthetic side as one node.

Its key must be computable before execution and cover exactly what
determines the timings — the members in order, the clone size, the ISA,
the opt level and the set of cycle models — and its artifact must hold
only the timing results, never the clone's binary or trace.
"""

import pickle
from dataclasses import replace

import pytest

from repro.cc.driver import compile_program
from repro.engine.api import Engine
from repro.engine.store import ArtifactStore
from repro.engine.tasks import (
    STAGE_CONSOLIDATED_TIMING,
    STAGE_COSTS,
    STAGES,
    consolidated_timing_task,
    key_fields,
)
from repro.isa.machine import Binary
from repro.sim.functional import run_binary
from repro.sim.machines import TABLE_III_SPECS, spec_from_axes
from repro.sim.timing_common import TimingResult
from repro.sim.trace import ExecutionTrace
from repro.synthesis.synthesizer import synthesize_consolidated

MEMBERS = (("crc32", "small"), ("bitcount", "small"))
TARGET = 8000
X86 = spec_from_axes(isa="x86", width=2, rob=64, l1_kb=8)
X86_WIDE = spec_from_axes(isa="x86", width=4, rob=128, l1_kb=32)
IA64 = spec_from_axes(isa="ia64", width=4, rob=48, in_order=True)


def key(members=MEMBERS, level=0, target=TARGET, specs=(X86, X86_WIDE)):
    return key_fields(consolidated_timing_task(members, level, target, specs))


class TestTask:
    def test_registered_stage(self):
        assert STAGE_CONSOLIDATED_TIMING in STAGES
        assert STAGE_COSTS[STAGE_CONSOLIDATED_TIMING] > \
            STAGE_COSTS["compile"]

    def test_deps_are_the_members_profiles(self):
        task = consolidated_timing_task(MEMBERS, 2, TARGET, [X86])
        assert task.deps == ("profile:crc32/small", "profile:bitcount/small")
        assert task.payload["isa"] == "x86"

    def test_specs_sorted_and_deduplicated(self):
        twin = replace(X86, name="twin", frequency_ghz=3.5)
        task = consolidated_timing_task(MEMBERS, 0, TARGET,
                                        [X86_WIDE, X86, twin])
        fingerprints = [spec.fingerprint()
                        for spec in task.payload["machine_specs"]]
        assert fingerprints == sorted({X86.fingerprint(),
                                       X86_WIDE.fingerprint()})

    def test_machines_must_share_one_isa(self):
        with pytest.raises(ValueError, match="one ISA"):
            consolidated_timing_task(MEMBERS, 0, TARGET, [X86, IA64])
        with pytest.raises(ValueError, match="one ISA"):
            consolidated_timing_task(MEMBERS, 0, TARGET, [])


class TestKey:
    def test_key_covers_every_input(self):
        base = key()
        assert key(members=MEMBERS[::-1]) != base
        assert key(members=MEMBERS[:1]) != base
        assert key(target=TARGET + 1) != base
        assert key(level=1) != base
        assert key(specs=(IA64,)) != base
        assert key(specs=(X86,)) != base

    def test_ids_follow_the_key(self):
        ids = {consolidated_timing_task(MEMBERS, 0, TARGET, specs).id
               for specs in ((X86,), (X86_WIDE,), (X86, X86_WIDE))}
        assert len(ids) == 3

    def test_clock_and_name_do_not_change_the_key(self):
        faster = replace(X86, name="faster", frequency_ghz=4.0)
        assert key(specs=(faster, X86_WIDE)) == key()
        assert key(specs=(X86_WIDE, X86)) == key()

    def test_key_pins_the_reference_coordinate(self):
        fields = key()
        assert (fields["ref_isa"], fields["ref_opt"]) == ("x86", 0)
        assert fields["machines"] == sorted([X86.fingerprint(),
                                             X86_WIDE.fingerprint()])


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    """A store holding the members' reference profiles."""
    root = tmp_path_factory.mktemp("consolidated")
    engine = Engine(store=ArtifactStore(root=root))
    for pair in MEMBERS:
        engine.profile(*pair)
    return root


class TestEngine:
    def direct(self, engine, level, specs):
        profiles = [engine.profile(*pair) for pair in MEMBERS]
        clone = synthesize_consolidated(profiles, target_instructions=TARGET)
        trace = run_binary(
            compile_program(clone.source, specs[0].isa, level).binary)
        return {spec.fingerprint(): pickle.dumps(spec.build().simulate(trace))
                for spec in specs}

    def test_matches_direct_simulation_cold_and_warm(self, store_root,
                                                     tmp_path):
        store = ArtifactStore(root=tmp_path / "store")
        store.import_keys(store_root)
        store.stats.reset()
        cold = Engine(store=store).consolidated_timings(
            MEMBERS, [X86, X86_WIDE, IA64], (0, 2), TARGET)
        assert sorted(cold) == [("ia64", 0), ("ia64", 2),
                                ("x86", 0), ("x86", 2)]
        # One miss per (ISA, level) node; the profiles come from the store.
        assert (store.stats.misses, store.stats.puts) == (4, 4)

        oracle = Engine(store=ArtifactStore(root=store_root))
        for (isa, level), timings in cold.items():
            specs = [X86, X86_WIDE] if isa == "x86" else [IA64]
            assert {fp: pickle.dumps(result)
                    for fp, result in timings.items()} == \
                self.direct(oracle, level, specs)

        warm_store = ArtifactStore(root=tmp_path / "store")
        warm = Engine(store=warm_store).consolidated_timings(
            MEMBERS, [X86, X86_WIDE, IA64], (0, 2), TARGET)
        assert warm_store.stats.as_dict() == {
            "hits": 4, "misses": 0, "puts": 0, "evictions": 0}
        assert warm == cold

    def test_artifact_holds_only_small_timings(self, store_root):
        engine = Engine(store=ArtifactStore(root=store_root))
        specs = list(TABLE_III_SPECS[:1]) + [X86]
        timings = engine.consolidated_timings(MEMBERS, specs, (1,),
                                              TARGET)[("x86", 1)]
        assert set(timings) == {spec.fingerprint() for spec in specs}
        assert all(type(value) is TimingResult
                   for value in timings.values())
        blob = pickle.dumps(timings)
        assert len(blob) < 4096 * len(timings)
        for forbidden in (Binary, ExecutionTrace):
            assert forbidden.__name__.encode() not in blob
