"""Replay-stage equivalence suite.

The engine's ``replay`` stage must be a pure relocation of
``Machine.simulate``: byte-identical ``TimingResult`` pickles whether
the replay ran inline, on a thread/process pool, in a shard subprocess,
or through the cost-routed ``auto`` composite — and its content-address
must be computable before execution, from the machine fingerprint
alone.
"""

import pickle

import pytest

from repro.engine.api import Engine
from repro.engine.store import ArtifactStore
from repro.engine.tasks import (
    STAGE_REPLAY,
    key_fields,
    replay_task,
)
from repro.sim.machines import spec_from_axes

PAIR = ("crc32", "small")
ISA = "x86"
SPEC = spec_from_axes(isa=ISA, width=2, rob=64, l1_kb=8)

BACKENDS = ("inline", "process", "shard", "auto")


@pytest.fixture(scope="module")
def seed_root(tmp_path_factory):
    """A store holding the compile/run artifacts replays depend on."""
    root = tmp_path_factory.mktemp("replay-seed")
    engine = Engine(store=ArtifactStore(root=root))
    engine.warm([PAIR], coords=((ISA, 0),), sides=("org",))
    return root


@pytest.fixture(scope="module")
def direct_digest(seed_root):
    """Reference result: the machine simulating the trace in-process."""
    engine = Engine(store=ArtifactStore(root=seed_root))
    trace = engine.original_trace(*PAIR, ISA, 0)
    return pickle.dumps(SPEC.build().simulate(trace))


class TestEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_replay_matches_direct_simulation(
            self, backend, seed_root, direct_digest, tmp_path):
        # Fresh store seeded with only the upstream compile/run, so the
        # replay node itself executes on the backend under test.
        store = ArtifactStore(root=tmp_path / "store")
        store.import_keys(seed_root)
        store.stats.reset()
        engine = Engine(store=store, workers=2, backend=backend)
        engine.warm([PAIR], coords=(), sides=("org",),
                    machine_points=[(SPEC, 0)])
        result = engine.replay_timing(*PAIR, SPEC, 0, side="org")
        assert pickle.dumps(result) == direct_digest

    def test_syn_side_replay_matches_direct_simulation(self, seed_root):
        engine = Engine(store=ArtifactStore(root=seed_root))
        result = engine.replay_timing(*PAIR, SPEC, 0, side="syn")
        trace = engine.synthetic_trace(*PAIR, ISA, 0)
        assert pickle.dumps(result) == \
            pickle.dumps(SPEC.build().simulate(trace))

    def test_warm_replay_is_one_store_read(self, seed_root, direct_digest):
        engine = Engine(store=ArtifactStore(root=seed_root))
        engine.replay_timing(*PAIR, SPEC, 0, side="org")  # populate

        rewarmed = Engine(store=ArtifactStore(root=seed_root))
        result = rewarmed.replay_timing(*PAIR, SPEC, 0, side="org")
        # The terminal probe hits; nothing upstream is even looked at.
        assert rewarmed.stats.hits == 1
        assert rewarmed.stats.misses == 0 and rewarmed.stats.puts == 0
        assert pickle.dumps(result) == direct_digest


class TestReplayKeys:
    def test_key_computable_before_execution(self):
        # key_fields never needs the trace (or any dep) in hand.
        task = replay_task(*PAIR, 0, SPEC, side="org")
        fields = key_fields(task)
        assert fields["machine"] == SPEC.fingerprint()
        assert fields["side"] == "org"
        assert task.stage == STAGE_REPLAY
        assert task.deps == (f"run:crc32/small@{ISA}-O0",)

    def test_syn_key_includes_clone_size(self):
        task = replay_task(*PAIR, 2, SPEC, side="syn",
                           target_instructions=9000)
        fields = key_fields(task)
        assert fields["target_instructions"] == 9000
        assert task.deps == (f"run-clone:crc32/small@{ISA}-O2#9000",)

    def test_distinct_machines_get_distinct_keys_and_ids(self):
        other = spec_from_axes(isa=ISA, width=4, rob=64, l1_kb=8)
        a = replay_task(*PAIR, 0, SPEC, side="org")
        b = replay_task(*PAIR, 0, other, side="org")
        assert a.id != b.id
        assert key_fields(a)["machine"] != key_fields(b)["machine"]

    def test_frequency_does_not_change_the_key(self):
        # The clock scales cycles to seconds outside the cycle model,
        # so specs differing only in clock share one replay artifact.
        fast = spec_from_axes(isa=ISA, width=2, rob=64, l1_kb=8,
                              frequency_ghz=4.0)
        assert key_fields(replay_task(*PAIR, 0, fast, side="org")) == \
            key_fields(replay_task(*PAIR, 0, SPEC, side="org"))

    def test_side_validation(self):
        with pytest.raises(ValueError, match="side"):
            replay_task(*PAIR, 0, SPEC, side="weird")
        with pytest.raises(ValueError, match="target_instructions"):
            replay_task(*PAIR, 0, SPEC, side="syn")
