"""Simulation substrate: functional execution, traces, caches, branch
predictors, timing models and machine configurations.

The functional simulator stands in for real hardware + Pin; it executes a
linked :class:`repro.isa.machine.Binary` and records an
:class:`ExecutionTrace` (dynamic block sequence + data addresses + branch
outcomes, packed into narrow typed arrays).  Everything downstream is
trace-driven:

* :mod:`repro.sim.cache` — set-associative LRU caches: the one stream
  kernel (``lru_sweep``) behind memory profiling, the multi-size sweeps
  (Figs. 7, 8) and the replay kernels' L1/L2 latency codes, plus the
  per-access ``Cache`` the python timing models drive;
* :mod:`repro.sim.branch` — bimodal / gshare / hybrid predictors, the
  reference for the replay kernels' predictor (Fig. 9 runs on the
  kernel);
* :mod:`repro.sim.timing_common` — the shared replay core: decoded
  binaries (weakly cached, one decode per live binary),
  ``TimingConfig``/``TimingResult``, and the ``TimingModel`` base the
  cycle models ride;
* :mod:`repro.sim.ooo` — 2-wide out-of-order scoreboard model (Fig. 10);
* :mod:`repro.sim.inorder` — in-order/EPIC model (Itanium in Fig. 11);
* :mod:`repro.sim.machines` — the five Table III machines, built from
  parametric ``MachineSpec``s (``spec.fingerprint()`` is the engine's
  replay content-address);
* :mod:`repro.sim.kernels` — batched numpy replay kernels that
  ``TimingModel.simulate`` uses for every trace of the models they
  understand, byte-identical to the python models but one to two
  orders of magnitude faster;
* :mod:`repro.sim.fastexec` — the block-compiling execution engine that
  ``run_binary``/``Simulator`` run first, byte-identical traces several
  times faster than the reference interpreter, which serves the
  binaries it cannot run.
"""

from repro.sim.functional import SimTrap, Simulator, run_binary
from repro.sim.trace import ExecutionTrace, InstructionMix
from repro.sim.cache import Cache, CacheConfig, simulate_cache, sweep_cache_sizes
from repro.sim.branch import (
    BimodalPredictor,
    GsharePredictor,
    HybridPredictor,
    simulate_predictor,
)
from repro.sim.ooo import OutOfOrderModel
from repro.sim.timing_common import (
    DecodedBinary,
    TimingConfig,
    TimingModel,
    TimingResult,
    decode_binary,
)
from repro.sim.inorder import InOrderModel
from repro.sim.machines import MACHINES, Machine, estimate_runtime

__all__ = [
    "BimodalPredictor",
    "Cache",
    "CacheConfig",
    "DecodedBinary",
    "ExecutionTrace",
    "GsharePredictor",
    "HybridPredictor",
    "InOrderModel",
    "InstructionMix",
    "MACHINES",
    "Machine",
    "OutOfOrderModel",
    "SimTrap",
    "Simulator",
    "TimingConfig",
    "TimingModel",
    "TimingResult",
    "decode_binary",
    "estimate_runtime",
    "run_binary",
    "simulate_cache",
    "simulate_predictor",
    "sweep_cache_sizes",
]
