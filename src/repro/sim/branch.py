"""Branch predictors.

The paper evaluates branch behaviour with PTLSim's hybrid predictor — a
bimodal component plus a history-based component with a meta chooser.  We
implement exactly that trio and drive it from the recorded branch-outcome
stream (``uid`` plays the role of the branch PC).

:func:`simulate_predictor` replays a log through these classes one branch
at a time; :func:`hybrid_accuracy` gets the same accuracy from the replay
kernels' vectorised predictor, and is what the figures use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import ExpHistogram


class BimodalPredictor:
    """Per-PC 2-bit saturating counters."""

    def __init__(self, entries: int = 4096):
        self.mask = entries - 1
        self.table = [2] * entries  # weakly taken

    def predict(self, pc: int) -> bool:
        return self.table[pc & self.mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = pc & self.mask
        counter = self.table[index]
        if taken:
            if counter < 3:
                self.table[index] = counter + 1
        elif counter > 0:
            self.table[index] = counter - 1


class GsharePredictor:
    """Global-history predictor: PC xor history indexes 2-bit counters."""

    def __init__(self, entries: int = 4096, history_bits: int = 12):
        self.mask = entries - 1
        self.table = [2] * entries
        self.history = 0
        self.history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & self.mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self.table[index]
        if taken:
            if counter < 3:
                self.table[index] = counter + 1
        elif counter > 0:
            self.table[index] = counter - 1
        self.history = ((self.history << 1) | taken) & self.history_mask


class HybridPredictor:
    """Bimodal + gshare with a per-PC meta chooser (PTLSim-style)."""

    def __init__(self, entries: int = 4096, history_bits: int = 12):
        self.bimodal = BimodalPredictor(entries)
        self.gshare = GsharePredictor(entries, history_bits)
        self.meta = [2] * entries  # >=2 prefers gshare
        self.mask = entries - 1
        #: Distribution of correct-prediction run lengths (branches
        #: between consecutive mispredicts).  The scalar accuracy hides
        #: burstiness — evenly-spaced mispredicts and clustered ones
        #: pipeline-flush very differently; fidelity scoring compares
        #: these run-length histograms between clone and original.
        self.run_hist = ExpHistogram()
        self._run = 0

    def predict(self, pc: int) -> bool:
        if self.meta[pc & self.mask] >= 2:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        bimodal_correct = self.bimodal.predict(pc) == taken
        gshare_correct = self.gshare.predict(pc) == taken
        index = pc & self.mask
        # The chooser's pick before any table updates — identical to
        # what predict(pc) returned for this branch.
        overall_correct = (gshare_correct if self.meta[index] >= 2
                           else bimodal_correct)
        if overall_correct:
            self._run += 1
        else:
            self.run_hist.add(self._run)
            self._run = 0
        if gshare_correct != bimodal_correct:
            counter = self.meta[index]
            if gshare_correct:
                if counter < 3:
                    self.meta[index] = counter + 1
            elif counter > 0:
                self.meta[index] = counter - 1
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)

    def finalize_runs(self) -> None:
        """Flush the trailing correct-prediction run into the histogram."""
        if self._run:
            self.run_hist.add(self._run)
            self._run = 0


@dataclass
class PredictorResult:
    """Outcome of replaying a branch stream through a predictor."""

    branches: int
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.branches if self.branches else 1.0

    @property
    def misses(self) -> int:
        return self.branches - self.correct


def hybrid_accuracy(branch_log) -> float:
    """Accuracy of a fresh :class:`HybridPredictor` over a packed
    ``(uid << 1) | taken`` log, computed by the replay kernels'
    vectorised predictor; :func:`simulate_predictor` is the reference
    loop the tests pin it against."""
    # Deferred: the kernels module is large and only this call needs it.
    from repro.sim.kernels import _predictor_sim
    from repro.sim.trace import as_array

    br = as_array(branch_log)
    if not br.size:
        return 1.0
    _, hits, _ = _predictor_sim(br, 4096)
    return hits / br.size


def simulate_predictor(branch_log, predictor=None) -> PredictorResult:
    """Replay a ``(uid << 1) | taken`` log; returns accuracy stats."""
    if predictor is None:
        predictor = HybridPredictor()
    correct = 0
    total = 0
    predict = predictor.predict
    update = predictor.update
    for packed in branch_log:
        pc = packed >> 1
        taken = bool(packed & 1)
        if predict(pc) == taken:
            correct += 1
        update(pc, taken)
        total += 1
    return PredictorResult(branches=total, correct=correct)
