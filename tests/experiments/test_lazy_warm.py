"""A report's prefetch reads only the sinks of its graphs, and builds
only the nodes its figures read."""

from repro.engine.api import Engine
from repro.engine.scheduler import sinks
from repro.engine.store import ArtifactStore
from repro.engine.tasks import build_pipeline_graph
from repro.experiments.report import FIGURES, generate_report, warm_figures
from repro.experiments.runner import ExperimentRunner

PAIRS = (("crc32", "small"),)
SELECTION = ("fig04", "fig05", "fig06")


def make_runner(root) -> ExperimentRunner:
    return ExperimentRunner(engine=Engine(store=ArtifactStore(root=root)))


def test_warm_figures_reads_one_artifact_per_sink(tmp_path):
    generate_report(make_runner(tmp_path), figures=SELECTION, pairs=PAIRS)

    runner = make_runner(tmp_path)
    store = runner.engine.store
    gets = []
    real_get = store.get

    def counting_get(key, default=None):
        gets.append(key)
        return real_get(key, default)

    store.get = counting_get
    warm_figures(runner, SELECTION, pairs=PAIRS)

    coords = sorted({coord for name in SELECTION
                     for coord in FIGURES[name].coords})
    graph = build_pipeline_graph(PAIRS, coords, runner.target_instructions)
    assert len(gets) == len(set(gets)) == len(sinks(graph))
    assert len(sinks(graph)) < len(graph)
    assert store.stats.misses == 0 and store.stats.puts == 0


def test_fig11_prefetch_builds_no_clone_runs(tmp_path):
    # Fig. 11 times a consolidated clone in one engine stage, so its
    # prefetch needs no per-coordinate clone of any pair.
    runner = make_runner(tmp_path)
    warm_figures(runner, ("fig11",), pairs=PAIRS)
    stored = runner.engine.store.by_stage()
    assert "profile" in stored
    assert "compile-clone" not in stored and "run-clone" not in stored
