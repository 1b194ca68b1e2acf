"""Full-evaluation report generator.

``python -m repro.experiments`` regenerates the tables and figures of
the paper's evaluation section and writes a markdown report (used to
produce EXPERIMENTS.md).  tests/experiments/test_paper_shapes.py
checks each figure's findings over the same pairs.

Each figure is registered in :data:`FIGURES` together with the
(pairs, ISA, opt-level) grid it reads, so the engine can materialize the
whole grid up front — in parallel when ``workers > 1``, and from the
persistent artifact store on warm runs.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.experiments.ablation import run_ablation
from repro.experiments.fig04_reduction import run_fig04
from repro.experiments.fig05_optlevels import run_fig05
from repro.experiments.fig06_instmix import run_fig06
from repro.experiments.fig07_cache import run_cache_figure
from repro.experiments.fig09_branch import run_fig09
from repro.experiments.fig10_cpi import run_fig10
from repro.experiments.fig11_machines import run_fig11
from repro.engine.store import toolchain_fingerprint
from repro.experiments.obfuscation import run_obfuscation
from repro.experiments.runner import ExperimentRunner, FULL_PAIRS, QUICK_PAIRS
from repro.explore.db import RESULTS_DB_ENV, ResultsDB
from repro.explore.space import (
    EXPLORE_PAIRS,
    ISA_OPT_SPACE,
    format_point,
    get_preset,
)
from repro.explore.sweep import run_sweep
from repro.tables import format_table

CACHE_PAIRS = (
    ("adpcm", "small"),
    ("crc32", "small"),
    ("dijkstra", "large"),
    ("fft", "small"),
    ("qsort", "small"),
    ("sha", "small"),
    ("stringsearch", "small"),
    ("susan", "small"),
)
CPI_PAIRS = (
    ("adpcm", "small"),
    ("crc32", "small"),
    ("dijkstra", "large"),
    ("fft", "small"),
    ("qsort", "small"),
    ("sha", "small"),
)
MACHINE_PAIRS = EXPLORE_PAIRS

_X86 = "x86"


def _report_db_path(runner: ExperimentRunner):
    """The results DB the report reads/writes, or ``None`` when caching
    is off: it lives next to the artifact store (``$REPRO_RESULTS_DB``
    wins), so a relocated store carries its sweep history along."""
    store = runner.engine.store
    if store is None:
        return None
    return os.environ.get(RESULTS_DB_ENV) or \
        Path(store.root) / "explore.sqlite3"


def run_explore_sweep(runner: ExperimentRunner, pairs=None):
    """The wider default grid: the explorer's isa-opt preset (all three
    ISAs at O0..O3) over the **full** workload suite — every
    (workload, input) pair, not the quick subset; warm replay makes
    this free, and on a warm store/DB the section costs zero compiles
    and zero runs.

    The DB follows the engine's cache settings (see
    :func:`_report_db_path`); a cache-disabled engine gets a throwaway
    DB so ``--no-cache`` reports measure pure compute instead of
    replaying stale disk state.
    """
    preset = get_preset("isa-opt")
    pairs = tuple(pairs) if pairs else FULL_PAIRS
    db_path = _report_db_path(runner)
    if db_path is None:
        with tempfile.TemporaryDirectory(prefix="repro-explore-") as tmp:
            with ResultsDB(Path(tmp) / "explore.sqlite3") as db:
                return run_sweep(preset, engine=runner.engine, db=db,
                                 pairs=pairs)
    with ResultsDB(db_path) as db:
        return run_sweep(preset, engine=runner.engine, db=db,
                         pairs=pairs)


@dataclass(frozen=True)
class ExploreHistory:
    """Sweep history read from the results DB (no compiles, no runs)."""

    rows: list
    db_path: str

    def format_table(self) -> str:
        title = (
            f"Sweep history — per-toolchain best score across sweep "
            f"labels ({self.db_path})"
        )
        if not self.rows:
            return f"{title}\n(no stored sweep results yet)"
        return format_table(
            ["toolchain", "sweep", "points", "best score", "mean score",
             "best point", "latest"],
            self.rows, title=title,
        )


def run_explore_history(runner: ExperimentRunner) -> ExploreHistory:
    """Render sweep history from ``explore.sqlite3``: one row per
    (toolchain, sweep label) with its best/mean score — the cross-run
    trend of clone fidelity as the toolchain evolves.  The live
    toolchain is marked ``*`` and sorts first; within a toolchain, rows
    follow recording order, so consecutive rows read as a trend line.
    """
    db_path = _report_db_path(runner)
    if db_path is None:
        return ExploreHistory(rows=[], db_path="cache disabled")
    live = toolchain_fingerprint()
    with ResultsDB(db_path) as db:
        records = db.query()
    groups: dict[tuple[str, str], list] = {}
    for record in records:
        groups.setdefault((record.toolchain, record.sweep),
                          []).append(record)
    ordered = sorted(
        groups.items(),
        key=lambda item: (item[0][0] != live, item[0][0],
                          max(r.created_at for r in item[1])),
    )
    rows = []
    for (toolchain, sweep), members in ordered:
        best = min(members, key=lambda r: (r.score, r.key))
        latest = max(r.created_at for r in members)
        label = (toolchain[:12] or "?") + ("*" if toolchain == live else "")
        rows.append([
            label, sweep, len(members), best.score,
            sum(r.score for r in members) / len(members),
            format_point(best.point),
            time.strftime("%Y-%m-%d %H:%M", time.localtime(latest)),
        ])
    return ExploreHistory(rows=rows, db_path=str(db_path))


@dataclass(frozen=True)
class SearchTrace:
    """Adaptive-search round trail read from the results DB."""

    rows: list
    db_path: str

    def format_table(self) -> str:
        title = (
            f"Search trace — best score per adaptive-search round "
            f"({self.db_path})"
        )
        if not self.rows:
            return f"{title}\n(no stored search rounds yet)"
        return format_table(
            ["search", "round", "points", "pairs", "round best",
             "best so far", "latest"],
            self.rows, title=title,
        )


def run_search_trace(runner: ExperimentRunner) -> SearchTrace:
    """Render the best-score-per-round trend of every stored adaptive
    search (``<search>/round-<k>`` sweep labels) — pure DB read, zero
    compiles and zero runs, like the sweep-history section.

    ``best so far`` is the running minimum across the search's
    **full-scope** rounds only: a reduced-pair cohort round (successive
    halving screens on one pair) shows its own best but is not
    score-comparable, so it never pins the trend — mirroring
    ``SearchResult.format_table``.
    """
    db_path = _report_db_path(runner)
    if db_path is None:
        return SearchTrace(rows=[], db_path="cache disabled")
    with ResultsDB(db_path) as db:
        rows = []
        for search in db.searches():
            rounds = db.rounds(search)
            full_scope = max((pairs for *_, pairs in rounds
                              if pairs is not None), default=None)
            best_so_far = None
            for index, _, count, best, latest, pairs in rounds:
                comparable = pairs is None or pairs == full_scope
                if comparable and (best_so_far is None
                                   or best < best_so_far):
                    best_so_far = best
                rows.append([
                    search, index, count,
                    pairs if pairs is not None else "?",
                    best,
                    best_so_far if best_so_far is not None
                    else float("nan"),
                    time.strftime("%Y-%m-%d %H:%M",
                                  time.localtime(latest)),
                ])
    return SearchTrace(rows=rows, db_path=str(db_path))


@dataclass(frozen=True)
class FigureSpec:
    """One report section: how to run it and what grid it reads.

    ``run`` receives the runner and the *effective* pair set — the
    spec's default ``pairs`` unless the caller overrides it (the CLI's
    ``--pairs``).  Sections with ``pairs=()`` are pure DB reads; they
    receive and ignore an empty tuple regardless of any override.
    """

    title: str
    run: Callable[[ExperimentRunner, tuple], object]
    pairs: tuple[tuple[str, str], ...]
    #: (isa, opt_level) coordinates the figure measures both sides at —
    #: what Engine.warm prefetches before the figure executes.
    coords: tuple[tuple[str, int], ...]

    def effective_pairs(self, override=None) -> tuple:
        """The pair grid this figure reads under an optional override."""
        if override and self.pairs:
            return tuple(override)
        return self.pairs


FIGURES: dict[str, FigureSpec] = {
    "fig04": FigureSpec(
        "Fig. 4 — dynamic instruction count reduction",
        lambda r, pairs: run_fig04(r, pairs),
        QUICK_PAIRS, ((_X86, 0),),
    ),
    "fig05": FigureSpec(
        "Fig. 5 — normalized instruction count across -O0..-O3",
        lambda r, pairs: run_fig05(r, pairs),
        QUICK_PAIRS, tuple((_X86, level) for level in (0, 1, 2, 3)),
    ),
    "fig06": FigureSpec(
        "Fig. 6 — instruction mix at -O0 and -O2",
        lambda r, pairs: run_fig06(r, pairs),
        QUICK_PAIRS, ((_X86, 0), (_X86, 2)),
    ),
    "fig07": FigureSpec(
        "Fig. 7 — D-cache hit rates at -O0",
        lambda r, pairs: run_cache_figure(r, pairs, opt_level=0),
        CACHE_PAIRS, ((_X86, 0),),
    ),
    "fig08": FigureSpec(
        "Fig. 8 — D-cache hit rates at -O2",
        lambda r, pairs: run_cache_figure(r, pairs, opt_level=2),
        QUICK_PAIRS, ((_X86, 2),),
    ),
    "fig09": FigureSpec(
        "Fig. 9 — hybrid branch predictor accuracy",
        lambda r, pairs: run_fig09(r, pairs),
        QUICK_PAIRS, ((_X86, 0), (_X86, 2)),
    ),
    "fig10": FigureSpec(
        "Fig. 10 — CPI on a 2-wide OoO core",
        lambda r, pairs: run_fig10(r, pairs),
        # run_fig10 warms its own replay nodes and reads only their
        # timings, so the prefetch is only each pair's reference chain.
        CPI_PAIRS, (),
    ),
    "fig11": FigureSpec(
        "Fig. 11 — normalized time across machines/compilers",
        lambda r, pairs: run_fig11(r, pairs),
        # run_fig11 warms its own machine-point replays and reads the
        # consolidated clone's timings from one engine stage, so the
        # prefetch is only each pair's reference chain.
        MACHINE_PAIRS, (),
    ),
    "explore": FigureSpec(
        "Design-space sweep — ISA × opt grid over the full suite "
        "(repro.explore, isa-opt preset)",
        lambda r, pairs: run_explore_sweep(r, pairs),
        FULL_PAIRS,
        # Derived from the preset's space so the warmed grid can never
        # drift from what run_sweep actually measures.
        tuple(sorted({(p["isa"], p["opt_level"])
                      for p in ISA_OPT_SPACE.points()})),
    ),
    "history": FigureSpec(
        "Sweep history — cross-run results DB (repro.explore)",
        lambda r, pairs: run_explore_history(r),
        # Pure DB read: nothing to warm.
        (), (),
    ),
    "search": FigureSpec(
        "Search trace — adaptive-search rounds from the results DB "
        "(repro.explore.search)",
        lambda r, pairs: run_search_trace(r),
        # Pure DB read: nothing to warm.
        (), (),
    ),
    "obfuscation": FigureSpec(
        "Obfuscation (§V-E) — Moss/JPlag similarity",
        lambda r, pairs: run_obfuscation(r, pairs),
        # Each row is one similarity-stage artifact derived from the
        # pair's clone: no trace is read.
        QUICK_PAIRS, (),
    ),
    "ablation": FigureSpec(
        "Ablation — SFGL vs linear-sequence baseline",
        lambda r, pairs: run_ablation(r, pairs),
        # Each row is one ablation-stage artifact, which resolves the
        # reference runs it measures itself: no trace is read.
        QUICK_PAIRS, (),
    ),
}

#: Report order (dict order is insertion order, but be explicit).
DEFAULT_FIGURES = tuple(FIGURES)


def resolve_figures(names) -> tuple[str, ...]:
    """Validate and order a figure-name selection (None → everything)."""
    if not names:
        return DEFAULT_FIGURES
    unknown = sorted(set(names) - set(FIGURES))
    if unknown:
        raise KeyError(
            f"unknown figures: {', '.join(unknown)} "
            f"(available: {', '.join(FIGURES)})"
        )
    return tuple(name for name in DEFAULT_FIGURES if name in set(names))


def warm_figures(runner: ExperimentRunner, figures=None,
                 workers: int | None = None, pairs=None) -> int:
    """Prefetch every (pair, ISA, opt) the selected figures will read.

    Grouped per pairs-set so one DAG covers all coordinates that share
    the reference chain; returns the total number of graph nodes.
    *pairs* overrides every pair-reading figure's grid (the CLI's
    ``--pairs``); pure-DB sections are unaffected.
    """
    demands: dict[tuple, set] = {}
    for name in resolve_figures(figures):
        spec = FIGURES[name]
        demands.setdefault(spec.effective_pairs(pairs),
                           set()).update(spec.coords)
    nodes = 0
    for pair_set, coords in demands.items():
        nodes += runner.warm(pair_set, sorted(coords), workers=workers)
    return nodes


def generate_report(
    runner: ExperimentRunner | None = None,
    figures=None,
    workers: int | None = None,
    pairs=None,
) -> str:
    """Run the selected figures (default: all); returns markdown text.

    *pairs* — optional (workload, input) tuple override applied to
    every pair-reading figure, e.g. to point the report at synthetic
    ``synth:`` workloads instead of the builtin suite.
    """
    runner = runner or ExperimentRunner()
    selection = resolve_figures(figures)
    sections: list[str] = []

    start = time.time()
    warm_figures(runner, selection, workers=workers, pairs=pairs)
    for name in selection:
        spec = FIGURES[name]
        result = spec.run(runner, spec.effective_pairs(pairs))
        sections.append(f"## {spec.title}\n\n```\n{result.format_table()}\n```\n")
    elapsed = time.time() - start

    scope = "full evaluation" if selection == DEFAULT_FIGURES else \
        f"figures: {', '.join(selection)}"
    stats = runner.cache_stats
    header = (
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Regenerated with `python -m repro.experiments` "
        f"({scope}, {elapsed:.0f}s wall clock; "
        f"artifact cache: {stats.hits} hits / {stats.misses} misses).\n"
    )
    return header + "\n" + "\n".join(sections)
