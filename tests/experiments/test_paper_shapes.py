"""The paper's findings as shape checks: Figs. 4-11, §V-E and the ablation.

Each test regenerates one figure or section end to end (compile the
originals, profile, synthesize the clones, compile and measure both
sides) and asserts the paper's qualitative finding, not absolute
numbers.  One module-scoped :class:`ExperimentRunner` serves them all,
so later figures reuse the traces, profiles and clones earlier ones
built, as the paper's one-pass profiling methodology does.  Each
figure runs over the pairs the report gives it: ``QUICK_PAIRS``, or the
report's own set where a figure needs a workload that set lacks (e.g.
dijkstra/large, whose 16 KB adjacency matrix shows the cache knee).
"""

from repro.experiments import (
    run_ablation,
    run_cache_figure,
    run_fig04,
    run_fig05,
    run_fig06,
    run_fig09,
    run_fig10,
    run_fig11,
    run_obfuscation,
)
from repro.experiments.fig06_instmix import MIX_KEYS
from repro.experiments.fig07_cache import CACHE_SIZES
from repro.experiments.report import CACHE_PAIRS, CPI_PAIRS, MACHINE_PAIRS
from repro.experiments.runner import QUICK_PAIRS


def test_fig04(runner):
    """Synthetics run far fewer instructions, with reduction factors
    spread over a range (paper: ~30x on average, R from ~1 to ~250;
    short workloads reduce less because R clamps at 1)."""
    result = run_fig04(runner, QUICK_PAIRS)
    assert result.format_table().startswith("Fig. 4")
    assert len(result.rows) == len(QUICK_PAIRS)
    assert result.average_reduction > 4, "synthetics must be much shorter"
    for row in result.rows:
        assert row["reduction"] > 1.0, row
        assert row["synthetic_instructions"] < row["original_instructions"]
    factors = [row["reduction_factor_R"] for row in result.rows]
    assert max(factors) > 2 * min(factors)


def test_fig05(runner):
    """Both sides drop by roughly a third from -O0 to any higher level,
    and the synthetic tracks the original."""
    result = run_fig05(runner, QUICK_PAIRS)
    assert result.format_table().startswith("Fig. 5")
    assert result.original[0] == 1.0
    assert result.synthetic[0] == 1.0
    for level in (1, 2, 3):
        assert 0 < result.original[level] < 0.85, result.original
        assert 0 < result.synthetic[level] < 0.95, result.synthetic
        assert abs(result.original[level] - result.synthetic[level]) < 0.2


def test_fig06(runner):
    """Synthetics track the originals' mixes, and both lose loads at -O2
    because copy propagation removes reloads."""
    result = run_fig06(runner, QUICK_PAIRS)
    assert result.format_table().startswith("Fig. 6")
    assert len(result.rows) == len(QUICK_PAIRS) * 2 * 2  # x levels x sides
    for row in result.rows:
        assert abs(sum(row["mix"].values()) - 1.0) < 1e-9, row
    for level in (0, 2):
        for key in MIX_KEYS:
            org = result.average("ORG", level, key)
            syn = result.average("SYN", level, key)
            assert abs(org - syn) < 0.12, (level, key, org, syn)
    assert result.average("ORG", 2, "loads") < result.average("ORG", 0, "loads")
    assert result.average("SYN", 2, "loads") < result.average("SYN", 0, "loads")


def test_fig07(runner):
    """At -O0 the synthetic reproduces each benchmark's cache behaviour,
    including dijkstra's working-set knee."""
    result = run_cache_figure(runner, CACHE_PAIRS, 0)
    assert result.format_table().startswith("Fig. 7")
    for workload, input_name in CACHE_PAIRS:
        org = result.series(workload, input_name, "ORG")
        syn = result.series(workload, input_name, "SYN")
        assert set(org) == set(syn) == set(CACHE_SIZES)
        # Hit rates are high (the paper's axis starts at 84%) and the
        # synthetic tracks the original at the profiling size.
        assert org[8 * 1024] > 0.8
        assert abs(org[8 * 1024] - syn[8 * 1024]) < 0.08, (workload, org, syn)
    # dijkstra/large, the most cache-sensitive benchmark, gains from
    # 1 KB to 32 KB in the original (the knee, scaled to our inputs).
    org = result.series("dijkstra", "large", "ORG")
    assert org[32 * 1024] - org[1024] > 0.003


def test_fig08(runner):
    """At -O2 hit rates drop slightly while the size trend stays, and
    the synthetic keeps tracking."""
    result = run_cache_figure(runner, QUICK_PAIRS, 2)
    assert result.format_table().startswith("Fig. 8")
    for workload, input_name in QUICK_PAIRS:
        org = result.series(workload, input_name, "ORG")
        syn = result.series(workload, input_name, "SYN")
        assert abs(org[8 * 1024] - syn[8 * 1024]) < 0.15, (workload, org, syn)
        # Bigger caches never hurt much (monotone-ish curves).
        assert org[32 * 1024] >= org[1024] - 0.02
        assert syn[32 * 1024] >= syn[1024] - 0.02


def test_fig09(runner):
    """Hybrid-predictor accuracies sit in a high band, and the synthetic
    mirrors the original's."""
    result = run_fig09(runner, QUICK_PAIRS)
    assert result.format_table().startswith("Fig. 9")
    for row in result.rows:
        assert 0.70 < row["accuracy"] <= 1.0, row
    gaps = [
        abs(result.accuracy(workload, input_name, "ORG", 0)
            - result.accuracy(workload, input_name, "SYN", 0))
        for workload, input_name in QUICK_PAIRS
    ]
    assert sum(gaps) / len(gaps) < 0.09, gaps


def test_fig10(runner):
    """On a 2-wide out-of-order core fft has the highest CPI and sha one
    of the lowest, on both sides; the synthetic tracks overall CPI and
    dijkstra's cache sensitivity."""
    result = run_fig10(runner, CPI_PAIRS)
    assert result.format_table().startswith("Fig. 10")
    for row in result.rows:
        for cpi in row["cpi"].values():
            assert 0.3 < cpi < 10, row
    org_cpi = {row["workload"]: row["cpi"][8]
               for row in result.rows if row["side"] == "ORG"}
    syn_cpi = {row["workload"]: row["cpi"][8]
               for row in result.rows if row["side"] == "SYN"}
    assert org_cpi["fft"] == max(org_cpi.values())
    assert syn_cpi["fft"] == max(syn_cpi.values())
    assert org_cpi["sha"] <= sorted(org_cpi.values())[1]
    assert syn_cpi["sha"] <= sorted(syn_cpi.values())[1]
    for workload in org_cpi:
        ratio = syn_cpi[workload] / org_cpi[workload]
        assert 0.55 < ratio < 1.5, (workload, ratio)
    dijkstra = next(row for row in result.rows
                    if row["workload"] == "dijkstra" and row["side"] == "ORG")
    assert dijkstra["cpi"][32] <= dijkstra["cpi"][8]


def test_fig11(runner):
    """Across five machines the Core i7 is fastest and the Itanium 2
    slowest, -O2 helps the Itanium more than the Pentium 4, and the
    consolidated synthetic's prediction error stays bounded (paper:
    7.4% average, under 20% max; the simulated substrate gets a wider
    allowance)."""
    result = run_fig11(runner, MACHINE_PAIRS)
    assert result.format_table().startswith("Fig. 11")
    org = result.original
    o0_times = {name: t for (name, lvl), t in org.items() if lvl == 0}
    assert max(o0_times, key=o0_times.get) == "Itanium 2"
    assert min(o0_times, key=o0_times.get) == "Core i7"
    syn_o0 = {name: t for (name, lvl), t in result.synthetic.items()
              if lvl == 0}
    assert max(syn_o0, key=syn_o0.get) == "Itanium 2"
    assert min(syn_o0, key=syn_o0.get) == "Core i7"
    itanium_gain = org[("Itanium 2", 0)] / org[("Itanium 2", 2)]
    p4_gain = org[("Pentium 4, 3GHz", 0)] / org[("Pentium 4, 3GHz", 2)]
    assert itanium_gain > p4_gain
    assert result.average_error < 0.20, result.average_error
    assert result.max_error < 0.45, result.max_error


def test_obfuscation(runner):
    """§V-E: Moss and JPlag find no similarity between an original and
    its clone, while an original against itself scores 100%."""
    result = run_obfuscation(runner, QUICK_PAIRS)
    assert result.format_table().startswith("Obfuscation")
    assert not result.any_flagged, "a clone leaked similarity"
    for row in result.rows:
        assert row["self_moss"] == 1.0
        assert row["moss"] < 0.25
        assert row["jplag"] < 0.25


def test_ablation_sfgl_vs_linear(runner):
    """SFGL synthesis at least matches the linear-sequence baseline
    (Bell & John-style prior work) on every averaged axis."""
    result = run_ablation(runner, QUICK_PAIRS)
    assert result.format_table().startswith("Ablation: SFGL")
    assert len(result.rows) == len(QUICK_PAIRS)
    assert result.average("sfgl_branch_err") <= result.average(
        "linear_branch_err") + 0.01
    assert result.average("sfgl_mix_err") <= result.average(
        "linear_mix_err") + 0.02
    assert result.average("sfgl_cache_err") <= result.average(
        "linear_cache_err") + 0.02
