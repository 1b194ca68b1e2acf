"""Request normalization, job keys, and job lifecycle."""

from __future__ import annotations

import threading

import pytest

from repro.serve.jobs import (
    BadRequest,
    JobRegistry,
    estimate_stages,
    job_key,
    normalize_request,
)
from repro.workloads import WORKLOADS

PAIR = [list(WORKLOADS)[0], "small"]


class TestNormalize:
    def test_rejects_unknown_kind(self):
        with pytest.raises(BadRequest, match="unknown job kind"):
            normalize_request({"kind": "make-coffee"})

    def test_rejects_non_object(self):
        with pytest.raises(BadRequest):
            normalize_request(["kind", "warm"])

    def test_rejects_unknown_workload(self):
        with pytest.raises(BadRequest, match="unknown workload"):
            normalize_request({"kind": "warm", "pairs": [["nope", "small"]]})

    def test_rejects_unknown_input(self):
        with pytest.raises(BadRequest, match="unknown input"):
            normalize_request(
                {"kind": "warm", "pairs": [[PAIR[0], "galactic"]]})

    def test_rejects_unknown_figure(self):
        with pytest.raises(BadRequest, match="unknown figure"):
            normalize_request({"kind": "figure", "figure": "fig99"})

    def test_rejects_unknown_machine_axis(self):
        with pytest.raises(BadRequest, match="unknown machine axis"):
            normalize_request({
                "kind": "replay", "workload": PAIR[0], "input": "small",
                "machine": {"l7_kb": 1},
            })

    def test_rejects_unknown_preset(self):
        with pytest.raises(BadRequest, match="unknown preset"):
            normalize_request({"kind": "sweep", "preset": "galaxy"})

    def test_slash_and_list_pair_forms_agree(self):
        slash = normalize_request(
            {"kind": "warm", "pairs": [f"{PAIR[0]}/small"]})
        listed = normalize_request({"kind": "warm", "pairs": [PAIR]})
        assert slash == listed

    def test_pair_order_is_canonical(self):
        pairs = [[list(WORKLOADS)[1], "small"], PAIR]
        forward = normalize_request({"kind": "warm", "pairs": pairs})
        backward = normalize_request(
            {"kind": "warm", "pairs": list(reversed(pairs))})
        assert forward == backward

    def test_defaults_are_materialized(self):
        _, params, _ = normalize_request({"kind": "warm", "pairs": [PAIR]})
        assert params["coords"] == [["x86", 0]]
        assert params["sides"] == ["org", "syn"]
        assert params["target_instructions"] > 0

    def test_machine_axes_coerce_and_fill(self):
        _, params, _ = normalize_request({
            "kind": "replay", "workload": PAIR[0], "input": "small",
            "machine": {"width": "4"},
        })
        assert params["machine"]["width"] == 4
        assert params["machine"]["rob"] > 0  # defaults materialized

    def test_client_defaults_to_anonymous(self):
        _, _, client = normalize_request({"kind": "warm", "pairs": [PAIR]})
        assert client == "anonymous"

    def test_search_validates_strategy_and_budget(self):
        with pytest.raises(BadRequest, match="unknown strategy"):
            normalize_request({"kind": "search", "preset": "smoke",
                               "strategy": "oracle"})
        with pytest.raises(BadRequest, match="budget"):
            normalize_request({"kind": "search", "preset": "smoke",
                               "budget": 0})


class TestJobKey:
    def test_equal_requests_equal_keys(self):
        a = {"kind": "warm", "pairs": [f"{PAIR[0]}/small"]}
        b = {"kind": "warm", "pairs": [PAIR]}
        ka = job_key(*normalize_request(a)[:2])
        kb = job_key(*normalize_request(b)[:2])
        assert ka == kb

    def test_different_params_different_keys(self):
        kind, params, _ = normalize_request(
            {"kind": "warm", "pairs": [PAIR]})
        other = dict(params, target_instructions=999)
        assert job_key(kind, params) != job_key(kind, other)

    def test_kind_is_part_of_the_key(self):
        _, params, _ = normalize_request({"kind": "sweep",
                                          "preset": "smoke"})
        _, search_params, _ = normalize_request(
            {"kind": "search", "preset": "smoke"})
        assert job_key("sweep", params) != job_key("search", search_params)


class TestEstimateStages:
    def test_replay_graph_is_exact(self):
        kind, params, _ = normalize_request({
            "kind": "replay", "workload": PAIR[0], "input": "small",
            "machine": {},
        })
        stages = estimate_stages(kind, params)
        assert sorted(stages) == ["compile", "replay", "run"]
        kind, params, _ = normalize_request({
            "kind": "replay", "workload": PAIR[0], "input": "small",
            "machine": {}, "side": "syn",
        })
        stages = estimate_stages(kind, params)
        assert sorted(stages) == ["compile", "compile-clone", "profile",
                                  "replay", "run", "run-clone",
                                  "synthesize"]

    def test_warm_counts_both_sides(self):
        kind, params, _ = normalize_request(
            {"kind": "warm", "pairs": [PAIR]})
        stages = estimate_stages(kind, params)
        assert "compile" in stages and "synthesize" in stages

    def test_sweep_scales_with_space(self):
        kind, params, _ = normalize_request(
            {"kind": "sweep", "preset": "smoke"})
        kind2, params2, _ = normalize_request(
            {"kind": "search", "preset": "smoke", "budget": 1})
        assert len(estimate_stages(kind, params)) > \
            len(estimate_stages(kind2, params2))


class TestJobLifecycle:
    def test_states_and_events(self):
        registry = JobRegistry()
        job = registry.create("warm", {}, "c", "k" * 64)
        assert job.state == "queued"
        job.set_running()
        job.set_done({"nodes": 1})
        assert job.finished
        assert [e["event"] for e in job.events_since(0)] == \
            ["queued", "started", "done"]

    def test_failure_carries_error(self):
        job = JobRegistry().create("warm", {}, "c", "k" * 64)
        job.set_running()
        job.set_failed("boom")
        assert job.state == "failed"
        assert job.status()["error"] == "boom"

    def test_wait_unblocks_on_completion(self):
        job = JobRegistry().create("warm", {}, "c", "k" * 64)
        done = threading.Event()

        def finisher():
            job.set_running()
            job.set_done({})
            done.set()

        threading.Thread(target=finisher).start()
        assert job.wait(timeout=5.0)
        assert done.is_set()

    def test_events_since_pages(self):
        job = JobRegistry().create("warm", {}, "c", "k" * 64)
        job.add_event("point", index=0)
        assert [e["event"] for e in job.events_since(1)] == ["point"]

    def test_registry_counts(self):
        registry = JobRegistry()
        a = registry.create("warm", {}, "c", "a" * 64)
        b = registry.create("warm", {}, "c", "b" * 64)
        a.set_running()
        a.set_done({})
        counts = registry.counts()
        assert counts["done"] == 1
        assert counts["queued"] == 1
        assert registry.get(b.id) is b
        assert registry.get("nope") is None

    def test_ids_are_unique_and_keyed(self):
        registry = JobRegistry()
        a = registry.create("warm", {}, "c", "a" * 64)
        b = registry.create("warm", {}, "c", "a" * 64)
        assert a.id != b.id
        assert a.key[:8] in a.id


class TestSynthNormalization:
    """Synthetic workloads through the daemon: names and recipe-params
    objects normalize to the same canonical form, so both coalesce."""

    NAME = "synth:s7-int-f256-d2-t8-e50-c2"
    PARAMS = {"seed": 7, "mix": "int"}

    def test_recipe_params_fold_to_canonical_name(self):
        by_name = normalize_request({
            "kind": "replay", "workload": self.NAME, "input": "small"})
        by_params = normalize_request({
            "kind": "replay", "workload": self.PARAMS, "input": "small"})
        assert by_name == by_params
        kind, params, _ = by_params
        assert params["workload"] == self.NAME
        assert job_key(kind, params) == job_key(*by_name[:2])

    def test_recipe_params_in_warm_pairs(self):
        kind, params, _ = normalize_request({
            "kind": "warm", "pairs": [[self.PARAMS, "small"]],
            "coords": [["x86", 0]]})
        assert params["pairs"] == [[self.NAME, "small"]]

    def test_bad_recipe_params_are_400(self):
        with pytest.raises(BadRequest, match="bad synth recipe"):
            normalize_request({
                "kind": "replay", "workload": {"mix": "nope"},
                "input": "small"})

    def test_malformed_synth_name_is_400_with_grammar(self):
        with pytest.raises(BadRequest, match="synth names look like"):
            normalize_request({
                "kind": "replay", "workload": "synth:bogus",
                "input": "small"})

    def test_unknown_builtin_gets_suggestions(self):
        with pytest.raises(BadRequest, match="did you mean"):
            normalize_request({
                "kind": "replay", "workload": "dijkstr", "input": "small"})

    def test_estimate_prices_synth_like_builtin(self):
        kind, params, _ = normalize_request({
            "kind": "replay", "workload": self.NAME, "input": "small"})
        stages = estimate_stages(kind, params)
        assert stages  # the full org-side chain is priced
