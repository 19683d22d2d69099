"""Incremental planning and configuration sampling (repro/core/plan.py).

The headline contracts:

1. **Plans are deterministic.**  The same store contents, registry diff
   and seed produce the same plan and the same findings — across
   serial and supervised-pool runs and across interruption + resume.
2. **Incremental equals cold.**  Whatever the plan folds back from the
   store, the findings stay byte-identical to a full cold campaign over
   the same corpus and registry.
3. **Sampling is a pure function** of (seed, test, group, structure),
   and pairwise never costs more than the exhaustive walk.

The corpus lives under its own app name (``plansynth``) with its own
node types so the extra registrations cannot shift stage counts for the
other synth-based suites.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import threading

import pytest

from repro.cli import main as cli_main
from repro.common.configuration import ref_to_clone
from repro.common.errors import TestFailure
from repro.common.node import register_node_type
from repro.common.params import ParamRegistry
from repro.core.checkpoint import CheckpointError
from repro.core.confagent import current_agent
from repro.core.jobqueue import JobSpecError, canonical_spec
from repro.core.orchestrator import (Campaign, CampaignCancelled,
                                     CampaignConfig)
from repro.core.plan import (PLAN_NEW, PLAN_RERUN, PLAN_REUSE,
                             SAMPLE_DISSIMILARITY, SAMPLE_PAIRWISE,
                             SAMPLE_RANDOM_K, profile_key, sample_cells)
from repro.core.prerun import prerun_test
from repro.core.registry import UnitTest
from repro.core.report import app_report_to_dict, findings_projection
from repro.core.reportmd import app_report_markdown
from repro.core.store import ResultStore
from synthetic_app import SYNTH_REGISTRY, Service, SynthConfiguration

APP = "plansynth"
register_node_type(APP, "Service")
register_node_type(APP, "LeanService")
register_node_type(APP, "LeanMode")


class LeanService:
    """Reads only the safe parameters, so its profile key survives a
    synth.level mutation — true REUSE next to the Service tests, whose
    init reads every parameter."""

    node_type = "LeanService"

    def __init__(self, conf):
        agent = current_agent()
        agent.start_init(self, self.node_type)
        try:
            self.conf = ref_to_clone(conf)
            self.safe_a = self.conf.get_int("synth.safe-a")
            self.safe_b = self.conf.get_bool("synth.safe-b")
        finally:
            agent.stop_init()


class LeanMode:
    """Reads a safe parameter plus synth.mode: REUSE-keyed after a
    synth.level mutation, but coupled to the rerunning profiles through
    synth.mode's confirmation — the closure must demote it."""

    node_type = "LeanMode"

    def __init__(self, conf):
        agent = current_agent()
        agent.start_init(self, self.node_type)
        try:
            self.conf = ref_to_clone(conf)
            self.safe_a = self.conf.get_int("synth.safe-a")
            self.mode = self.conf.get_bool("synth.mode")
        finally:
            agent.stop_init()


def exchange_test(name="TestPlan.testExchange"):
    def body(ctx):
        conf = SynthConfiguration()
        first = Service(conf)
        second = Service(conf)
        first.exchange(second)
        second.exchange(first)

    return UnitTest(app=APP, name=name, fn=body)


def level_view_test(name="TestPlan.testLevelView"):
    def body(ctx):
        conf = SynthConfiguration()
        service = Service(conf)
        if conf.get_int("synth.level") != service.level:
            raise TestFailure("client and service disagree on synth.level")

    return UnitTest(app=APP, name=name, fn=body)


def lean_safe_test(name="TestPlan.testLeanSafe"):
    def body(ctx):
        node = LeanService(SynthConfiguration())
        if node.safe_a < 0:
            raise TestFailure("impossible")

    return UnitTest(app=APP, name=name, fn=body)


def lean_mode_test(name="TestPlan.testLeanMode"):
    def body(ctx):
        node = LeanMode(SynthConfiguration())
        if node.safe_a < 0:
            raise TestFailure("impossible")

    return UnitTest(app=APP, name=name, fn=body)


LEVEL_MUTATION = {"synth.level": {"candidates": (10, 2000)}}


def mutated_registry(**overrides):
    """A fresh registry with some parameter definitions replaced — the
    'operator edited one parameter' scenario.  Names are unchanged, so
    the store's corpus digest (names only) keeps serving."""
    registry = ParamRegistry("synth")
    for param in SYNTH_REGISTRY:
        fields = overrides.get(param.name)
        if fields:
            param = dataclasses.replace(param, **fields)
        registry.register(param)
    return registry


def findings(report):
    return json.dumps(findings_projection(app_report_to_dict(report)),
                      sort_keys=True)


def plan_dict(report):
    assert report.plan is not None
    return report.plan.to_dict()


def decisions_of(report):
    return {p["test"]: p["decision"] for p in plan_dict(report)["profiles"]}


def campaign(tests, store=None, registry=None, **kw):
    if store is not None:
        kw.setdefault("store_path", str(store))
    return Campaign(APP, registry if registry is not None else SYNTH_REGISTRY,
                    tests=tests, config=CampaignConfig(**kw))


# ---------------------------------------------------------------------------
# sample_cells: the pure sampling function
# ---------------------------------------------------------------------------
STRATEGIES = ("cross", "cross-swapped", "round-robin")
LAYERS = {"p.a": 2, "p.b": 3, "p.c": 1}


def cells_of(mode, seed=0, k=None, layers=LAYERS):
    return sample_cells(mode, seed, k, "t::x", "Service", STRATEGIES, layers)


class TestSampleCells:
    def test_exhaustive_mode_keeps_everything(self):
        assert cells_of(None) is None

    def test_deterministic_across_calls(self):
        for mode in (SAMPLE_PAIRWISE, SAMPLE_RANDOM_K, SAMPLE_DISSIMILARITY):
            assert cells_of(mode, seed=3, k=4) == cells_of(mode, seed=3, k=4)

    def test_seed_changes_the_draw(self):
        draws = {frozenset(cells_of(SAMPLE_RANDOM_K, seed=seed, k=3))
                 for seed in range(8)}
        assert len(draws) > 1

    def test_subset_of_the_exhaustive_walk(self):
        full = {(strategy, layer, param) for strategy in STRATEGIES
                for param in LAYERS for layer in range(LAYERS[param])}
        for mode in (SAMPLE_PAIRWISE, SAMPLE_RANDOM_K, SAMPLE_DISSIMILARITY):
            assert cells_of(mode, k=5) <= full

    def test_pairwise_covers_every_param_layer_exactly_once(self):
        covered = [(param, layer)
                   for (_, layer, param) in cells_of(SAMPLE_PAIRWISE)]
        assert sorted(covered) == sorted(
            (param, layer) for param in LAYERS
            for layer in range(LAYERS[param]))

    def test_pairwise_keeps_each_layer_in_one_strategy(self):
        # Scattering a layer's params across strategies would shatter
        # pools into singleton treatments and cost MORE than exhaustive.
        for seed in range(6):
            by_layer = {}
            for strategy, layer, _ in cells_of(SAMPLE_PAIRWISE, seed=seed):
                by_layer.setdefault(layer, set()).add(strategy)
            assert all(len(used) == 1 for used in by_layer.values())

    def test_budget_defaults_to_pairwise_and_clamps(self):
        pairwise_budget = sum(LAYERS.values())
        assert len(cells_of(SAMPLE_RANDOM_K)) == pairwise_budget
        assert len(cells_of(SAMPLE_RANDOM_K, k=10_000)) == \
            len(STRATEGIES) * pairwise_budget
        assert len(cells_of(SAMPLE_DISSIMILARITY, k=4)) == 4

    def test_dissimilarity_spreads_across_strategies(self):
        chosen = cells_of(SAMPLE_DISSIMILARITY, k=6)
        assert len({strategy for strategy, _, _ in chosen}) >= 2

    def test_empty_structure_is_empty(self):
        assert sample_cells(SAMPLE_PAIRWISE, 0, None, "t", "g",
                            STRATEGIES, {}) == set()

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            cells_of("bogus")


# ---------------------------------------------------------------------------
# profile keys: what invalidates a stored profile
# ---------------------------------------------------------------------------
class TestProfileKey:
    def test_stable_across_identical_campaigns(self):
        profile = prerun_test(exchange_test())
        assert profile_key(campaign([]), profile) == \
            profile_key(campaign([]), profile)

    def test_changes_when_a_tested_param_changes(self):
        profile = prerun_test(exchange_test())
        base = campaign([])
        mutated = campaign([], registry=mutated_registry(**LEVEL_MUTATION))
        assert profile_key(base, profile) != profile_key(mutated, profile)

    def test_ignores_changes_to_untested_params(self):
        profile = prerun_test(lean_safe_test())
        base = campaign([])
        mutated = campaign([], registry=mutated_registry(**LEVEL_MUTATION))
        assert profile_key(base, profile) == profile_key(mutated, profile)

    def test_findings_neutral_settings_do_not_shift_the_key(self):
        profile = prerun_test(exchange_test())
        plain = campaign([])
        flipped = campaign([], store="unused", exec_cache=True,
                           incremental=True)
        assert profile_key(plain, profile) == profile_key(flipped, profile)

    def test_behaviour_shaping_settings_shift_the_key(self):
        profile = prerun_test(exchange_test())
        plain = campaign([])
        assert profile_key(plain, profile) != \
            profile_key(campaign([], blacklist_threshold=4), profile)
        assert profile_key(plain, profile) != \
            profile_key(campaign([], sample=SAMPLE_PAIRWISE), profile)


# ---------------------------------------------------------------------------
# incremental campaigns
# ---------------------------------------------------------------------------
class TestIncrementalCampaign:
    def corpus(self):
        return [exchange_test(), lean_safe_test()]

    def test_incremental_requires_store(self):
        with pytest.raises(ValueError):
            campaign(self.corpus(), incremental=True).run()

    def test_warm_noop_reuses_everything(self, tmp_path):
        cold = campaign(self.corpus(), store=tmp_path / "store").run()
        warm = campaign(self.corpus(), store=tmp_path / "store",
                        incremental=True).run()
        plan = plan_dict(warm)
        assert plan["reused"] == 2 and plan["rerun"] == 0
        assert plan["new"] == 0 and plan["demoted"] == 0
        assert plan["executions_saved"] > 0
        assert warm.executions == len(self.corpus())  # just the pre-runs
        assert warm.executions < cold.executions
        assert findings(warm) == findings(cold)

    def test_registry_mutation_splits_rerun_and_reuse(self, tmp_path):
        campaign(self.corpus(), store=tmp_path / "store").run()
        mutated = mutated_registry(**LEVEL_MUTATION)
        reference = campaign(self.corpus(), registry=mutated).run()
        warm = campaign(self.corpus(), store=tmp_path / "store",
                        registry=mutated, incremental=True).run()
        decisions = decisions_of(warm)
        assert decisions["plansynth::TestPlan.testExchange"] == PLAN_RERUN
        assert decisions["plansynth::TestPlan.testLeanSafe"] == PLAN_REUSE
        assert warm.executions < reference.executions
        assert findings(warm) == findings(reference)

    def test_unseen_test_is_new_and_runs(self, tmp_path):
        campaign([exchange_test()], store=tmp_path / "store").run()
        reference = campaign(self.corpus()).run()
        warm = campaign(self.corpus(), store=tmp_path / "store",
                        incremental=True).run()
        decisions = decisions_of(warm)
        assert decisions["plansynth::TestPlan.testExchange"] == PLAN_REUSE
        assert decisions["plansynth::TestPlan.testLeanSafe"] == PLAN_NEW
        assert warm.executions < reference.executions
        assert findings(warm) == findings(reference)

    def test_blacklist_coupling_demotes_reuse_candidates(self, tmp_path):
        corpus = lambda: [exchange_test(), lean_mode_test()]
        campaign(corpus(), store=tmp_path / "store").run()
        mutated = mutated_registry(**LEVEL_MUTATION)
        reference = campaign(corpus(), registry=mutated).run()
        warm = campaign(corpus(), store=tmp_path / "store",
                        registry=mutated, incremental=True).run()
        plan = plan_dict(warm)
        assert plan["demoted"] == 1
        decisions = decisions_of(warm)
        assert decisions["plansynth::TestPlan.testLeanMode"] == PLAN_RERUN
        reasons = {p["test"]: p["reason"]
                   for p in plan["profiles"]}
        assert "blacklist coupling" in \
            reasons["plansynth::TestPlan.testLeanMode"]
        assert findings(warm) == findings(reference)

    def test_reused_profiles_priced_zero(self, tmp_path):
        campaign(self.corpus(), store=tmp_path / "store").run()
        warm = campaign(self.corpus(), store=tmp_path / "store",
                        incremental=True).run()
        assert warm.cost_centers  # every profile reused: all centers zero
        for center in warm.cost_centers:
            assert center.executions == 0
            assert center.predicted_executions == 0

    def test_plan_metrics_emitted(self, tmp_path):
        campaign(self.corpus(), store=tmp_path / "store").run()
        warm = campaign(self.corpus(), store=tmp_path / "store",
                        incremental=True, observe=True).run()
        metrics = warm.observation.metrics
        assert metrics.total("zc_plan_profiles_total") == len(self.corpus())
        assert metrics.total("zc_plan_executions_saved_total") > 0

    def test_markdown_renders_the_plan(self, tmp_path):
        campaign(self.corpus(), store=tmp_path / "store").run()
        warm = campaign(self.corpus(), store=tmp_path / "store",
                        incremental=True).run()
        rendered = app_report_markdown(warm)
        assert "Campaign plan" in rendered
        assert "REUSE" in rendered
        cold = campaign(self.corpus()).run()
        assert "Campaign plan" not in app_report_markdown(cold)

    def test_plan_invariant_across_backends(self, tmp_path):
        campaign(self.corpus(), store=tmp_path / "store").run()
        mutated = mutated_registry(**LEVEL_MUTATION)
        backends = {
            "serial": {},
            "process": {"workers": 2},
        }
        results = {}
        for name, kw in backends.items():
            dest = tmp_path / ("store-" + name)
            shutil.copytree(tmp_path / "store", dest)
            report = campaign(self.corpus(), store=dest, registry=mutated,
                              incremental=True, **kw).run()
            results[name] = (findings(report),
                             json.dumps(plan_dict(report), sort_keys=True))
        assert results["process"] == results["serial"]


class TestInterruptionAndResume:
    def corpus(self):
        return [exchange_test(), level_view_test(), lean_safe_test()]

    def test_interrupted_campaign_resumes_the_frozen_plan(self, tmp_path):
        campaign(self.corpus(), store=tmp_path / "store").run()
        mutated = mutated_registry(**LEVEL_MUTATION)

        shutil.copytree(tmp_path / "store", tmp_path / "store-ref")
        reference = campaign(self.corpus(), store=tmp_path / "store-ref",
                             registry=mutated, incremental=True).run()
        assert plan_dict(reference)["rerun"] == 2  # both Service profiles

        # Interrupt after the REUSE fold and the first fresh profile have
        # committed: the store now holds a fresh record for that profile,
        # so a *replan* on resume would reclassify it REUSE — only the
        # journaled plan keeps the report identical to `reference`.
        shutil.copytree(tmp_path / "store", tmp_path / "store-int")
        checkpoint = str(tmp_path / "ck.jsonl")
        cancel = threading.Event()
        commits = []

        def hook(snapshot):
            commits.append(snapshot)
            if len(commits) >= 2:
                cancel.set()

        with pytest.raises(CampaignCancelled):
            campaign(self.corpus(), store=tmp_path / "store-int",
                     registry=mutated, incremental=True,
                     checkpoint_path=checkpoint, cancel_event=cancel,
                     progress_hook=hook).run()

        resumed = campaign(self.corpus(), store=tmp_path / "store-int",
                           registry=mutated, incremental=True,
                           checkpoint_path=checkpoint).run()
        assert plan_dict(resumed) == plan_dict(reference)
        assert findings(resumed) == findings(reference)

        # After the resumed run completes, the store is fully warm: a
        # fresh plan (new journal) reuses everything.
        warm = campaign(self.corpus(), store=tmp_path / "store-int",
                        registry=mutated, incremental=True).run()
        assert plan_dict(warm)["reused"] == len(self.corpus())

    def test_resume_refuses_changed_plan_settings(self, tmp_path):
        campaign(self.corpus(), store=tmp_path / "store").run()
        checkpoint = str(tmp_path / "ck.jsonl")
        campaign(self.corpus(), store=tmp_path / "store",
                 incremental=True, checkpoint_path=checkpoint).run()
        with pytest.raises(CheckpointError):
            campaign(self.corpus(), store=tmp_path / "store",
                     incremental=True, sample=SAMPLE_PAIRWISE,
                     checkpoint_path=checkpoint).run()


# ---------------------------------------------------------------------------
# sampled campaigns
# ---------------------------------------------------------------------------
class TestSampledCampaigns:
    def corpus(self):
        return [exchange_test(), level_view_test(), lean_safe_test()]

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError):
            campaign(self.corpus(), sample="bogus").run()

    def test_pairwise_never_costs_more_and_keeps_the_findings(self):
        full = campaign(self.corpus()).run()
        sampled = campaign(self.corpus(), sample=SAMPLE_PAIRWISE).run()
        assert sampled.executions <= full.executions
        assert {v.param for v in sampled.verdicts} == \
            {v.param for v in full.verdicts}

    def test_sampled_campaigns_are_deterministic(self):
        first = campaign(self.corpus(), sample=SAMPLE_RANDOM_K,
                         sample_k=3, sample_seed=5).run()
        second = campaign(self.corpus(), sample=SAMPLE_RANDOM_K,
                          sample_k=3, sample_seed=5).run()
        assert findings(first) == findings(second)

    def test_small_budget_reduces_executions(self):
        full = campaign(self.corpus()).run()
        thinned = campaign(self.corpus(), sample=SAMPLE_RANDOM_K,
                           sample_k=1).run()
        assert thinned.executions < full.executions

    def test_sampling_settings_partition_the_store(self, tmp_path):
        # A profile stored by an exhaustive campaign is never reused by a
        # sampled one: the sampling settings are in the plan digest.
        campaign(self.corpus(), store=tmp_path / "store").run()
        sampled = campaign(self.corpus(), store=tmp_path / "store",
                           sample=SAMPLE_PAIRWISE, incremental=True).run()
        plan = plan_dict(sampled)
        assert plan["reused"] == 0
        assert plan["rerun"] == len(self.corpus())
        # ... but a second identically-sampled campaign reuses fully.
        warm = campaign(self.corpus(), store=tmp_path / "store",
                        sample=SAMPLE_PAIRWISE, incremental=True).run()
        assert plan_dict(warm)["reused"] == len(self.corpus())
        assert findings(warm) == findings(sampled)


# ---------------------------------------------------------------------------
# store profile records
# ---------------------------------------------------------------------------
class TestStoreProfileRecords:
    def test_round_trip_newest_wins_and_gc(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.open(APP, 7)
        assert store.append_profile("k1", "t::a", {"executions": 9},
                                    confirmed=("p.x",))
        assert store.append_profile("k1", "t::a", {"executions": 11},
                                    confirmed=("p.y",))
        assert store.append_profile("k2", "t::b", {"executions": 3})
        store.close()

        fresh = ResultStore(str(tmp_path / "store"))
        fresh.open(APP, 7)
        assert fresh.stats.profiles_loaded == 3
        assert fresh.lookup_profile("k1")["record"]["executions"] == 11
        assert fresh.profile_for_test("t::a")["confirmed"] == ["p.y"]
        assert fresh.confirmed_params() == {"p.y"}
        assert fresh.lookup_profile("missing") is None
        assert fresh.profile_for_test("t::missing") is None
        fresh.close()

        result = ResultStore(str(tmp_path / "store")).gc()
        assert result["profiles"] == 2  # newest k1 + k2; duplicate dropped

        compacted = ResultStore(str(tmp_path / "store"))
        compacted.open(APP, 7)
        assert compacted.stats.profiles_loaded == 2
        assert compacted.lookup_profile("k1")["record"]["executions"] == 11
        compacted.close()


# ---------------------------------------------------------------------------
# CLI / service wiring
# ---------------------------------------------------------------------------
class TestWiring:
    def test_cli_incremental_requires_store(self, capsys):
        assert cli_main(["campaign", "hdfs", "--incremental"]) == 2
        assert "--incremental requires --store" in capsys.readouterr().err

    def test_jobspec_incremental_requires_store(self):
        with pytest.raises(JobSpecError):
            canonical_spec({"app": "flink", "incremental": True,
                            "store": False})

    def test_jobspec_sample_choice_is_nullable(self):
        assert canonical_spec({"app": "flink"})["sample"] is None
        assert canonical_spec({"app": "flink", "sample": None})["sample"] \
            is None
        spec = canonical_spec({"app": "flink", "sample": "pairwise",
                               "sample_k": 4, "sample_seed": 9})
        assert spec["sample"] == "pairwise"
        assert spec["sample_k"] == 4 and spec["sample_seed"] == 9
        with pytest.raises(JobSpecError):
            canonical_spec({"app": "flink", "sample": "bogus"})
