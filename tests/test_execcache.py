"""Unit + equivalence tests for the content-addressed execution cache."""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict, fields

import pytest

from repro.apps import catalog
from repro.common.errors import TestFailure
from repro.common.faults import FaultPlan, fault_seed
from repro.core.execcache import (ORIGINAL, ExecutionCache,
                                  canonical_assignment, execution_seed,
                                  fingerprint, stable_seed)
from repro.core.observe import read_metrics_totals, write_metrics_text
from repro.core.orchestrator import (Campaign, CampaignConfig,
                                     application_campaigns)
from repro.core.registry import TestContext, UnitTest
from repro.core.report import app_report_to_dict
from repro.core.runner import RunOutcome, TestRunner
from repro.core.testgen import (CROSS, HeteroAssignment, HomoAssignment,
                                ParamAssignment, TestInstance)
from synthetic_app import (SYNTH_REGISTRY, SynthConfiguration, Service,
                           safe_only_test, two_service_test)
from test_observe import span_skeleton
from test_orchestrator import synthetic_campaign


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------
class TestStableSeed:
    def test_delimiter_collision_regression(self):
        # "|".join-based seeds made these two part tuples identical.
        assert stable_seed("a|b", "c") != stable_seed("a", "b|c")
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_fault_seed_has_same_protection(self):
        assert fault_seed("a|b", "c") != fault_seed("a", "b|c")

    def test_one_seed_function(self):
        assert stable_seed is fault_seed

    def test_deterministic_across_calls(self):
        assert stable_seed("t", 3) == stable_seed("t", 3)

    def test_execution_seed_derives_from_content(self):
        a = ParamAssignment(param="p", group="Service", group_values=(1,),
                            other_value=2)
        same = ParamAssignment(param="p", group="Service", group_values=(1,),
                               other_value=2)
        assert (execution_seed("t", canonical_assignment(a), 0)
                == execution_seed("t", canonical_assignment(same), 0))
        assert (execution_seed("t", canonical_assignment(a), 0)
                != execution_seed("t", canonical_assignment(a), 1))


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------
class TestCanonicalAssignment:
    def test_none_is_original(self):
        assert canonical_assignment(None) == ORIGINAL

    def test_homo_order_insensitive(self):
        first = HomoAssignment(values=(("a", 1), ("b", 2)))
        second = HomoAssignment(values=(("b", 2), ("a", 1)))
        assert canonical_assignment(first) == canonical_assignment(second)

    def test_hetero_pool_order_insensitive(self):
        one = ParamAssignment(param="a", group="G", group_values=(1,),
                              other_value=2)
        two = ParamAssignment(param="b", group="G", group_values=(3,),
                              other_value=4)
        assert (canonical_assignment(HeteroAssignment((one, two)))
                == canonical_assignment(HeteroAssignment((two, one))))

    def test_homo_default_collapses_to_original(self):
        # synth.level default is 10: injecting 10 everywhere is the
        # original run (when the test never explicitly sets it).
        homo = HomoAssignment(values=(("synth.level", 10),))
        assert canonical_assignment(homo, registry=SYNTH_REGISTRY) == ORIGINAL

    def test_non_default_never_collapses(self):
        homo = HomoAssignment(values=(("synth.level", 1000),))
        assert (canonical_assignment(homo, registry=SYNTH_REGISTRY)
                != ORIGINAL)

    def test_no_registry_no_collapse(self):
        homo = HomoAssignment(values=(("synth.level", 10),))
        assert canonical_assignment(homo) != ORIGINAL

    def test_no_collapse_exemption(self):
        homo = HomoAssignment(values=(("synth.level", 10),))
        assert canonical_assignment(homo, registry=SYNTH_REGISTRY,
                                    no_collapse={"synth.level"}) != ORIGINAL

    def test_collapse_is_type_sensitive(self):
        # True == 1 in Python; a bool default must not swallow an int 1.
        homo = HomoAssignment(values=(("synth.safe-b", 1),))
        assert (canonical_assignment(homo, registry=SYNTH_REGISTRY)
                != ORIGINAL)

    def test_pinned_first_wins_and_sorted(self):
        a = ParamAssignment(param="p", group="G", group_values=(1,),
                            other_value=2, pinned=(("x", 1), ("y", 2)))
        b = ParamAssignment(param="p", group="G", group_values=(1,),
                            other_value=2,
                            pinned=(("y", 2), ("x", 1), ("y", 999)))
        # ("y", 999) is dead (first wins in value_for), so contents match.
        assert a.canonical() == b.canonical()

    def test_distinct_canonicals_distinct_fingerprints(self):
        a = canonical_assignment(HomoAssignment(values=(("a", 1),)))
        b = canonical_assignment(HomoAssignment(values=(("a", 2),)))
        assert fingerprint(a) != fingerprint(b)


# ---------------------------------------------------------------------------
# the cache proper
# ---------------------------------------------------------------------------
class TestExecutionCache:
    def test_deterministic_entry_ignores_seed(self):
        cache = ExecutionCache()
        outcome = RunOutcome(ok=True)
        assert cache.store("t", ORIGINAL, seed=1, outcome=outcome,
                           seed_sensitive=False)
        assert cache.lookup("t", ORIGINAL, seed=999).ok
        assert cache.hits == 1 and cache.deterministic_entries == 1

    def test_seeded_entry_requires_exact_seed(self):
        cache = ExecutionCache()
        cache.store("t", ORIGINAL, seed=1, outcome=RunOutcome(ok=False),
                    seed_sensitive=True)
        assert cache.lookup("t", ORIGINAL, seed=1) is not None
        assert cache.lookup("t", ORIGINAL, seed=2) is None
        assert cache.seeded_entries == 1 and cache.deterministic_entries == 0

    def test_infra_outcomes_never_cached(self):
        cache = ExecutionCache()
        infra = RunOutcome(ok=False, infra=True)
        assert not cache.store("t", ORIGINAL, seed=1, outcome=infra,
                               seed_sensitive=False)
        assert cache.bypasses == 1 and len(cache) == 0
        assert cache.lookup("t", ORIGINAL, seed=1) is None

    def test_lookup_returns_a_copy(self):
        cache = ExecutionCache()
        cache.store("t", ORIGINAL, seed=1, outcome=RunOutcome(ok=True),
                    seed_sensitive=False)
        served = cache.lookup("t", ORIGINAL, seed=1)
        served.ok = False
        assert cache.lookup("t", ORIGINAL, seed=1).ok

    def test_keys_partition_by_test_name(self):
        cache = ExecutionCache()
        cache.store("t1", ORIGINAL, seed=1, outcome=RunOutcome(ok=True),
                    seed_sensitive=False)
        assert cache.lookup("t2", ORIGINAL, seed=1) is None

    def test_context_changes_the_key_space(self):
        clean = ExecutionCache(context={"fault_plan": None})
        chaos = ExecutionCache(context={"fault_plan": "moderate"})
        assert clean.context_key != chaos.context_key


# ---------------------------------------------------------------------------
# runner integration
# ---------------------------------------------------------------------------
class TestRunnerWithCache:
    def make_instance(self, test, param="synth.safe-a", round_robin=False):
        definition = SYNTH_REGISTRY.get(param)
        v1, v2 = definition.candidate_values()[:2]
        group_values = (v1, v2) if round_robin else (v1,)
        assignment = HeteroAssignment((ParamAssignment(
            param=param, group="Service", group_values=group_values,
            other_value=v2),))
        return TestInstance(
            test=test, group="Service",
            strategy="round-robin" if round_robin else CROSS,
            assignment=assignment)

    def test_shared_baselines_hit_the_cache(self):
        test = two_service_test()
        cold = TestRunner(registry=SYNTH_REGISTRY)
        hot = TestRunner(registry=SYNTH_REGISTRY, cache=ExecutionCache())
        for param in ("synth.safe-a", "synth.safe-c"):
            cold.evaluate(self.make_instance(test, param))
            hot.evaluate(self.make_instance(test, param))
        # The homo side injecting each default collapses onto the one
        # original run, so the cached runner executes strictly less.
        assert hot.executions < cold.executions
        assert hot.cache_hits > 0

    def test_cached_and_uncached_verdicts_identical(self):
        test = two_service_test()
        cold = TestRunner(registry=SYNTH_REGISTRY)
        hot = TestRunner(registry=SYNTH_REGISTRY, cache=ExecutionCache())
        for param in ("synth.mode", "synth.level", "synth.safe-a"):
            instance = self.make_instance(test, param)
            assert (cold.evaluate(instance).verdict
                    == hot.evaluate(instance).verdict)

    def test_confirmation_loop_hits_cache_for_deterministic_tests(self):
        test = two_service_test()
        runner = TestRunner(registry=SYNTH_REGISTRY, cache=ExecutionCache())
        result = runner.evaluate(self.make_instance(test, "synth.mode",
                                                    round_robin=True))
        assert result.verdict == "confirmed-unsafe"
        # Every confirmation trial of this rng-free test is a replay.
        assert runner.cache_hits >= runner.cache_misses

    def test_explicit_set_shadowing_guard(self):
        """homo(p=default) != original when the test explicitly sets p:
        the injected default shadows the set, so the collapse must be
        suppressed via collapse_exclude or it would fake a pass."""
        def body(ctx):
            conf = SynthConfiguration()
            Service(conf)
            conf.set("synth.safe-a", 42)
            if conf.get_int("synth.safe-a") != 42:
                raise TestFailure("explicit set was shadowed")

        test = UnitTest(app="synth", name="TestSynth.testSetter", fn=body)
        runner = TestRunner(registry=SYNTH_REGISTRY, cache=ExecutionCache(),
                            collapse_exclude={"synth.safe-a"})
        homo = HomoAssignment(values=(("synth.safe-a", 1),))  # the default
        assert runner.canonical_form(homo) != ORIGINAL
        original = runner.execute(test, None,
                                  execution_seed(test.full_name, ORIGINAL, 0),
                                  canonical=ORIGINAL)
        injected = runner.execute(
            test, homo, execution_seed(test.full_name,
                                       runner.canonical_form(homo), 0),
            canonical=runner.canonical_form(homo))
        assert original.ok
        assert injected.failed  # proof the two runs are NOT interchangeable

    def test_prerun_records_explicit_sets(self):
        from repro.core.prerun import prerun_test

        def body(ctx):
            conf = SynthConfiguration()
            Service(conf)
            conf.set("synth.safe-a", 42)

        profile = prerun_test(UnitTest(app="synth",
                                       name="TestSynth.testSetter", fn=body))
        assert "synth.safe-a" in profile.explicit_sets

    def test_rng_consulting_tests_get_seeded_entries(self):
        test = two_service_test(name="TestSynth.testFlaky", flaky_rate=0.3)
        cache = ExecutionCache()
        runner = TestRunner(registry=SYNTH_REGISTRY, cache=cache)
        runner.evaluate(self.make_instance(test, "synth.safe-a"))
        assert cache.seeded_entries > 0

    def test_charged_hits_count_like_fresh_executions(self):
        test = two_service_test()
        instance = self.make_instance(test, "synth.mode", round_robin=True)
        plain = TestRunner(registry=SYNTH_REGISTRY)
        paper = TestRunner(registry=SYNTH_REGISTRY,
                           cache=ExecutionCache(charge_hits=True))
        assert (plain.evaluate(instance).executions
                == paper.evaluate(instance).executions)
        assert paper.executions == plain.executions == plain.simulations
        assert paper.simulations < paper.executions
        assert paper.machine_time_s == plain.machine_time_s
        # the free-hit counters belong to --exec-cache alone
        assert (paper.cache_hits, paper.cache_misses,
                paper.cache_bypasses) == (0, 0, 0)

    def test_the_seed_reaches_a_test_only_through_its_rng(self):
        # A second seed channel would bypass the rng-use tracking that
        # keeps seed-dependent outcomes out of the seed-free tier.
        assert [f.name for f in fields(TestContext)] == ["rng"]


# ---------------------------------------------------------------------------
# campaign-level equivalence (the hard invariant)
# ---------------------------------------------------------------------------
def normalized_report(report):
    record = app_report_to_dict(report)
    record.pop("executions")
    record.pop("machine_time_s")
    record.pop("exec_cache")
    record.pop("cost_centers")
    return json.dumps(record, sort_keys=True)


class TestCampaignEquivalence:
    @pytest.fixture(scope="class")
    def pair(self):
        plain = synthetic_campaign().run()
        cached = synthetic_campaign(
            config=CampaignConfig(exec_cache=True)).run()
        return plain, cached

    def test_reports_byte_identical_modulo_execution_counters(self, pair):
        plain, cached = pair
        assert normalized_report(plain) == normalized_report(cached)

    def test_strictly_fewer_executions(self, pair):
        plain, cached = pair
        assert cached.executions < plain.executions
        assert cached.pool_stats.exec_cache_hits > 0

    def test_report_carries_cache_counters(self, pair):
        _, cached = pair
        record = app_report_to_dict(cached)
        assert record["exec_cache"]["enabled"] is True
        assert record["exec_cache"]["hits"] \
            == cached.pool_stats.exec_cache_hits > 0
        assert (record["exec_cache"]["hits"] + record["exec_cache"]["misses"]
                > 0)


class TestChaosCacheKeying:
    def test_active_fault_plan_disables_deterministic_entries(self,
                                                              monkeypatch):
        """Under chaos every execution is seed-sensitive: outcomes may be
        served only for their exact seed, never across trials."""
        caches = []

        def spy(self, build=Campaign._build_cache):
            cache = build(self)
            caches.append(cache)
            return cache

        monkeypatch.setattr(Campaign, "_build_cache", spy)
        plan = FaultPlan.moderate(seed=7)
        tests = [two_service_test(), safe_only_test()]
        campaign = synthetic_campaign(
            tests=tests,
            config=CampaignConfig(exec_cache=True, fault_plan=plan))
        report = campaign.run()
        # one cache per profile run
        assert len(caches) == len(tests)
        assert all(cache is not None for cache in caches)
        assert sum(len(cache) for cache in caches) > 0
        assert sum(cache.deterministic_entries for cache in caches) == 0
        assert sum(cache.seeded_entries for cache in caches) > 0
        # Counters surfaced in the report match the caches' own ledgers.
        assert report.pool_stats.exec_cache_hits \
            == sum(cache.hits for cache in caches)

    def test_chaos_verdicts_identical_with_and_without_cache(self):
        plan = FaultPlan.moderate(seed=7)
        tests = [two_service_test(), safe_only_test()]
        plain = synthetic_campaign(
            tests=tests, config=CampaignConfig(fault_plan=plan)).run()
        cached = synthetic_campaign(
            tests=tests, config=CampaignConfig(fault_plan=plan,
                                               exec_cache=True)).run()
        assert normalized_report(plain) == normalized_report(cached)

    def test_clean_and_chaos_caches_never_share_context(self):
        clean = synthetic_campaign(config=CampaignConfig(exec_cache=True))
        chaos = synthetic_campaign(
            config=CampaignConfig(exec_cache=True,
                                  fault_plan=FaultPlan.moderate(seed=7)))
        assert (clean._build_cache().context_key
                != chaos._build_cache().context_key)


class TestCheckpointRefusesMismatchedCacheMode:
    def test_resume_with_flipped_cache_mode_is_refused(self, tmp_path):
        from repro.core.checkpoint import CheckpointError
        path = str(tmp_path / "journal.jsonl")
        synthetic_campaign(
            tests=[safe_only_test()],
            config=CampaignConfig(checkpoint_path=path,
                                  exec_cache=True)).run()
        with pytest.raises(CheckpointError):
            synthetic_campaign(
                tests=[safe_only_test()],
                config=CampaignConfig(checkpoint_path=path,
                                      exec_cache=False)).run()


# ---------------------------------------------------------------------------
# paper accounting: the default path simulates each repeat once and still
# charges it (repro.core.execcache module docstring)
# ---------------------------------------------------------------------------
class TestPaperAccounting:
    def test_default_campaign_builds_a_charging_cache(self):
        cache = synthetic_campaign()._build_cache()
        assert cache is not None and cache.charge_hits
        free = synthetic_campaign(
            config=CampaignConfig(exec_cache=True))._build_cache()
        assert free is not None and not free.charge_hits

    def test_no_cache_under_chaos_in_paper_accounting(self):
        plan = FaultPlan.moderate(seed=7)
        assert synthetic_campaign(
            config=CampaignConfig(fault_plan=plan))._build_cache() is None
        assert synthetic_campaign(
            config=CampaignConfig(fault_plan=plan,
                                  exec_cache=True))._build_cache() is not None


def _resimulating(original, answers, mismatches):
    """A TestRunner._execute that re-runs every cache answer through a
    throwaway runner's _execute_once (so nothing is counted or charged)
    and records any RunOutcome field that differs."""
    def execute(self, test, assignment, seed, canonical=None):
        before = self.simulations
        outcome = original(self, test, assignment, seed, canonical)
        if self.simulations == before:
            shadow = TestRunner(run_cost_s=self.run_cost_s,
                                fault_plan=self.fault_plan,
                                infra_retries=self.infra_retries,
                                watchdog_sim_s=self.watchdog_sim_s)
            fresh = shadow._execute_once(test, assignment, seed, attempt=0)
            answers[test.app] = answers.get(test.app, 0) + 1
            if asdict(fresh) != asdict(outcome):
                mismatches.append((test.full_name, seed, asdict(fresh),
                                   asdict(outcome)))
        return outcome
    return execute


class TestCacheAnswersMatchResimulation:
    def test_every_answer_in_every_catalog_app(self, monkeypatch):
        answers, mismatches = {}, []
        monkeypatch.setattr(TestRunner, "_execute", _resimulating(
            TestRunner._execute, answers, mismatches))
        campaigns = application_campaigns()
        for campaign in campaigns:
            campaign.run()
        assert mismatches == []
        assert sorted(answers) == sorted(c.app for c in campaigns)
        assert all(count > 0 for count in answers.values())


def _reference_run(monkeypatch, make_campaign, **config_kwargs):
    """The campaign on a path that simulates every execution (no cache),
    kept only here as the reference for the default path."""
    with monkeypatch.context() as patch:
        patch.setattr(Campaign, "_build_cache", lambda self: None)
        return make_campaign(**config_kwargs).run()


def _catalog_campaign(app, **config_kwargs):
    spec = catalog.spec_for(app)
    return Campaign(app, spec.registry,
                    dependency_rules=spec.dependency_rules,
                    config=CampaignConfig(**config_kwargs))


def _synthetic(**config_kwargs):
    return synthetic_campaign(config=CampaignConfig(**config_kwargs))


# hadooptools' profiles never skip a parameter another profile
# blacklisted, and the synthetic corpus blacklists nothing, so both are
# deterministic at workers=2 under the default blacklist threshold.
EQUIVALENCE_CASES = [
    ("synthetic", 1), ("synthetic", 2), ("hadooptools", 1),
    ("hadooptools", 2)]


class TestDefaultPathEqualsReference:
    @pytest.mark.parametrize("corpus,workers", EQUIVALENCE_CASES)
    def test_report_metrics_and_spans_identical(self, monkeypatch, corpus,
                                                workers):
        if workers > 1 and not hasattr(os, "fork"):
            pytest.skip("the supervised pool needs fork")
        make = (_synthetic if corpus == "synthetic"
                else functools.partial(_catalog_campaign, corpus))
        reference = _reference_run(monkeypatch, make, observe=True,
                                   workers=workers)
        default = make(observe=True, workers=workers).run()
        assert (json.dumps(app_report_to_dict(default), sort_keys=True)
                == json.dumps(app_report_to_dict(reference), sort_keys=True))
        assert (default.observation.metrics.render_prometheus()
                == reference.observation.metrics.render_prometheus())
        assert (span_skeleton(default.observation)
                == span_skeleton(reference.observation))
        simulated = default.observation.metrics.total(
            "zc_runtime_simulations_total")
        assert 0 < simulated < reference.observation.metrics.total(
            "zc_runtime_simulations_total")

    def test_cache_was_not_switched_off(self, monkeypatch):
        """Findings alone cannot show a cache that was quietly dropped:
        count the simulator's runs directly."""
        calls = []
        original = TestRunner._execute_once

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(TestRunner, "_execute_once", counting)
            report = synthetic_campaign().run()
        free = synthetic_campaign(
            config=CampaignConfig(exec_cache=True)).run()
        assert len(calls) == free.pool_stats.exec_cache_misses
        assert len(calls) < report.executions


class TestSimulationsMetric:
    def _exported(self, tmp_path, workers):
        report = _synthetic(observe=True, workers=workers).run()
        path = str(tmp_path / ("metrics-%d.prom" % workers))
        write_metrics_text([("synth", report.observation)], path)
        return read_metrics_totals(path)

    def test_same_count_serially_and_across_a_fork(self, tmp_path):
        serial = self._exported(tmp_path, 1)
        simulated = serial["zc_runtime_simulations_total"]
        assert 0 < simulated < serial["zc_executions_total"]
        if hasattr(os, "fork"):
            forked = self._exported(tmp_path, 2)
            assert forked["zc_runtime_simulations_total"] == simulated
