"""Tests for running profiles on the supervised pool: the wire format
(repro.core.parallel) and equivalence with the serial loop."""

from __future__ import annotations

import json

from repro.core import parallel
from repro.core.orchestrator import (HARNESS_ERROR, CampaignConfig,
                                     ProfileOutcome)
from repro.core.pooling import PoolStats
from repro.core.report import app_report_to_dict
from repro.core.runner import CONFIRMED_UNSAFE, WORKER_CRASH, TestRunner
from repro.core.testgen import (ROUND_ROBIN, HeteroAssignment,
                                ParamAssignment, TestInstance)
from synthetic_app import SYNTH_REGISTRY, safe_only_test, two_service_test
from test_orchestrator import synthetic_campaign


def full_dict(report):
    record = app_report_to_dict(report)
    # Supervision counters are run-scoped operations (workers spawned,
    # respawns...), not findings: serial and pooled runs differ there.
    record.pop("supervision")
    return json.dumps(record, sort_keys=True)


def decoupled_config(**kw):
    """Profiles fully independent (no cross-profile blacklist coupling),
    so serial and pooled runs in any scheduling order agree byte for
    byte."""
    return CampaignConfig(blacklist_threshold=999, **kw)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------
class TestProfileOutcomeRoundTrip:
    def test_round_trip_preserves_everything(self):
        test = two_service_test()
        runner = TestRunner(registry=SYNTH_REGISTRY)
        definition = SYNTH_REGISTRY.get("synth.mode")
        v1, v2 = definition.candidate_values()[:2]
        instance = TestInstance(
            test=test, group="Service", strategy=ROUND_ROBIN,
            assignment=HeteroAssignment((ParamAssignment(
                param="synth.mode", group="Service", group_values=(v1, v2),
                other_value=v2),)))
        result = runner.evaluate(instance)
        outcome = ProfileOutcome(
            results=[result],
            stats=PoolStats(pool_runs=3, pool_voids=1, exec_cache_hits=5),
            executions=runner.executions,
            fault_counts={"drop": 2}, retries=1, error="")
        record = json.loads(json.dumps(
            parallel.profile_outcome_to_dict(outcome)))
        restored = parallel.profile_outcome_from_dict(
            record, {test.full_name: test})
        assert restored.stats == outcome.stats
        assert restored.executions == outcome.executions
        assert restored.fault_counts == {"drop": 2}
        assert restored.retries == 1
        assert len(restored.results) == 1
        assert restored.results[0].verdict == result.verdict
        assert restored.results[0].instance.test is test  # live corpus entry


STORE_KEYS = ["executions", "fault_counts", "pool_stats", "results",
              "retries"]


def confirming_outcome(**fields):
    """An outcome whose one result confirmed ``synth.mode`` unsafe."""
    test = two_service_test()
    instance = TestInstance(
        test=test, group="Service", strategy=ROUND_ROBIN,
        assignment=HeteroAssignment((ParamAssignment(
            param="synth.mode", group="Service", group_values=(True, False),
            other_value=False),)))
    result = TestRunner(registry=SYNTH_REGISTRY).evaluate(instance)
    assert result.verdict == CONFIRMED_UNSAFE
    outcome = ProfileOutcome(results=[result], stats=PoolStats(pool_runs=2),
                             executions=result.executions, **fields)
    return outcome, {test.full_name: test}


def through_json(record, tests_by_name):
    return parallel.profile_outcome_from_dict(
        json.loads(json.dumps(record)), tests_by_name)


class TestOneRecord:
    """profile_outcome_to_dict is the journal line, the store record
    and (with the observation added) the worker message."""

    def test_clean_record_has_exactly_the_store_keys(self):
        outcome, tests = confirming_outcome(fault_counts={"drop": 1},
                                            retries=1)
        record = parallel.profile_outcome_to_dict(outcome)
        assert sorted(record) == STORE_KEYS
        restored = through_json(record, tests)
        assert restored == outcome
        assert restored.status == "completed"
        assert restored.confirmed == ["synth.mode"]

    def test_degraded_outcome_survives(self):
        outcome, tests = confirming_outcome(error="Traceback: boom",
                                            error_kind=HARNESS_ERROR)
        record = parallel.profile_outcome_to_dict(outcome)
        assert sorted(record) == sorted(STORE_KEYS + ["error", "error_kind"])
        restored = through_json(record, tests)
        assert restored == outcome
        assert restored.status == "degraded"

    def test_quarantined_outcome_survives(self):
        outcome = ProfileOutcome(error="worker died (SIGKILL)",
                                 error_kind=WORKER_CRASH)
        restored = through_json(parallel.profile_outcome_to_dict(outcome), {})
        assert restored == outcome
        assert restored.status == "quarantined"
        assert restored.confirmed == []

    def test_observed_outcome_survives_the_wire(self):
        outcome, tests = confirming_outcome()
        outcome.observation = {"spans": [{"name": "p", "parent_id": None}],
                               "metrics": {"zc_executions_total": 3}}
        record = parallel.profile_outcome_to_dict(outcome)
        assert "observation" not in record  # never journaled or stored
        message = dict(record, observation=outcome.observation)
        restored = through_json(message, tests)
        assert restored == outcome
        assert restored.observation == outcome.observation


# ---------------------------------------------------------------------------
# pooled == serial
# ---------------------------------------------------------------------------
class TestProcessBackend:
    def test_process_backend_matches_sequential_byte_for_byte(self):
        sequential = synthetic_campaign(config=decoupled_config()).run()
        process = synthetic_campaign(config=decoupled_config(workers=2)).run()
        assert full_dict(sequential) == full_dict(process)

    def test_process_backend_with_exec_cache(self):
        sequential = synthetic_campaign(
            config=decoupled_config(exec_cache=True)).run()
        process = synthetic_campaign(config=decoupled_config(
            workers=2, exec_cache=True)).run()
        normalize = lambda r: {  # noqa: E731
            k: v for k, v in app_report_to_dict(r).items()
            if k not in ("exec_cache", "supervision")}
        # Cache hit counts can differ (each worker owns a private forked
        # cache) but verdicts, stats, and executions-shape must not.
        assert (json.dumps(normalize(sequential), sort_keys=True)
                == json.dumps(normalize(process), sort_keys=True))

    def test_process_backend_replays_blacklist_into_parent(self):
        report = synthetic_campaign(config=CampaignConfig(
            workers=2, blacklist_threshold=1)).run()
        assert set(report.blacklisted) >= {"synth.mode", "synth.level"}

    def test_process_backend_journals_checkpoint_in_parent(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        first = synthetic_campaign(config=decoupled_config(
            workers=2, checkpoint_path=path)).run()
        # Resume: every profile is restored from the parent-written
        # journal, reproducing the first report (restored outcomes keep
        # their journaled execution counts).
        resumed = synthetic_campaign(config=decoupled_config(
            workers=2, checkpoint_path=path)).run()
        assert full_dict(resumed) == full_dict(first)

    def test_fork_unavailable_runs_serially(self, monkeypatch):
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        report = synthetic_campaign(config=decoupled_config(workers=2)).run()
        assert not report.supervision.enabled
        sequential = synthetic_campaign(config=decoupled_config()).run()
        assert (app_report_to_dict(report)
                == app_report_to_dict(sequential))

    def test_usable_cpus_honours_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        assert parallel.usable_cpus() == 1  # e.g. under taskset -c 0
        monkeypatch.delattr(parallel.os, "sched_getaffinity")
        assert parallel.usable_cpus() == 8  # platforms without affinity

    def test_degraded_profile_survives_the_pipe(self, monkeypatch):
        """A profile that crashes inside a worker comes back as a degraded
        outcome (with its partial accounting), not as a dead pool.  The
        fork inherits the monkeypatched harness, so the crash happens in
        the child."""
        from repro.core.pooling import PooledTester
        broken = two_service_test(name="TestSynth.testExplodes")
        original_run = PooledTester.run

        def exploding_run(self, test, group, strategy, units):
            if test.full_name == broken.full_name:
                raise RuntimeError("harness bug in the worker")
            return original_run(self, test, group, strategy, units)

        monkeypatch.setattr(PooledTester, "run", exploding_run)
        report = synthetic_campaign(
            tests=[broken, safe_only_test()],
            config=decoupled_config(workers=2)).run()
        assert broken.full_name in report.degraded_tests
