"""Supervised worker pool: crash containment, reaping, quarantine.

Every poison body here is conditioned on *heterogeneous* configuration,
because pre-run baselines execute in the parent process — only the
supervised workers may be sacrificed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading

import pytest

from repro.common.faults import FaultPlan
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.orchestrator import Campaign, CampaignCancelled, CampaignConfig
from repro.core.report import app_report_to_dict, findings_projection
from repro.core.reportmd import app_report_markdown
from repro.core.tracelog import TraceLog
from synthetic_app import (SYNTH_REGISTRY, SynthConfiguration, Service,
                           client_vs_service_test, hanging_test,
                           hard_crash_test, safe_only_test, spinning_test,
                           two_service_test)
from repro.core.registry import UnitTest

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="supervision needs fork")


def campaign(tests, **config_kwargs):
    config_kwargs.setdefault("workers", 2)
    config_kwargs.setdefault("blacklist_threshold", 999)  # decouple profiles
    return Campaign("synth", SYNTH_REGISTRY, tests=tests,
                    config=CampaignConfig(**config_kwargs))


def verdicts_view(report):
    return json.dumps(
        sorted((v.param, v.verdict, v.category, v.fp_reason)
               for v in report.verdicts))


def sigkill_self_test(name="TestSynth.testSigkillSelf"):
    """Simulates an external `kill -9` landing on the worker."""
    def body(ctx):
        conf = SynthConfiguration()
        first, second = Service(conf), Service(conf)
        if first.mode != second.mode or first.level != second.level:
            os.kill(os.getpid(), signal.SIGKILL)

    return UnitTest(app="synth", name=name, fn=body)


def sigstop_self_test(name="TestSynth.testFreeze"):
    """Freezes the whole worker process: even the heartbeat thread stops,
    which is exactly what distinguishes frozen from merely busy."""
    def body(ctx):
        conf = SynthConfiguration()
        first, second = Service(conf), Service(conf)
        if first.mode != second.mode or first.level != second.level:
            os.kill(os.getpid(), signal.SIGSTOP)

    return UnitTest(app="synth", name=name, fn=body)


# ---------------------------------------------------------------------------
# crash containment + quarantine
# ---------------------------------------------------------------------------
class TestCrashContainment:
    def test_hard_crash_is_quarantined_not_fatal(self):
        poison = hard_crash_test()
        report = campaign([poison, two_service_test(), safe_only_test()],
                          worker_redelivery=1).run()
        assert poison.full_name in report.quarantined_tests
        assert poison.full_name in report.degraded_tests
        error = report.degraded_errors[poison.full_name]
        assert "exit status 1" in error and "quarantined" in error
        # healthy profiles were unaffected
        found = {v.param for v in report.verdicts if v.is_true_problem}
        assert found == {"synth.mode", "synth.level"}
        stats = report.supervision
        assert stats.enabled
        assert stats.crashes >= 2  # first delivery + one redelivery
        assert stats.redeliveries == 1
        assert stats.respawns >= 1
        assert stats.quarantined == 1
        assert not stats.circuit_breaker_tripped

    def test_sigkilled_worker_reports_the_signal(self):
        poison = sigkill_self_test()
        report = campaign([poison, safe_only_test()],
                          worker_redelivery=0).run()
        assert poison.full_name in report.quarantined_tests
        assert "SIGKILL" in report.degraded_errors[poison.full_name]

    def test_unpoisoned_verdicts_identical_to_unsupervised_run(self):
        healthy = lambda: [two_service_test(), client_vs_service_test(),  # noqa: E731
                           safe_only_test()]
        supervised = campaign([hard_crash_test()] + healthy(),
                              worker_redelivery=0).run()
        sequential = campaign(healthy(), workers=1).run()
        assert verdicts_view(supervised) == verdicts_view(sequential)

    def test_markdown_renders_supervision_and_quarantine(self):
        poison = hard_crash_test()
        report = campaign([poison, safe_only_test()],
                          worker_redelivery=0).run()
        markdown = app_report_markdown(report)
        assert "## Worker supervision" in markdown
        assert "## Infrastructure failures" in markdown
        assert "worker crash (profile quarantined)" in markdown
        assert poison.full_name in markdown

    def test_injected_worker_crash_recovers_by_redelivery(self):
        plan = FaultPlan(seed=7, worker_crash_prob=0.5)
        report = campaign([two_service_test(), client_vs_service_test(),
                           safe_only_test()],
                          fault_plan=plan, worker_redelivery=6,
                          crash_loop_threshold=999).run()
        stats = report.supervision
        assert stats.crashes > 0 and stats.redeliveries > 0
        assert stats.quarantined == 0
        assert not report.degraded_tests
        found = {v.param for v in report.verdicts if v.is_true_problem}
        assert found == {"synth.mode", "synth.level"}

    def test_circuit_breaker_halts_with_salvaged_report(self):
        poisons = [hard_crash_test(name="TestSynth.testCrash%d" % i)
                   for i in range(3)]
        report = campaign(poisons, worker_redelivery=0,
                          crash_loop_threshold=2).run()
        stats = report.supervision
        assert stats.circuit_breaker_tripped
        assert set(report.quarantined_tests) == {p.full_name for p in poisons}
        assert any("circuit breaker" in report.degraded_errors[name]
                   for name in report.quarantined_tests)
        assert not report.verdicts  # nothing completed, nothing reported


# ---------------------------------------------------------------------------
# incremental journaling + resume
# ---------------------------------------------------------------------------
class TestIncrementalJournaling:
    def test_quarantined_profile_is_journaled_and_not_retried(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        tests = lambda: [hard_crash_test(), safe_only_test()]  # noqa: E731
        first = campaign(tests(), checkpoint_path=path,
                         worker_redelivery=0).run()
        assert first.supervision.quarantined == 1
        resumed = campaign(tests(), checkpoint_path=path,
                           worker_redelivery=0).run()
        # fully restored: the supervisor never even started
        assert not resumed.supervision.enabled
        assert resumed.quarantined_tests == first.quarantined_tests
        record = app_report_to_dict(resumed)
        record_first = app_report_to_dict(first)
        record.pop("supervision"), record_first.pop("supervision")
        assert record == record_first


# ---------------------------------------------------------------------------
# cancellation + trace events across the pipe
# ---------------------------------------------------------------------------
def healthy_tests():
    return [two_service_test(), client_vs_service_test(), safe_only_test(),
            two_service_test(name="TestSynth.testExchangeAgain")]


class TestCancellation:
    def test_cancel_event_stops_the_pool_and_resume_finishes(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        cancel = threading.Event()
        commits = []

        def hook(snapshot):
            commits.append(snapshot["done"])
            cancel.set()

        cancelled = campaign(healthy_tests(), checkpoint_path=path,
                             cancel_event=cancel, progress_hook=hook)
        with pytest.raises(CampaignCancelled):
            cancelled.run()
        assert cancelled.supervision.enabled  # the pool saw the cancel
        assert multiprocessing.active_children() == []
        # committed before the cancel: journaled; in flight or queued: not
        assert CampaignCheckpoint(path).load() == len(commits)
        assert 1 <= len(commits) < len(healthy_tests())

        resumed = campaign(healthy_tests(), checkpoint_path=path).run()
        uncancelled = campaign(healthy_tests()).run()
        assert (findings_projection(app_report_to_dict(resumed))
                == findings_projection(app_report_to_dict(uncancelled)))


class TestTraceEvents:
    def test_runner_events_cross_the_pipe_in_catalog_order(self):
        plan = FaultPlan(seed=5, infra_error_prob=0.3)

        def runner_events(workers):
            trace = TraceLog()
            report = campaign(healthy_tests(), workers=workers,
                              fault_plan=plan, trace=trace).run()
            # exec-cache hits are left out: each worker owns a private
            # cache (and the cache is off here anyway)
            return report, [(e.kind, e.sim_at, e.data) for e in trace
                            if e.kind in ("retry", "fault")]

        serial_report, serial = runner_events(1)
        pooled_report, pooled = runner_events(2)
        assert pooled_report.supervision.enabled
        assert {kind for kind, _, _ in serial} == {"retry", "fault"}
        assert pooled == serial


# ---------------------------------------------------------------------------
# degraded (in-process) error rendering
# ---------------------------------------------------------------------------
class TestDegradedTraceback:
    def test_full_traceback_reaches_the_markdown_report(self, monkeypatch):
        from repro.core.pooling import PooledTester
        broken = two_service_test(name="TestSynth.testExplodes")
        original_run = PooledTester.run

        def exploding_run(self, test, group, strategy, units):
            if test.full_name == broken.full_name:
                raise RuntimeError("harness bug for the report")
            return original_run(self, test, group, strategy, units)

        monkeypatch.setattr(PooledTester, "run", exploding_run)
        report = campaign([broken, safe_only_test()], workers=1).run()
        assert broken.full_name in report.degraded_tests
        assert broken.full_name not in report.quarantined_tests
        error = report.degraded_errors[broken.full_name]
        assert "RuntimeError: harness bug for the report" in error
        assert "Traceback" in error
        markdown = app_report_markdown(report)
        assert "harness error (profile degraded)" in markdown
        assert "RuntimeError: harness bug for the report" in markdown

    def test_worker_traceback_crosses_the_pipe(self, monkeypatch):
        from repro.core.pooling import PooledTester
        broken = two_service_test(name="TestSynth.testExplodesInWorker")
        original_run = PooledTester.run

        def exploding_run(self, test, group, strategy, units):
            if test.full_name == broken.full_name:
                raise RuntimeError("harness bug in the worker")
            return original_run(self, test, group, strategy, units)

        monkeypatch.setattr(PooledTester, "run", exploding_run)
        report = campaign([broken, safe_only_test()]).run()
        assert broken.full_name in report.degraded_tests
        assert broken.full_name not in report.quarantined_tests  # contained
        assert ("RuntimeError: harness bug in the worker"
                in report.degraded_errors[broken.full_name])


# ---------------------------------------------------------------------------
# hung workers: deadlines, frozen processes, rlimits (slow -> chaos)
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestHungWorkers:
    def test_deadline_kills_realtime_hang(self):
        hung = hanging_test()
        report = campaign([hung, two_service_test()],
                          profile_deadline_s=1.0).run()
        assert hung.full_name in report.quarantined_tests
        assert "deadline" in report.degraded_errors[hung.full_name]
        assert report.supervision.deadline_kills == 1
        # redelivering a deterministic hang would just hang again
        assert report.supervision.redeliveries == 0
        found = {v.param for v in report.verdicts if v.is_true_problem}
        assert found == {"synth.mode", "synth.level"}

    def test_frozen_worker_is_killed_on_heartbeat_silence(self):
        frozen = sigstop_self_test()
        report = campaign([frozen, safe_only_test()],
                          heartbeat_timeout_s=1.0, worker_redelivery=0).run()
        assert frozen.full_name in report.quarantined_tests
        assert "heartbeat" in report.degraded_errors[frozen.full_name]
        assert report.supervision.heartbeat_kills >= 1

    def test_rlimit_cpu_kills_spinning_worker(self):
        spin = spinning_test()
        report = campaign([spin, safe_only_test()],
                          worker_rlimit_cpu_s=1, worker_redelivery=0).run()
        assert spin.full_name in report.quarantined_tests
        assert "SIGXCPU" in report.degraded_errors[spin.full_name]
        # completed profiles trigger a recycle so every profile gets a
        # fresh CPU budget
        assert report.supervision.recycles >= 1
