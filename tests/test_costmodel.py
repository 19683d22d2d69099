"""Scheduling: every front leases in catalog order, and where or how
many at a time profiles run never changes findings.

The in-process front, the supervised pool and the distributed
coordinator all grant a campaign's profiles in catalog order, and
outcomes are folded back in catalog order, so the AppReport, every
verdict, and the deterministic metrics snapshot must be byte-identical
between an in-process run and a ``workers=2`` run — under chaos and
across a checkpoint resume too.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.common.configuration import ref_to_clone
from repro.common.errors import TestFailure
from repro.common.faults import FaultPlan
from repro.core import distrib, parallel
from repro.core.confagent import current_agent
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.registry import UnitTest
from repro.core.report import app_report_to_dict
from repro.core.reportmd import app_report_markdown
from synthetic_app import (SYNTH_REGISTRY, SynthConfiguration,
                           client_vs_service_test, safe_only_test,
                           two_service_test)


def campaign(**config_kwargs):
    config_kwargs.setdefault("blacklist_threshold", 999)  # decouple profiles
    tests = [two_service_test(), client_vs_service_test(), safe_only_test()]
    return Campaign("synth", SYNTH_REGISTRY, tests=tests,
                    config=CampaignConfig(**config_kwargs))


def pooled_dict(report):
    """The report minus its run-scoped supervision counters, which differ
    between serial and pooled runs (and between pool sizes)."""
    record = app_report_to_dict(report)
    record.pop("supervision")
    return record


class LeanService:
    """A ``Service`` that reads only synth.safe-a: its profile tests one
    parameter where the other synthetic tests' profiles test five."""

    node_type = "Service"

    def __init__(self, conf):
        agent = current_agent()
        agent.start_init(self, self.node_type)
        try:
            self.conf = ref_to_clone(conf)
            self.safe_a = self.conf.get_int("synth.safe-a")
        finally:
            agent.stop_init()


def lean_test(name="TestSynth.testLean"):
    def body(ctx):
        if LeanService(SynthConfiguration()).safe_a < 0:
            raise TestFailure("impossible")

    return UnitTest(app="synth", name=name, fn=body)


def lean_first(config):
    """A synthetic campaign whose first profile tests one parameter where
    the rest test five, so an order by weight would lease it last."""
    return Campaign("synth", SYNTH_REGISTRY,
                    tests=[lean_test(), two_service_test(),
                           client_vs_service_test(), safe_only_test()],
                    config=config)


class TestDispatchTakesTheOrder:
    """Every front dispatches a campaign's profiles in one order, its
    catalog order: the in-process front, the supervised pool and the
    coordinator each lease ``lean_first``'s profiles first to last."""

    def spy_grants(self, monkeypatch):
        leased = []
        grant = parallel.LeaseBook.grant

        def spy(book, holder):
            task = grant(book, holder)
            if task is not None:
                leased.append(task["task"])
            return task

        monkeypatch.setattr(parallel.LeaseBook, "grant", spy)
        return leased

    def catalog(self):
        return [test.full_name for test in lean_first(None).tests]

    def test_in_process_queue_comes_from_dispatch_order(self, monkeypatch):
        leased = self.spy_grants(monkeypatch)
        report = lean_first(CampaignConfig(blacklist_threshold=999)).run()
        assert not report.supervision.enabled
        assert leased == self.catalog()

    def test_pool_queue_comes_from_dispatch_order(self, monkeypatch):
        leased = self.spy_grants(monkeypatch)
        report = lean_first(CampaignConfig(blacklist_threshold=999,
                                           workers=2)).run()
        assert report.supervision.enabled == parallel.fork_available()
        assert leased == self.catalog()

    def test_coordinator_queue_comes_from_dispatch_order(self,
                                                         monkeypatch):
        """The coordinator serves one worker that runs one lease at a
        time."""
        leased = self.spy_grants(monkeypatch)
        coordinated = lean_first(CampaignConfig(blacklist_threshold=999,
                                                distributed="127.0.0.1:0"))
        box = {}
        campaign_thread = threading.Thread(
            target=lambda: box.update(report=coordinated.run()), daemon=True)
        campaign_thread.start()
        deadline = time.monotonic() + 30
        while not coordinated.distribution.listen \
                and time.monotonic() < deadline:
            time.sleep(0.002)
        assert distrib.run_worker(
            coordinated.distribution.listen,
            campaign_factory=lambda app, config: lean_first(config)) \
            == distrib.EXIT_OK
        campaign_thread.join(timeout=60)
        assert box["report"].distribution.remote_profiles \
            == len(self.catalog())
        assert leased == self.catalog()


class TestPredictionsInReport:
    def test_cost_centers_carry_predictions(self):
        """Cost centers carry measured numbers only."""
        report = campaign().run()
        assert report.cost_centers
        record = app_report_to_dict(report)
        for center in record["cost_centers"]:
            assert sorted(center) == ["executions", "instances",
                                      "machine_time_s", "test"]
        assert sum(center["executions"] for center in record["cost_centers"]) \
            == report.executions - report.prerun_summary.total_tests
        markdown = app_report_markdown(report)
        assert "| Unit test | Executions | Modelled hours | Instances |" \
            in markdown
        assert "Predicted" not in markdown

    def test_sched_metrics_are_deterministic(self):
        serial = campaign(observe=True).run()
        pooled = campaign(observe=True, workers=2).run()
        snapshot = pooled.observation.metrics.render_prometheus()
        assert "zc_sched_" not in snapshot
        # the front cannot move a deterministic metric
        assert snapshot == serial.observation.metrics.render_prometheus()


class TestSchedulingNeverChangesFindings:
    def test_serial_vs_lpt_workers_reports_identical(self):
        serial = campaign().run()
        fanned = campaign(workers=3).run()
        assert pooled_dict(serial) == pooled_dict(fanned)

    def test_checkpoint_resume_with_lpt(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        full = campaign(workers=2).run()
        campaign(workers=2, checkpoint_path=path).run()
        # cut the journal back to one finished test and resume
        kept, done = [], 0
        for line in open(path):
            record = json.loads(line)
            if record["kind"] == "test-done":
                done += 1
                if done > 1:
                    continue
            kept.append(line)
        assert done == 3
        with open(path, "w") as handle:
            handle.writelines(kept)
        resumed = campaign(workers=2, checkpoint_path=path).run()
        assert pooled_dict(resumed) == pooled_dict(full)


@pytest.mark.chaos
class TestChaosScheduling:
    PLAN = FaultPlan(seed=23, drop_prob=0.1, delay_prob=0.1,
                     duplicate_prob=0.02, crash_prob=0.03,
                     io_slowdown_prob=0.05, clock_jitter=0.02,
                     infra_error_prob=0.01)

    def test_chaos_lpt_vs_catalog_reports_identical(self):
        """In process one profile at a time, ``workers=2`` two."""
        catalog = campaign(fault_plan=self.PLAN).run()
        lpt = campaign(workers=2, fault_plan=self.PLAN).run()
        assert pooled_dict(lpt) == pooled_dict(catalog)


class TestCostBook:
    def test_resume_reschedules_without_changing_findings(self, tmp_path):
        """An interrupted ``workers=2`` campaign resumes to the
        uninterrupted report: the journal keeps its header and the first
        half of its ``test-done`` records, and the resume leases the
        rest in catalog order."""
        path = str(tmp_path / "ck.jsonl")
        baseline = campaign(workers=2).run()
        campaign(workers=2, checkpoint_path=path).run()
        with open(path) as handle:
            lines = handle.readlines()
        done = [line for line in lines
                if json.loads(line)["kind"] == "test-done"]
        assert len(done) == 3
        kept = [line for line in lines
                if json.loads(line)["kind"] != "test-done"] \
            + done[:len(done) // 2]
        with open(path, "w") as handle:
            handle.writelines(kept)
        resumed = campaign(workers=2, checkpoint_path=path).run()
        assert pooled_dict(resumed) == pooled_dict(baseline)
