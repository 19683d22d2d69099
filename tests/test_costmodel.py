"""Dispatch order: longest measured pre-run weight first, and the
invariant that dispatch order never changes findings.

The supervised pool and the distributed coordinator hand profiles out in
:func:`repro.core.parallel.dispatch_order` while serial runs keep
catalog order, but outcomes are folded back in catalog order, so the
AppReport, every verdict, and the deterministic metrics snapshot must be
byte-identical between a serial run and a ``workers=2`` run — under
chaos and across a checkpoint resume too.
"""

from __future__ import annotations

import json

import pytest

from repro.common.configuration import ref_to_clone
from repro.common.errors import TestFailure
from repro.common.faults import FaultPlan
from repro.core import distrib, parallel, supervise
from repro.core.confagent import current_agent
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.prerun import prerun_test
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


def usable_profiles(camp):
    return [profile for profile in (prerun_test(test) for test in camp.tests)
            if profile.usable]


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


def weighted(camp, walls):
    """``camp``'s usable profiles with their pre-run wall times set from
    ``walls`` (test name -> seconds)."""
    profiles = usable_profiles(camp)
    for profile in profiles:
        profile.prerun_wall_s = walls[profile.test.name]
    return profiles


def names(profiles):
    return [profile.test.name for profile in profiles]


class TestCostModel:
    def test_lpt_orders_heaviest_first(self):
        """The key is wall time x tested parameters: neither factor
        alone, nor the test name, gives this order."""
        camp = Campaign("synth", SYNTH_REGISTRY,
                        tests=[two_service_test(), client_vs_service_test(),
                               safe_only_test(), lean_test()],
                        config=CampaignConfig(blacklist_threshold=999))
        profiles = weighted(camp, {
            "TestSynth.testExchange": 1.0,       # 5 params -> 5.0
            "TestSynth.testClientView": 0.5,     # 5 params -> 2.5
            "TestSynth.testSafeParams": 0.1,     # 5 params -> 0.5
            "TestSynth.testLean": 3.0})          # 1 param  -> 3.0
        ordered = parallel.dispatch_order(camp, profiles)
        assert names(ordered) == ["TestSynth.testExchange",
                                  "TestSynth.testLean",
                                  "TestSynth.testClientView",
                                  "TestSynth.testSafeParams"]
        assert ordered is not profiles
        assert names(profiles) == ["TestSynth.testExchange",
                                   "TestSynth.testClientView",
                                   "TestSynth.testSafeParams",
                                   "TestSynth.testLean"]  # input untouched

    def test_profile_testing_no_parameter_sorts_last(self):
        """``only_params`` leaves the lean profile nothing to test, so
        it weighs nothing however long its pre-run took."""
        camp = Campaign("synth", SYNTH_REGISTRY,
                        tests=[lean_test(), two_service_test(),
                               client_vs_service_test()],
                        config=CampaignConfig(blacklist_threshold=999,
                                              only_params=frozenset(
                                                  {"synth.mode"})))
        profiles = weighted(camp, {"TestSynth.testLean": 100.0,
                                   "TestSynth.testExchange": 1.0,
                                   "TestSynth.testClientView": 2.0})
        assert names(parallel.dispatch_order(camp, profiles)) \
            == ["TestSynth.testClientView", "TestSynth.testExchange",
                "TestSynth.testLean"]

    def test_lpt_ties_break_on_test_name(self):
        camp = Campaign(
            "synth", SYNTH_REGISTRY,
            tests=[two_service_test(name="TestSynth.testZzz"),
                   two_service_test(name="TestSynth.testAaa")],
            config=CampaignConfig(blacklist_threshold=999))
        profiles = weighted(camp, {"TestSynth.testZzz": 1.0,
                                   "TestSynth.testAaa": 1.0})
        ordered = parallel.dispatch_order(camp, profiles)
        assert [p.test.full_name for p in ordered] \
            == ["synth::TestSynth.testAaa", "synth::TestSynth.testZzz"]


class TestDispatchTakesTheOrder:
    """The supervised pool and the coordinator's lease queue are both
    handed exactly the list dispatch_order returned."""

    def spy_order(self, monkeypatch):
        orders = []
        real = parallel.dispatch_order

        def spy(camp, profiles):
            orders.append(real(camp, profiles))
            return orders[-1]

        monkeypatch.setattr(parallel, "dispatch_order", spy)
        return orders

    def test_pool_queue_comes_from_dispatch_order(self, monkeypatch):
        orders = self.spy_order(monkeypatch)
        queued = []
        real = supervise.run_profiles_parallel

        def pool(camp, profiles, *args, **kwargs):
            queued.append(profiles)
            return real(camp, profiles, *args, **kwargs)

        monkeypatch.setattr(supervise, "run_profiles_parallel", pool)
        campaign(workers=2).run()
        assert len(orders) == 1 and len(orders[0]) == 3
        assert len(queued) == 1 and queued[0] is orders[0]

    def test_coordinator_queue_comes_from_dispatch_order(self,
                                                         monkeypatch):
        orders = self.spy_order(monkeypatch)
        leased = []

        class Recording(distrib.Coordinator):
            def __init__(self, camp, profiles, *args, **kwargs):
                leased.append(profiles)
                super().__init__(camp, profiles, *args, **kwargs)

        monkeypatch.setattr(distrib, "Coordinator", Recording)
        # no worker joins, so the coordinator degrades and the campaign
        # finishes every profile serially
        report = campaign(distributed="127.0.0.1:0",
                          dist_join_grace_s=0.05).run()
        assert len(orders) == 1 and len(orders[0]) == 3
        assert len(leased) == 1 and leased[0] is orders[0]
        assert report.distribution.local_profiles == 3


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
        # dispatch order and backend cannot move a deterministic metric
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
        """Serial runs dispatch in catalog order, ``workers=2`` in
        dispatch order."""
        catalog = campaign(fault_plan=self.PLAN).run()
        lpt = campaign(workers=2, fault_plan=self.PLAN).run()
        assert pooled_dict(lpt) == pooled_dict(catalog)


class TestCostBook:
    def test_resume_reschedules_without_changing_findings(self, tmp_path):
        """An interrupted ``workers=2`` campaign resumes to the
        uninterrupted report: the journal keeps its header and the first
        half of its ``test-done`` records, and the resume dispatches the
        rest in dispatch order."""
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
