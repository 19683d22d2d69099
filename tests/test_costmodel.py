"""Cost model + LPT scheduling: predictions, ordering, and the invariant
that scheduling never changes findings.

Dispatch order is a pure makespan concern: the supervised pool hands
profiles out longest-predicted-first while serial runs keep catalog
order, but outcomes are folded back in catalog order, so the AppReport,
every verdict, and the deterministic metrics snapshot must be
byte-identical between a serial run and a ``workers=2`` run — under
chaos and across a checkpoint resume too.
"""

from __future__ import annotations

import json

import pytest

from repro.common.faults import FaultPlan
from repro.core.costmodel import (CACHE_HIT_PCT, SINGLETON_COST,
                                  UNSAFE_PRIOR_PCT, CostModel)
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.prerun import prerun_test
from repro.core.report import app_report_to_dict
from repro.core.reportmd import app_report_markdown
from synthetic_app import (SYNTH_REGISTRY, client_vs_service_test,
                           safe_only_test, two_service_test)


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


class TestCostModel:
    def test_predictions_are_deterministic(self):
        camp = campaign()
        profiles = usable_profiles(camp)
        first = [CostModel(camp).predict(p) for p in profiles]
        second = [CostModel(camp).predict(p) for p in profiles]
        assert first == second

    def test_prediction_integer_math(self):
        camp = campaign()
        for profile in usable_profiles(camp):
            prediction = CostModel(camp).predict(profile)
            surcharge = (prediction.units * UNSAFE_PRIOR_PCT
                         * SINGLETON_COST) // 100
            assert prediction.predicted_executions \
                == prediction.pool_runs + surcharge
            assert prediction.predicted_cache_hits == 0  # cache off
            assert prediction.effective_executions \
                == prediction.predicted_executions

    def test_cache_discount_prices_hits(self):
        cached = campaign(exec_cache=True)
        for profile in usable_profiles(cached):
            prediction = CostModel(cached).predict(profile)
            surcharge = (prediction.units * UNSAFE_PRIOR_PCT
                         * SINGLETON_COST) // 100
            assert prediction.predicted_cache_hits \
                == (surcharge * CACHE_HIT_PCT) // 100
            assert prediction.effective_executions \
                <= prediction.predicted_executions

    def test_lpt_orders_heaviest_first(self):
        camp = campaign()
        profiles = usable_profiles(camp)
        model = CostModel(camp)
        for weight, profile in enumerate(profiles, start=1):
            profile.prerun_wall_s = float(weight)
        ordered = model.lpt_order(profiles)
        costs = [model.predict(p).predicted_wall_s for p in ordered]
        assert costs == sorted(costs, reverse=True)
        assert sorted(p.test.full_name for p in ordered) \
            == sorted(p.test.full_name for p in profiles)

    def test_lpt_ties_break_on_test_name(self):
        camp = Campaign(
            "synth", SYNTH_REGISTRY,
            tests=[two_service_test(name="TestSynth.testZzz"),
                   two_service_test(name="TestSynth.testAaa")],
            config=CampaignConfig(blacklist_threshold=999))
        profiles = usable_profiles(camp)
        for profile in profiles:
            profile.prerun_wall_s = 1.0  # identical weights and bodies
        ordered = CostModel(camp).lpt_order(profiles)
        assert [p.test.full_name for p in ordered] \
            == ["synth::TestSynth.testAaa", "synth::TestSynth.testZzz"]


class TestPredictionsInReport:
    def test_cost_centers_carry_predictions(self):
        report = campaign().run()
        assert report.cost_centers
        record = app_report_to_dict(report)
        for center in record["cost_centers"]:
            assert center["predicted_executions"] >= 0
        assert "Predicted" in app_report_markdown(report)

    def test_sched_metrics_are_deterministic(self):
        serial = campaign(observe=True).run()
        lpt = campaign(observe=True, workers=2).run()
        snapshot = lpt.observation.metrics.render_prometheus()
        assert "zc_sched_predicted_executions_total" in snapshot
        assert "zc_sched_prediction_error_executions_total" in snapshot
        # prediction totals are analytic integers: dispatch order and
        # backend cannot move them
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
        """Serial runs dispatch in catalog order, ``workers=2`` LPT."""
        catalog = campaign(fault_plan=self.PLAN).run()
        lpt = campaign(workers=2, fault_plan=self.PLAN).run()
        assert pooled_dict(lpt) == pooled_dict(catalog)


class TestCostBook:
    def test_resume_reschedules_without_changing_findings(self, tmp_path):
        """An interrupted ``workers=2`` campaign resumes to the
        uninterrupted report: the journal keeps its header and the first
        half of its ``test-done`` records, and the resume dispatches the
        rest longest-predicted-first."""
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
