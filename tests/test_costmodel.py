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
import os

import pytest

from repro.common.faults import FaultPlan
from repro.core.costmodel import (CACHE_HIT_PCT, EWMA_ALPHA, SINGLETON_COST,
                                  UNSAFE_PRIOR_PCT, CostBook, CostModel)
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
    def test_first_sample_is_stored_raw(self, tmp_path):
        book = CostBook(str(tmp_path / "w.json"))
        book.observe("synth::T.a", 40, wall_s=2.0)
        entry = book.measured("synth::T.a")
        assert entry == {"executions": 40.0, "wall_s": 2.0, "samples": 1.0}

    def test_later_samples_are_ewma_smoothed(self, tmp_path):
        book = CostBook(str(tmp_path / "w.json"))
        book.observe("synth::T.a", 10, wall_s=1.0)
        book.observe("synth::T.a", 20, wall_s=2.0)
        entry = book.measured("synth::T.a")
        assert entry["executions"] == pytest.approx(10 + EWMA_ALPHA * 10)
        assert entry["wall_s"] == pytest.approx(1.0 + EWMA_ALPHA * 1.0)
        assert entry["samples"] == 2.0
        # an anomalous wall-clock spike moves the estimate only 30%
        book.observe("synth::T.a", 13, wall_s=100.0)
        assert book.measured("synth::T.a")["wall_s"] < 31.0

    def test_zero_wall_never_clobbers_a_measurement(self, tmp_path):
        book = CostBook(str(tmp_path / "w.json"))
        book.observe("synth::T.a", 10, wall_s=1.5)
        book.observe("synth::T.a", 10, wall_s=None)
        book.observe("synth::T.a", 10, wall_s=0.0)
        assert book.measured("synth::T.a")["wall_s"] == pytest.approx(1.5)

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.jsonl.weights.json")
        book = CostBook(path)
        book.observe("synth::T.a", 10, wall_s=1.0)
        book.observe("synth::T.b", 5)
        book.save()
        fresh = CostBook(path)
        fresh.load()
        assert fresh.measured("synth::T.a") == book.measured("synth::T.a")
        assert fresh.measured("synth::T.b") == book.measured("synth::T.b")
        assert fresh.measured("synth::T.c") is None

    def test_concurrent_savers_keep_each_others_entries(self, tmp_path):
        """Four processes sharing one book (application lanes under
        ``evaluate --checkpoint``) save different entries at once: no
        save may fail, and the book ends with every writer's entries."""
        path = str(tmp_path / "ck.jsonl.weights.json")
        children = []
        for prefix in "abcd":
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                code = 1
                try:
                    book = CostBook(path)
                    book.load()
                    for index in range(30):
                        book.observe("synth::T.%s%02d" % (prefix, index),
                                     index + 1)
                        book.save()
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        for pid in children:
            assert os.waitpid(pid, 0)[1] == 0
        fresh = CostBook(path)
        fresh.load()
        for prefix in "abcd":
            for index in range(30):
                entry = fresh.measured("synth::T.%s%02d" % (prefix, index))
                assert entry is not None and entry["executions"] == index + 1

    def test_missing_and_corrupt_files_are_tolerated(self, tmp_path):
        missing = CostBook(str(tmp_path / "nope.json"))
        missing.load()
        assert missing.measured("synth::T.a") is None
        path = tmp_path / "bad.json"
        path.write_text("{corrupt json")
        corrupt = CostBook(str(path))
        corrupt.load()
        assert corrupt.measured("synth::T.a") is None
        path.write_text('["not", "an", "object"]')
        shaped_wrong = CostBook(str(path))
        shaped_wrong.load()
        assert shaped_wrong.measured("synth::T.a") is None

    def test_beside_checkpoint_naming(self):
        assert CostBook.beside_checkpoint("/x/ck.jsonl") \
            == "/x/ck.jsonl.weights.json"

    def test_measured_wall_beats_analytic_forecast(self, tmp_path):
        camp = campaign()
        profiles = usable_profiles(camp)
        model = CostModel(camp)
        target = profiles[0]
        assert model.scheduling_wall_s(target) \
            == model.predict(target).predicted_wall_s  # no book: analytic
        book = CostBook(str(tmp_path / "w.json"))
        book.observe(target.test.full_name, 3, wall_s=123.5)
        camp.cost_book = book
        assert model.scheduling_wall_s(target) == pytest.approx(123.5)

    def test_measured_executions_priced_at_prerun_weight(self, tmp_path):
        camp = campaign()
        profiles = usable_profiles(camp)
        model = CostModel(camp)
        target = profiles[0]
        target.prerun_wall_s = 0.5
        book = CostBook(str(tmp_path / "w.json"))
        book.observe(target.test.full_name, 40)  # executions, no wall
        camp.cost_book = book
        assert model.scheduling_wall_s(target) == pytest.approx(40 * 0.5)

    def test_lpt_order_prefers_measured_history(self, tmp_path):
        camp = campaign()
        profiles = usable_profiles(camp)
        for profile in profiles:
            profile.prerun_wall_s = 1.0
        book = CostBook(str(tmp_path / "w.json"))
        lightest = CostModel(camp).lpt_order(profiles)[-1]
        book.observe(lightest.test.full_name, 1, wall_s=9999.0)
        camp.cost_book = book
        assert CostModel(camp).lpt_order(profiles)[0] is lightest

    def test_checkpointed_campaign_persists_weights(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        report = campaign(checkpoint_path=path).run()
        book = CostBook(CostBook.beside_checkpoint(path))
        book.load()
        assert report.cost_centers
        for center in report.cost_centers:
            entry = book.measured(center.test)
            assert entry is not None
            assert entry["executions"] > 0.0
            assert entry["samples"] == 1.0

    def test_resume_reschedules_without_changing_findings(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        baseline = campaign(workers=2).run()
        campaign(workers=2, checkpoint_path=path).run()
        # wipe the journal but keep the weights: the rerun schedules
        # purely from measured history and must report identically
        with open(path) as handle:
            header = handle.readline()
        with open(path, "w") as handle:
            handle.write(header)
        resumed = campaign(workers=2, checkpoint_path=path).run()
        assert pooled_dict(resumed) == pooled_dict(baseline)
