"""Unit tests for report structures, rendering, and JSON export."""

from __future__ import annotations

import json

import pytest

from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import (CampaignReport, StageCounts,
                               app_report_to_dict, campaign_report_to_dict,
                               render_summary, render_table,
                               render_unsafe_params, verdict_to_dict)
from repro.core.triage import TRUE_PROBLEM, ParamVerdict
from synthetic_app import SYNTH_REGISTRY, client_vs_service_test, two_service_test


@pytest.fixture(scope="module")
def synth_report():
    campaign = Campaign("synth", SYNTH_REGISTRY,
                        tests=[two_service_test(), client_vs_service_test()],
                        config=CampaignConfig())
    return campaign.run()


class TestStageCounts:
    def test_reduction_orders(self):
        counts = StageCounts(original=100000, after_prerun=1000,
                             after_uncertainty=900, after_pooling=100)
        assert counts.reduction_orders() == pytest.approx(3.0)

    def test_zero_guard(self):
        assert StageCounts().reduction_orders() == 0.0

    def test_rows_order(self):
        names = [name for name, _ in StageCounts().rows()]
        assert names == ["Original", "After pre-running unit tests",
                         "After removing uncertainty", "After pooled testing"]


class TestUniqueDedup:
    def test_true_problem_wins_over_fp(self, synth_report):
        report = CampaignReport(apps=[synth_report])
        merged = report.unique_verdicts()
        assert set(merged) == {v.param for v in synth_report.verdicts}

    def test_duplicate_across_apps_counted_once(self, synth_report):
        report = CampaignReport(apps=[synth_report, synth_report])
        assert (len(report.unique_true_problems())
                == len(synth_report.true_problems))


class TestJsonExport:
    def test_app_report_round_trips_through_json(self, synth_report):
        data = json.loads(json.dumps(app_report_to_dict(synth_report)))
        assert data["app"] == "synth"
        assert set(data["true_problems"]) == {"synth.mode", "synth.level"}
        assert data["executions"] > 0
        assert data["stage_counts"]["Original"] > 0
        assert data["hypothesis_testing"]["confirmed"] >= 2
        assert data["prerun"]["total_tests"] == 2

    def test_campaign_report_dict(self, synth_report):
        report = CampaignReport(apps=[synth_report])
        data = campaign_report_to_dict(report)
        assert data["unique_true_problems"] == ["synth.level", "synth.mode"]
        assert data["total_machine_hours"] > 0

    def test_verdict_dict_fields(self):
        verdict = ParamVerdict(param="p", verdict=TRUE_PROBLEM,
                               category="others", failing_tests=("a::t",),
                               sample_error="boom")
        data = verdict_to_dict(verdict)
        assert data == {"param": "p", "verdict": TRUE_PROBLEM,
                        "category": "others", "fp_reason": "",
                        "failing_tests": ["a::t"], "sample_error": "boom"}


class TestRenderers:
    def test_render_table_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert text.splitlines()[0].startswith("a")

    def test_render_summary_counts(self, synth_report):
        report = CampaignReport(apps=[synth_report])
        text = render_summary(report)
        assert "true problems            : 2" in text

    def test_render_unsafe_params_sections(self, synth_report):
        report = CampaignReport(apps=[synth_report])
        text = render_unsafe_params(report)
        assert "synth.mode" in text and "synth.level" in text
