"""Tests for baseline save/compare (regression tracking)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.baseline import (compare_to_baseline, load_baseline,
                                 save_baseline)
from repro.core.orchestrator import Campaign, CampaignConfig
from synthetic_app import SYNTH_REGISTRY, client_vs_service_test, two_service_test


@pytest.fixture(scope="module")
def synth_report():
    return Campaign("synth", SYNTH_REGISTRY,
                    tests=[two_service_test(), client_vs_service_test()],
                    config=CampaignConfig()).run()


class TestCompare:
    def test_identical_reports_are_clean(self, synth_report, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(synth_report, str(path))
        diff = compare_to_baseline(synth_report, load_baseline(str(path)))
        assert diff.clean
        assert not diff.has_regressions
        assert "baseline match" in diff.render()

    def test_new_unsafe_param_is_a_regression(self, synth_report, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(synth_report, str(path))
        baseline = load_baseline(str(path))
        baseline["true_problems"].remove("synth.mode")
        diff = compare_to_baseline(synth_report, baseline)
        assert diff.new_unsafe == ["synth.mode"]
        assert diff.has_regressions
        assert "NEW UNSAFE" in diff.render()

    def test_fixed_param_reported(self, synth_report, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(synth_report, str(path))
        baseline = load_baseline(str(path))
        baseline["true_problems"].append("synth.safe-a")
        diff = compare_to_baseline(synth_report, baseline)
        assert diff.fixed_unsafe == ["synth.safe-a"]
        assert not diff.has_regressions

    def test_wrong_app_rejected(self, synth_report):
        with pytest.raises(ValueError):
            compare_to_baseline(synth_report, {"app": "hdfs"})


class TestCliCompare:
    def test_matching_baseline_exits_zero(self, tmp_path, capsys):
        baseline_path = tmp_path / "flink.json"
        assert main(["campaign", "flink", "--json", str(baseline_path)]) == 0
        capsys.readouterr()
        assert main(["campaign", "flink",
                     "--compare", str(baseline_path)]) == 0
        assert "baseline match" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        baseline_path = tmp_path / "flink.json"
        assert main(["campaign", "flink", "--json", str(baseline_path)]) == 0
        data = json.loads(baseline_path.read_text())
        data["true_problems"].remove("akka.ssl.enabled")
        baseline_path.write_text(json.dumps(data))
        assert main(["campaign", "flink",
                     "--compare", str(baseline_path)]) == 1
        assert "NEW UNSAFE" in capsys.readouterr().out

    def test_evaluate_rejects_compare(self, capsys):
        assert main(["evaluate", "--compare", "x.json"]) == 2
