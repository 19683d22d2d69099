"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main


class TestListing:
    def test_list_apps(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        for app in ("flink", "hdfs", "yarn"):
            assert app in out

    def test_list_params(self, capsys):
        assert main(["list-params", "hdfs"]) == 0
        out = capsys.readouterr().out
        assert "dfs.heartbeat.interval" in out
        assert "UNSAFE (Table 3)" in out

    def test_list_params_unsafe_only(self, capsys):
        assert main(["list-params", "flink", "--unsafe-only"]) == 0
        out = capsys.readouterr().out
        assert "akka.ssl.enabled" in out
        assert "rest.port" not in out

    def test_corpus(self, capsys):
        assert main(["corpus", "mapreduce"]) == 0
        out = capsys.readouterr().out
        assert "TestMapReduceJob.testWordCount" in out
        assert "flaky" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["list-params", "cassandra"])

    def test_why_table3_param(self, capsys):
        assert main(["why", "dfs.heartbeat.interval"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous-UNSAFE" in out
        assert "falsely identifies" in out

    def test_why_safe_param(self, capsys):
        assert main(["why", "io.file.buffer.size"]) == 0
        out = capsys.readouterr().out
        assert "not listed" in out
        assert "Hadoop Common" in out

    def test_why_unknown_param(self, capsys):
        assert main(["why", "does.not.exist"]) == 1

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestCampaignCommand:
    def test_flink_campaign_with_json(self, capsys, tmp_path):
        out_path = tmp_path / "flink.json"
        assert main(["campaign", "flink", "--workers", "2",
                     "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "TRUE PROBLEM" in out
        assert "akka.ssl.enabled" in out

        data = json.loads(out_path.read_text())
        assert data["app"] == "flink"
        assert set(data["true_problems"]) == {
            "akka.ssl.enabled", "taskmanager.data.ssl.enabled",
            "taskmanager.numberOfTaskSlots"}
        assert data["executions"] > 0
        assert data["hypothesis_testing"]["confirmed"] >= 3

    def test_campaign_flags_accepted(self, capsys):
        assert main(["campaign", "flink", "--pool-size", "4",
                     "--blacklist-threshold", "2",
                     "--disable-ipc-sharing"]) == 0
        assert "reported" in capsys.readouterr().out


class TestLocalBackendFlags:
    @pytest.mark.parametrize("argv", [
        ["campaign", "flink", "--parallel-backend", "thread"],
        ["campaign", "flink", "--no-supervise"],
        ["worker", "--connect", "127.0.0.1:1", "--parallel-backend",
         "process"],
        ["worker", "--connect", "127.0.0.1:1", "--no-supervise"],
        ["campaign", "flink", "--schedule", "lpt"],
        # --trace is gone too; argparse now reads it as an ambiguous
        # prefix of --trace-spans / --trace-chrome
        ["campaign", "flink", "--trace", "t.jsonl"],
        ["evaluate", "--trace", "t.jsonl"],
    ])
    def test_retired_backend_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks")
    def test_parallel_backend_process_still_runs_the_supervised_pool(
            self, tmp_path):
        out_path = tmp_path / "flink.json"
        assert main(["campaign", "flink", "--workers", "2",
                     "--parallel-backend", "process",
                     "--json", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["supervision"]["enabled"]


class TestObservabilityFlags:
    def test_campaign_exports_validate_and_reconcile(self, capsys, tmp_path):
        spans = str(tmp_path / "spans.jsonl")
        chrome = str(tmp_path / "chrome.json")
        metrics = str(tmp_path / "metrics.prom")
        report = str(tmp_path / "report.json")
        assert main(["campaign", "flink", "--exec-cache",
                     "--trace-spans", spans, "--trace-chrome", chrome,
                     "--metrics-out", metrics, "--json", report]) == 0
        out = capsys.readouterr().out
        assert "spans to" in out and "metric samples to" in out

        assert main(["validate-obs", "--spans", spans, "--chrome", chrome,
                     "--metrics", metrics, "--report", report]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") >= 3
        assert "reconciliation: OK" in out

    def test_validate_obs_flags_corrupt_artifact(self, capsys, tmp_path):
        spans = tmp_path / "spans.jsonl"
        spans.write_text('{"span_id": "not an int"}\n')
        assert main(["validate-obs", "--spans", str(spans)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_validate_obs_without_artifacts_is_usage_error(self, capsys):
        assert main(["validate-obs"]) == 2
        assert "nothing to validate" in capsys.readouterr().err

    def test_validate_obs_reports_reconciliation_mismatch(self, capsys,
                                                          tmp_path):
        metrics = tmp_path / "metrics.prom"
        metrics.write_text(
            "# HELP zc_executions_total x\n"
            "# TYPE zc_executions_total counter\n"
            "zc_executions_total 5\n")
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"executions": 99}))
        assert main(["validate-obs", "--metrics", str(metrics),
                     "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH" in err and "metrics say 5, report says 99" in err

    def test_progress_renders_a_live_line_on_stderr(self, capsys):
        assert main(["campaign", "flink", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[flink] profiles" in err
        assert err.endswith("\n")


class TestMachineReadableStoreAndServe:
    """--json on `repro store` / `repro serve-token` (docs/SERVICE.md)."""

    GOLDEN_STATS_KEYS = {
        "segments", "bytes", "entries", "deterministic", "seeded",
        "reports", "profiles", "corrupt_records", "truncated_tails",
        "salvaged_records", "substrates"}

    def _seeded_store(self, tmp_path):
        store = str(tmp_path / "results")
        assert main(["campaign", "flink", "--store", store]) == 0
        return store

    def test_store_stats_json_shape(self, capsys, tmp_path):
        store = self._seeded_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "stats", store, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == self.GOLDEN_STATS_KEYS
        assert record["entries"] > 0 and record["reports"] == 1
        assert record["substrates"][0]["app"] == "flink"

    def test_store_verify_json_has_ok_flag(self, capsys, tmp_path):
        store = self._seeded_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", store, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["ok"] is True
        assert set(record) == self.GOLDEN_STATS_KEYS | {"ok"}

    def test_store_gc_json_shape(self, capsys, tmp_path):
        store = self._seeded_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "gc", store, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert {"compacted_segments", "kept_segments", "entries",
                "reports", "dropped_damage"} <= set(record)

    def test_serve_token_matches_golden(self, capsys):
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "serve_token.json")
        with open(golden) as handle:
            expected = json.load(handle)["s3cret"]
        assert main(["serve-token", "--secret", "s3cret"]) == 0
        assert capsys.readouterr().out.strip() == expected
        assert main(["serve-token", "--secret", "s3cret", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"token": expected}

    def test_serve_token_without_secret_is_usage_error(self, capsys,
                                                       monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_SECRET", raising=False)
        monkeypatch.delenv("REPRO_DIST_SECRET", raising=False)
        assert main(["serve-token"]) == 2
        assert "no secret" in capsys.readouterr().err
