"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

from repro import cli
from repro.cli import main
from repro.common.faults import DiskFaultPlan, FaultPlan, NetFaultPlan
from repro.core.jobqueue import CampaignJob, JobQueue, canonical_spec
from repro.core.orchestrator import CampaignConfig


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


#: the supervision and fleet knobs that became the constants
#: parallel.REDELIVERY, supervise.CRASH_LOOP_THRESHOLD and
#: distrib.HEARTBEAT_S / HEARTBEAT_TIMEOUT_S, were folded into
#: --profile-deadline and --dist-join-grace, or were deleted with worker
#: recycling (--worker-rlimit-cpu); each with the CampaignConfig field it
#: used to set.
RETIRED_KNOBS = [
    (["--worker-redelivery", "4"], "worker_redelivery"),
    (["--crash-loop-threshold", "7"], "crash_loop_threshold"),
    (["--worker-rlimit-cpu", "9"], "worker_rlimit_cpu_s"),
    (["--dist-heartbeat", "0.5"], "dist_heartbeat_s"),
    (["--dist-heartbeat-timeout", "3"], "dist_heartbeat_timeout_s"),
    (["--dist-lease-deadline", "8"], "dist_lease_deadline_s"),
    (["--dist-fleet-grace", "2"], "dist_fleet_grace_s"),
]

#: argv prefix of each subcommand that once took a retired knob.
KNOB_COMMANDS = {"campaign": ["campaign", "flink"], "evaluate": ["evaluate"],
                 "worker": ["worker", "--connect", "127.0.0.1:1"]}


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
        # the per-kind fault flags became --fault KIND=VALUE, and the net
        # plan takes --fault-seed
        ["campaign", "flink", "--fault-drop", "0.1"],
        ["campaign", "flink", "--fault-disk-enospc", "0.1"],
        ["worker", "--connect", "127.0.0.1:1", "--fault-net-seed", "1"],
        # work stealing's copy bound is the constant distrib.MAX_COPIES
        ["campaign", "flink", "--dist-max-copies", "1"],
        # a worker runs no pool: the coordinator's deadline polices
        # every remote lease
        pytest.param(["worker", "--connect", "127.0.0.1:1",
                      "--profile-deadline", "2.5"],
                     id="worker --profile-deadline 2.5"),
    ] + [pytest.param(prefix + knob, id="%s %s" % (command, " ".join(knob)))
         for command, prefix in KNOB_COMMANDS.items()
         for knob, _ in RETIRED_KNOBS])
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


def _parse(argv):
    return cli.build_parser().parse_args(argv)


def _flags(command):
    """Every --flag the subcommand defines, --help excepted."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if action.dest == "command")
    return {flag for action in subparsers.choices[command]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


#: the value of a retired knob's row: neither its flag nor its field exists.
RETIRED = object()

#: (argv, CampaignConfig field, the non-default value argv must set) for
#: every campaign/evaluate flag that sets a config field, then every
#: retired knob.
CAMPAIGN_FIELD_FLAGS = [
    (["--workers", "3"], "workers", 3),
    (["--store", "S"], "store_path", "S"),
    (["--dist-secret", "k"], "dist_secret", "k"),
    (["--profile-deadline", "2.5"], "profile_deadline_s", 2.5),
    (["--worker-rlimit-mem", "512"], "worker_rlimit_mem_mb", 512),
    (["--exec-cache"], "exec_cache", True),
    (["--incremental"], "incremental", True),
    (["--sample", "pairwise"], "sample", "pairwise"),
    (["--sample-k", "4"], "sample_k", 4),
    (["--sample-seed", "3"], "sample_seed", 3),
    (["--audit"], "audit", True),
    (["--pool-size", "4"], "max_pool_size", 4),
    (["--blacklist-threshold", "999"], "blacklist_threshold", 999),
    (["--disable-ipc-sharing"], "disable_ipc_sharing", True),
    (["--param", "a", "--param", "b"], "only_params", frozenset("ab")),
    (["--checkpoint", "ck.jsonl"], "checkpoint_path", "ck.jsonl"),
    (["--infra-retries", "5"], "infra_retries", 5),
    (["--watchdog", "99"], "watchdog_sim_s", 99.0),
    (["--chaos"], "fault_plan", FaultPlan.moderate(0)),
    (["--fault-seed", "4", "--fault", "drop=0.2"], "fault_plan",
     FaultPlan(seed=4, drop_prob=0.2)),
    (["--fault", "disk_enospc=0.1"], "disk_fault_plan",
     DiskFaultPlan(enospc_prob=0.1)),
    (["--fault", "net_drop=0.1"], "net_fault_plan",
     NetFaultPlan(drop_prob=0.1)),
    (["--distributed", "127.0.0.1:0"], "distributed", "127.0.0.1:0"),
    (["--dist-join-grace", "1"], "dist_join_grace_s", 1.0),
    (["--trace-spans", "s.jsonl"], "observe", True),
    (["--trace-chrome", "c.json"], "observe", True),
    (["--metrics-out", "m.prom"], "observe", True),
] + [(argv, field, RETIRED) for argv, field in RETIRED_KNOBS]

#: campaign/evaluate flags that steer the command, not the config.
CAMPAIGN_COMMAND_FLAGS = {"--json", "--compare", "--markdown",
                          "--parallel-backend", "--progress"}

#: the flags `worker` shares with campaign/evaluate (one definition).
SHARED_FLAGS = {"--workers", "--store", "--dist-secret",
                "--worker-rlimit-mem"}

SHARED_FIELD_FLAGS = [row for row in CAMPAIGN_FIELD_FLAGS
                      if row[0][0] in SHARED_FLAGS]


def _ids(rows):
    return [" ".join(argv) for argv, _, _ in rows]


class TestFlagWiring:
    """Every flag reaches the field or callee it names."""

    @pytest.mark.parametrize("command", ["campaign", "evaluate"])
    def test_every_campaign_flag_is_in_the_table(self, command):
        tabled = {argv[0] for argv, _, value in CAMPAIGN_FIELD_FLAGS
                  if value is not RETIRED}
        assert _flags(command) == tabled | CAMPAIGN_COMMAND_FLAGS

    @pytest.mark.parametrize("argv,field,value", CAMPAIGN_FIELD_FLAGS,
                             ids=_ids(CAMPAIGN_FIELD_FLAGS))
    def test_campaign_flag_sets_its_field(self, argv, field, value):
        if value is RETIRED:
            assert argv[0] not in _flags("campaign")
            assert not hasattr(CampaignConfig(), field)
            return
        assert getattr(CampaignConfig(), field) != value
        config = cli._config(_parse(["campaign", "flink"] + argv))
        assert getattr(config, field) == value

    def test_progress_streams_to_stderr(self):
        config = cli._config(_parse(["evaluate", "--progress"]))
        assert config.progress_stream is sys.stderr

    def _worker_call(self, monkeypatch, argv):
        calls = []
        import repro.core.distrib as distrib
        monkeypatch.setattr(distrib, "run_worker",
                            lambda connect, **kw: calls.append(
                                dict(kw, connect=connect)) or 0)
        assert main(["worker", "--connect", "10.0.0.1:7"] + argv) == 0
        return calls[0]

    def test_worker_shares_the_campaign_flags(self):
        assert SHARED_FLAGS <= _flags("campaign")
        assert _flags("worker") == SHARED_FLAGS | {
            "--connect", "--name", "--reconnect-attempts", "--fault-seed",
            "--fault"}

    @pytest.mark.parametrize("argv,field,value", SHARED_FIELD_FLAGS,
                             ids=_ids(SHARED_FIELD_FLAGS))
    def test_worker_flag_sets_its_field(self, monkeypatch, argv, field,
                                        value):
        call = self._worker_call(monkeypatch, argv)
        assert getattr(call["worker_config"], field) == value

    @pytest.mark.parametrize("argv,kwarg,value", [
        ([], "connect", "10.0.0.1:7"),
        (["--name", "w7"], "name", "w7"),
        (["--reconnect-attempts", "3"], "max_reconnects", 3),
        (["--fault", "net_partition=3", "--fault-seed", "5"],
         "net_fault_plan", NetFaultPlan(seed=5, partition_after=3)),
        (["--fault", "net_delay=0.5"], "net_fault_plan",
         NetFaultPlan(delay_prob=0.5)),
    ])
    def test_worker_flag_reaches_run_worker(self, monkeypatch, argv, kwarg,
                                            value):
        assert self._worker_call(monkeypatch, argv)[kwarg] == value

    @pytest.mark.parametrize("argv,kwarg,value", [
        ([], "listen", "127.0.0.1:8787"),
        (["0.0.0.0:9"], "listen", "0.0.0.0:9"),
        ([], "state_dir", "state"),
        (["--serve-max-active", "3"], "max_active", 3),
        (["--store", "S"], "store_path", "S"),
        (["--serve-secret", "s"], "secret", "s"),
        (["--dist-secret", "d"], "dist_secret", "d"),
    ])
    def test_serve_flag_reaches_run_service(self, monkeypatch, argv, kwarg,
                                            value):
        calls = []
        import repro.core.service as service
        monkeypatch.setattr(service, "run_service",
                            lambda listen, **kw: calls.append(
                                dict(kw, listen=listen)) or 0)
        assert main(["serve", "--serve-state", "state"] + argv) == 0
        assert calls[0][kwarg] == value


class TestFaultFlag:
    def test_cli_and_serve_spec_build_equal_fault_plans(self, tmp_path):
        from_cli = cli._config(_parse(
            ["campaign", "flink", "--chaos", "--fault-seed", "7",
             "--fault", "drop=0.1"])).fault_plan
        spec = canonical_spec({"app": "flink", "chaos": True,
                               "fault_seed": 7, "faults": {"drop": 0.1}})
        job = CampaignJob("c000001", spec, str(tmp_path))
        from_spec = JobQueue(str(tmp_path))._config_for(job).fault_plan
        assert from_cli == from_spec == replace(FaultPlan.moderate(7),
                                                drop_prob=0.1)

    def test_later_fault_overrides_earlier_and_the_preset(self):
        plan = cli._config(_parse(
            ["campaign", "flink", "--chaos", "--fault", "crash=0.5",
             "--fault", "crash=0", "--fault", "infra=0.3"])).fault_plan
        assert plan == replace(FaultPlan.moderate(0), crash_prob=0.0,
                               infra_error_prob=0.3)

    def test_one_seed_drives_all_three_plans(self):
        config = cli._config(_parse(
            ["campaign", "flink", "--fault-seed", "5", "--fault", "drop=0.1",
             "--fault", "disk_short_write=0.2",
             "--fault", "net_partition=3"]))
        assert config.fault_plan == FaultPlan(seed=5, drop_prob=0.1)
        assert config.disk_fault_plan == DiskFaultPlan(seed=5,
                                                       short_write_prob=0.2)
        assert config.net_fault_plan == NetFaultPlan(seed=5,
                                                     partition_after=3)

    def test_no_fault_flags_build_no_plans(self):
        config = cli._config(_parse(["campaign", "flink", "--fault-seed",
                                     "9"]))
        assert (config.fault_plan, config.disk_fault_plan,
                config.net_fault_plan) == (None, None, None)

    @pytest.mark.parametrize("argv", [
        ["worker", "--connect", "127.0.0.1:1", "--fault", "drop=0.1"],
        ["worker", "--connect", "127.0.0.1:1", "--fault", "drop=x"],
        ["worker", "--connect", "127.0.0.1:1", "--fault", "gamma=1"],
        ["campaign", "flink", "--fault", "gamma=1"],
        ["campaign", "flink", "--fault", "drop"],
        ["campaign", "flink", "--fault", "net_partition=2.5"],
    ])
    def test_bad_fault_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


class TestIncrementalAccounting:
    def test_reused_profiles_report_no_cache_traffic(self, capsys, tmp_path):
        store = str(tmp_path / "results")
        report = tmp_path / "incremental.json"
        metrics = str(tmp_path / "incremental.prom")
        assert main(["campaign", "flink", "--store", store]) == 0
        assert main(["campaign", "flink", "--store", store, "--incremental",
                     "--json", str(report), "--metrics-out", metrics]) == 0
        record = json.loads(report.read_text())
        assert record["plan"]["rerun"] == record["plan"]["new"] == 0
        assert record["exec_cache"] == {"enabled": True, "hits": 0,
                                        "misses": 0, "bypasses": 0}
        capsys.readouterr()
        assert main(["validate-obs", "--metrics", metrics,
                     "--report", str(report)]) == 0
        assert "reconciliation: OK" in capsys.readouterr().out
