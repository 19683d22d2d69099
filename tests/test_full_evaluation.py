"""End-to-end evaluation tests: the paper's §7 results must reproduce.

Most share one cached full campaign (the ``full_report`` session
fixture, ~20s) and assert the evaluation's headline numbers and shapes.
The lane tests at the end prove that running applications side by side
(repro.core.lanes) reports exactly what the in-process loop reports.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import cli
from repro.apps import catalog
from repro.common.faults import DiskFaultPlan, FaultPlan
from repro.core import lanes, parallel
from repro.core.checkpoint import CheckpointError
from repro.core.orchestrator import (Campaign, CampaignConfig,
                                     application_campaigns, run_full_campaign)
from repro.core.report import (app_report_to_dict, findings_projection,
                               render_stage_counts, render_summary,
                               render_unsafe_params)
from repro.core.tracelog import TraceLog
from repro.core.triage import (FP_PRIVATE_ONLY, FP_SHARED_IPC,
                               FP_STRICT_ASSERTION, FP_UNREALISTIC)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: per-app findings digests of the serial evaluation (the end-to-end
#: benchmark's golden file).
EVALUATE_GOLDEN = os.path.join(REPO_ROOT, "benchmarks", "e2e", "golden",
                               "evaluate.json")


class TestHeadlineNumbers:
    def test_41_true_problems(self, full_report):
        assert len(full_report.unique_true_problems()) == 41

    def test_16_false_positives(self, full_report):
        assert len(full_report.unique_false_positives()) == 16

    def test_57_reported(self, full_report):
        assert len(full_report.unique_verdicts()) == 57

    def test_table3_section_split(self, full_report):
        sections = {}
        for verdict in full_report.unique_true_problems():
            section = catalog.section_for_param(verdict.param)
            sections[section] = sections.get(section, 0) + 1
        assert sections == {"Flink": 3, "Hadoop Common": 2, "HBase": 2,
                            "HDFS": 21, "MapReduce": 8, "Yarn": 5}

    def test_exact_table3_parameters(self, full_report):
        found = {v.param for v in full_report.unique_true_problems()}
        expected = set()
        for app in catalog.APP_NAMES:
            expected |= set(catalog.spec_for(app).expected_unsafe)
        assert found == expected

    def test_seven_user_visible_inconsistency_true_problems(self, full_report):
        """§7.1: of the 16 parameters exposing config/behaviour
        inconsistencies, 'this principle separates them into 7 true
        problems and 9 false positives' — the 7 observable through
        public APIs."""
        inconsistency = [v for v in full_report.unique_true_problems()
                         if v.category == "user-visible inconsistency"]
        assert len(inconsistency) == 7

    def test_category_families_present(self, full_report):
        """§7.1's discussion groups: wire formats, heartbeats, max
        limits, task counts, and the 'others' grab bag all appear."""
        categories = {v.category for v in full_report.unique_true_problems()}
        assert categories == {
            "compression/encryption/authentication/transport",
            "heartbeat-related", "max-limit-related", "counts of tasks",
            "user-visible inconsistency", "others"}


class TestFalsePositiveCauses:
    def test_every_fp_cause_from_the_paper_appears(self, full_report):
        reasons = {v.fp_reason for v in full_report.unique_false_positives()}
        assert reasons == {FP_UNREALISTIC, FP_SHARED_IPC,
                           FP_STRICT_ASSERTION, FP_PRIVATE_ONLY}

    def test_four_shared_ipc_false_positives(self, full_report):
        ipc = [v for v in full_report.unique_false_positives()
               if v.fp_reason == FP_SHARED_IPC]
        assert len(ipc) == 4

    def test_nine_private_only_false_positives(self, full_report):
        """§7.1: of the 16 inconsistency-flavoured parameters, 9 are only
        observable through private functions and are false positives."""
        private = [v for v in full_report.unique_false_positives()
                   if v.fp_reason == FP_PRIVATE_ONLY]
        assert len(private) == 9

    def test_no_expected_fp_classified_as_true(self, full_report):
        expected_fp = set()
        for app in catalog.APP_NAMES:
            expected_fp |= set(catalog.spec_for(app).expected_false_positives)
        found_true = {v.param for v in full_report.unique_true_problems()}
        assert not (expected_fp & found_true)


class TestPerAppCampaigns:
    @pytest.mark.parametrize("app", catalog.APP_NAMES)
    def test_app_finds_its_expected_unsafe_params(self, full_report, app):
        report = full_report.app(app)
        found = {v.param for v in report.true_problems}
        assert set(catalog.spec_for(app).expected_unsafe) <= found

    @pytest.mark.parametrize("app", catalog.APP_NAMES)
    def test_reduction_per_app(self, full_report, app):
        counts = full_report.app(app).stage_counts
        assert counts.original > counts.after_prerun
        assert counts.after_prerun >= counts.after_uncertainty
        assert counts.after_uncertainty > counts.after_pooling
        # the paper reports 2-4 orders of magnitude end to end
        assert counts.reduction_orders() >= 1.0

    def test_hdfs_uncertainty_exclusions_exist(self, full_report):
        counts = full_report.app("hdfs").stage_counts
        assert counts.after_uncertainty < counts.after_prerun

    def test_blacklist_catches_wide_failures(self, full_report):
        assert "hadoop.rpc.protection" in full_report.app("hdfs").blacklisted


class TestHypothesisTestingEffects:
    def test_flaky_instances_filtered(self, full_report):
        filtered = sum(a.hypothesis_stats.filtered_as_flaky
                       for a in full_report.apps)
        suspicious = sum(a.hypothesis_stats.suspicious_first_trial
                         for a in full_report.apps)
        assert filtered > 0
        assert suspicious > filtered

    def test_no_flaky_test_yields_a_true_problem(self, full_report):
        for app_report in full_report.apps:
            for verdict in app_report.true_problems:
                results = app_report.results_by_param.get(verdict.param, [])
                realistic = [r for r in results
                             if r.instance.test.realistic
                             and not r.instance.test.strict_assertion
                             and r.instance.test.observability == "public"]
                assert all(r.tally.significant() for r in realistic
                           if r.tally is not None)


class TestMachineTimeAndRendering:
    def test_machine_time_reported(self, full_report):
        assert full_report.total_machine_hours > 0

    def test_render_unsafe_params_lists_41(self, full_report):
        text = render_unsafe_params(full_report)
        assert "dfs.heartbeat.interval" in text
        assert "akka.ssl.enabled" in text

    def test_render_summary(self, full_report):
        text = render_summary(full_report)
        assert "true problems            : 41" in text
        assert "false positives          : 16" in text

    def test_render_stage_counts_has_all_apps(self, full_report):
        text = render_stage_counts(full_report.apps)
        for app in catalog.APP_NAMES:
            assert app in text


# ---------------------------------------------------------------------------
# application lanes: the same reports as the in-process loop
# ---------------------------------------------------------------------------
#: a slice of the Table 3 parameters, so each mode below costs a third
#: of a full evaluation: every app still pre-runs, pools, bisects and
#: confirms.  The default settings are compared in full.
FEW_PARAMS = frozenset(sorted(
    param for app in catalog.APP_NAMES
    for param in catalog.spec_for(app).expected_unsafe)[::4])


def _records(reports):
    """Each app's ``app_report_to_dict`` as canonical JSON."""
    records = []
    for report in reports:
        record = app_report_to_dict(report)
        if record["store"] is not None:
            # Segments scanned at open count every app's segments in a
            # shared store, so they depend on which apps opened it first.
            record["store"] = dict(record["store"], segments=None)
        records.append(json.dumps(record, sort_keys=True))
    return records


def _in_lanes(config):
    """Two lanes; fails if any campaign ran in this process instead (a
    lane that died, say on an unpicklable report, would be re-run here
    and hide behind an identical result)."""
    parent, real_run = os.getpid(), Campaign.run

    def run(self):
        assert os.getpid() != parent, "%s ran in-process" % self.app
        return real_run(self)

    Campaign.run = run
    try:
        return lanes.run_in_lanes(application_campaigns(config), 2)
    finally:
        Campaign.run = real_run


def _in_process(config):
    return [campaign.run() for campaign in application_campaigns(config)]


@pytest.fixture(scope="module")
def in_process_records():
    return _records(_in_process(CampaignConfig()))


def _findings_digest(report):
    blob = json.dumps(findings_projection(app_report_to_dict(report)),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_lanes_match_in_process_and_golden(in_process_records):
    reports = _in_lanes(CampaignConfig())
    assert [report.app for report in reports] == list(catalog.APP_NAMES)
    assert _records(reports) == in_process_records
    with open(EVALUATE_GOLDEN) as handle:
        golden = json.load(handle)
    assert {report.app: _findings_digest(report) for report in reports} \
        == golden


@pytest.mark.parametrize("mode", ["checkpoint", "observe", "audit", "chaos"])
def test_lanes_match_in_process(tmp_path, mode):
    def config(side):
        settings = {
            "checkpoint": {"checkpoint_path": str(tmp_path / side)},
            "observe": {"observe": True},
            "audit": {"audit": True},
            "chaos": {"fault_plan": FaultPlan.moderate(7)},
        }[mode]
        return CampaignConfig(only_params=FEW_PARAMS, **settings)

    laned, serial = _in_lanes(config("lanes")), _in_process(config("serial"))
    assert _records(laned) == _records(serial)
    if mode == "observe":
        assert [r.observation.metrics.render_prometheus() for r in laned] \
            == [r.observation.metrics.render_prometheus() for r in serial]
    if mode == "chaos":
        assert any(report.fault_counts for report in laned)


def test_lanes_match_in_process_with_store_then_incremental(tmp_path):
    def config(side, **extra):
        return CampaignConfig(store_path=str(tmp_path / side),
                              only_params=FEW_PARAMS, **extra)

    assert _records(_in_lanes(config("lanes"))) \
        == _records(_in_process(config("serial")))
    laned = _in_lanes(config("lanes", incremental=True))
    assert _records(laned) == _records(_in_process(config("serial",
                                                          incremental=True)))
    plans = [report.plan.to_dict() for report in laned]
    assert all(plan["reused"] == len(plan["profiles"]) for plan in plans)


FALLBACKS = {
    "workers": {"workers": 2},
    "trace": {"trace": TraceLog()},
    "progress-stream": {"progress_stream": io.StringIO()},
    "progress-hook": {"progress_hook": lambda snapshot: None},
    "cancel-event": {"cancel_event": threading.Event()},
    "distributed": {"distributed": "127.0.0.1:0"},
    "disk-faults": {"disk_fault_plan": DiskFaultPlan(seed=1,
                                                     torn_write_prob=0.5)},
    "no-fork": {},
    "one-cpu": {},
    "other-thread": {},
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_each_fallback_condition_runs_in_process(monkeypatch, name):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    # only_params=() leaves nothing but the pre-run: cheap
    config = CampaignConfig(only_params=frozenset(), **FALLBACKS[name])
    assert lanes.lane_count(CampaignConfig(), 6) == 4
    assert lanes.lane_count(CampaignConfig(disk_fault_plan=DiskFaultPlan()),
                            6) == 4  # an all-zero plan is inactive
    if name == "no-fork":
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
    elif name == "one-cpu":
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    elif name == "other-thread":
        monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert lanes.lane_count(config, 6) == 1
    if name == "distributed":
        return  # running it would start a coordinator and wait for a fleet

    def no_lanes(campaigns, count):
        raise AssertionError("lanes used despite a fallback condition")

    monkeypatch.setattr(lanes, "run_in_lanes", no_lanes)
    report = run_full_campaign(config)
    assert [app.app for app in report.apps] == list(catalog.APP_NAMES)


def test_killed_lane_is_rerun_in_process(monkeypatch, in_process_records):
    parent, real_run = os.getpid(), Campaign.run

    def run(self):
        if self.app == "yarn" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_run(self)

    monkeypatch.setattr(Campaign, "run", run)
    reports = lanes.run_in_lanes(application_campaigns(CampaignConfig()), 2)
    assert _records(reports) == in_process_records


def test_lane_error_is_reraised_for_first_failing_app(monkeypatch):
    def run(self):
        if self.app == "hbase":
            time.sleep(0.5)  # so that yarn's error arrives first
        if self.app in ("hbase", "yarn"):
            raise CheckpointError("journal refused for %s" % self.app)
        return self.app

    monkeypatch.setattr(Campaign, "run", run)
    # hbase is earlier in catalog order, so its error is the one the
    # serial loop would have raised
    with pytest.raises(CheckpointError, match="refused for hbase$") as info:
        _in_lanes(CampaignConfig())
    assert "Traceback" in str(info.value.__cause__)


def test_cli_refusal_from_a_lane_keeps_exit_code(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    journal = tmp_path / "ck.jsonl"
    journal.write_text(json.dumps({"kind": "header", "app": "flink",
                                   "alpha": 0.5}) + "\n")
    assert cli.main(["evaluate", "--checkpoint", str(journal),
                     "--param", "akka.ssl.enabled"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint %s was written by a campaign "
                          "with different settings" % journal)


def _processes():
    """(pid, parent pid, command line) of every live, non-zombie process."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open("/proc/%s/cmdline" % entry, "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
        except OSError:
            continue
        if fields[0] != "Z":
            yield int(entry), int(fields[1]), cmdline


@pytest.mark.skipif(not os.path.isdir("/proc") or not parallel.fork_available(),
                    reason="needs fork and /proc")
def test_lanes_exit_promptly_when_their_parent_dies():
    campaigns = application_campaigns(CampaignConfig())
    parent = os.fork()
    if parent == 0:  # pragma: no cover - the lanes' parent
        try:
            Campaign.run = lambda self: time.sleep(120)  # lanes stay busy
            lanes.run_in_lanes(campaigns, 2)
        finally:
            os._exit(1)
    try:
        deadline = time.monotonic() + 30
        lane_pids = set()
        while len(lane_pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            lane_pids = {pid for pid, ppid, _ in _processes()
                         if ppid == parent}
        assert len(lane_pids) == 2
    finally:
        os.kill(parent, signal.SIGKILL)
        os.waitpid(parent, 0)

    def alive():
        return lane_pids & {pid for pid, _, _ in _processes()}

    deadline = time.monotonic() + 3
    while alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not alive()


@pytest.mark.skipif(not os.path.isdir("/proc") or not parallel.fork_available(),
                    reason="needs fork and /proc")
def test_sigkilled_evaluate_leaves_no_lanes_and_resumes_identically(
        tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")

    def evaluate(journal, out):
        argv = [sys.executable, "-m", "repro", "evaluate",
                "--checkpoint", str(journal), "--json", str(out)]
        for param in sorted(FEW_PARAMS):
            argv += ["--param", param]
        return argv

    journal = tmp_path / "killed.jsonl"
    child = subprocess.Popen(evaluate(journal, tmp_path / "unused.json"),
                             env=env, stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and child.poll() is None:
        if journal.exists() and \
                journal.read_text(errors="replace").count('"test-done"') >= 8:
            break
        time.sleep(0.05)
    assert child.poll() is None, "evaluate finished before it was killed"
    child.send_signal(signal.SIGKILL)
    child.wait(timeout=30)

    def leftovers():  # lanes share the killed parent's command line
        return [pid for pid, _, cmdline in _processes()
                if str(journal) in cmdline]

    deadline = time.monotonic() + 10
    while leftovers() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert leftovers() == []

    subprocess.run(evaluate(journal, tmp_path / "resumed.json"), env=env,
                   stdout=subprocess.DEVNULL, check=True, timeout=300)
    subprocess.run(evaluate(tmp_path / "whole.jsonl", tmp_path / "whole.json"),
                   env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=300)
    assert (tmp_path / "resumed.json").read_bytes() \
        == (tmp_path / "whole.json").read_bytes()
