"""End-to-end tests for `repro serve` (repro.core.service + jobqueue).

The contract under test, stated in docs/SERVICE.md:

* a campaign submitted over HTTP produces report bytes identical to the
  CLI's --json/--markdown output for the same spec;
* an identical resubmission against the shared store/journal is served
  strictly cheaper (no fresh cache misses; store hits when the journal
  key differs);
* mutating endpoints reject requests without the HMAC bearer token;
* DELETE cancels between profiles and the journal keeps finished work,
  so a resubmission resumes instead of restarting;
* a SIGKILL'd daemon restarted on the same --serve-state resumes
  in-flight campaigns and converges to the same report bytes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.jobqueue import (JobQueue, JobSpecError, canonical_spec,
                                 spec_digest)
from repro.core.report import findings_projection
from repro.core.service import (CampaignService, _ServiceServer,
                                parse_listen, service_token)

DEADLINE_S = 120.0


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
class LiveDaemon:
    """In-process daemon on an ephemeral port (one per test)."""

    def __init__(self, tmp_path, secret=None, max_active=1, store=True):
        self.state_dir = str(tmp_path / "state")
        self.store_dir = str(tmp_path / "store") if store else None
        self.queue = JobQueue(self.state_dir, store_path=self.store_dir,
                              max_active=max_active)
        self.queue.start()
        self.server = _ServiceServer(
            ("127.0.0.1", 0), CampaignService(self.queue, secret=secret))
        self.base = "http://127.0.0.1:%d" % self.server.server_address[1]
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True)
        self._thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.queue.stop()

    # -- tiny HTTP client ---------------------------------------------
    def request(self, method, path, body=None, token=None):
        data = None if body is None else json.dumps(body).encode()
        headers = {}
        if token is not None:
            headers["Authorization"] = "Bearer " + token
        req = urllib.request.Request(self.base + path, data=data,
                                     method=method, headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def get_json(self, path):
        status, raw = self.request("GET", path)
        assert status == 200, (path, status, raw)
        return json.loads(raw)

    def submit(self, spec, token=None):
        status, raw = self.request("POST", "/v1/campaigns", body=spec,
                                   token=token)
        assert status == 202, (status, raw)
        return json.loads(raw)

    def wait_done(self, job_id, states=("done",)):
        deadline = time.time() + DEADLINE_S
        while time.time() < deadline:
            record = self.get_json("/v1/campaigns/%s" % job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                assert record["state"] in states, record
                return record
            time.sleep(0.05)
        raise AssertionError("job %s never finished" % job_id)


@pytest.fixture
def daemon(tmp_path):
    live = LiveDaemon(tmp_path)
    yield live
    live.close()


def cli_reference(tmp_path, app, extra=()):
    """Run the same campaign through the CLI; return (json, md) bytes."""
    json_path = str(tmp_path / ("ref-%s.json" % app))
    md_path = str(tmp_path / ("ref-%s.md" % app))
    assert main(["campaign", app, "--json", json_path,
                 "--markdown", md_path, *extra]) == 0
    with open(json_path, "rb") as handle:
        ref_json = handle.read()
    with open(md_path, "rb") as handle:
        ref_md = handle.read()
    return ref_json, ref_md


# ---------------------------------------------------------------------------
# spec validation (no daemon needed)
# ---------------------------------------------------------------------------
def test_canonical_spec_fills_defaults_and_sorts():
    spec = canonical_spec({"app": "flink", "params": ["b", "a", "b"]})
    assert spec["workers"] == 1
    assert spec["store"] is True
    assert spec["params"] == ["a", "b"]
    # digest is stable under key order and default elision
    assert spec_digest(spec) == spec_digest(
        canonical_spec({"params": ["a", "b"], "app": "flink"}))


@pytest.mark.parametrize("bad", [
    {"app": "nosuchapp"},
    {"app": "flink", "bogus_knob": 1},
    {"app": "flink", "workers": "two"},
    {"app": "flink", "faults": {"gamma_rays": 0.5}},
    # the fault table's disk and net kinds are CLI-only
    {"app": "flink", "faults": {"disk_enospc": 0.1}},
    {"app": "flink", "faults": {"net_drop": 0.1}},
    {"app": "flink", "parallel_backend": "quantum"},
    [],
    # retired with the thread and bare process backends
    {"app": "flink", "parallel_backend": "process"},
    {"app": "flink", "supervise": True},
    # retired with the catalog dispatch order
    {"app": "flink", "schedule": "lpt"},
])
def test_canonical_spec_rejects(bad):
    with pytest.raises(JobSpecError):
        canonical_spec(bad)


def test_jobs_persisted_with_retired_keys_still_load(tmp_path):
    state = tmp_path / "state"
    root = state / "jobs" / "c000007"
    root.mkdir(parents=True)
    (root / "spec.json").write_text(json.dumps(dict(
        canonical_spec({"app": "flink"}), parallel_backend="thread",
        supervise=True, schedule="catalog")))
    (root / "status.json").write_text(json.dumps({"state": "done"}))
    queue = JobQueue(str(state))
    queue.start()
    try:
        job = queue.jobs["c000007"]  # not skipped as a half-created dir
        assert job.state == "done"
        assert job.spec == canonical_spec({"app": "flink"})
    finally:
        queue.stop()


def test_parse_listen():
    assert parse_listen("8080") == ("127.0.0.1", 8080)
    assert parse_listen("0.0.0.0:9000") == ("0.0.0.0", 9000)


# ---------------------------------------------------------------------------
# submit / poll / report byte-identity
# ---------------------------------------------------------------------------
def test_submit_poll_report_bytes_identical_to_cli(daemon, tmp_path):
    job = daemon.submit({"app": "flink", "store": False})
    record = daemon.wait_done(job["id"])
    assert record["spec"]["app"] == "flink"
    assert record["report_ready"] is True
    assert record["executions"] > 0
    assert record["cost_centers"], "done job must expose cost centers"
    assert record["distribution"] is not None

    status, served_json = daemon.request(
        "GET", "/v1/campaigns/%s/report" % job["id"])
    assert status == 200
    status, served_md = daemon.request(
        "GET", "/v1/campaigns/%s/report?format=markdown" % job["id"])
    assert status == 200
    ref_json, ref_md = cli_reference(tmp_path, "flink")
    assert served_json == ref_json
    assert served_md == ref_md


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks")
def test_pooled_job_finds_what_the_serial_cli_finds(daemon, tmp_path):
    job = daemon.submit({"app": "flink", "store": False, "workers": 2,
                         "blacklist_threshold": 999})
    daemon.wait_done(job["id"])
    served = daemon.get_json("/v1/campaigns/%s/report" % job["id"])
    assert served["supervision"]["enabled"]  # forked from the job thread
    ref_json, _ = cli_reference(tmp_path, "flink",
                                extra=("--blacklist-threshold", "999"))
    assert (findings_projection(served)
            == findings_projection(json.loads(ref_json)))


def test_job_leaves_only_its_journal(daemon):
    record = daemon.wait_done(daemon.submit({"app": "hadooptools"})["id"])
    journal = daemon.queue.checkpoint_path_for(record["spec_digest"])
    assert os.listdir(os.path.dirname(journal)) \
        == [os.path.basename(journal)]


def test_report_404_until_done_and_listing(daemon):
    status, raw = daemon.request("GET", "/v1/campaigns/c999999/report")
    assert status == 404
    job = daemon.submit({"app": "flink", "store": False})
    listing = daemon.get_json("/v1/campaigns")
    assert [j["id"] for j in listing["campaigns"]] == [job["id"]]
    daemon.wait_done(job["id"])
    health = daemon.get_json("/v1/healthz")
    assert health["ok"] is True and health["jobs"]["done"] == 1


def test_events_stream_is_ndjson_and_terminal(daemon):
    job = daemon.submit({"app": "flink", "store": False})
    daemon.wait_done(job["id"])
    status, raw = daemon.request("GET",
                                 "/v1/campaigns/%s/events" % job["id"])
    assert status == 200
    events = [json.loads(line) for line in raw.decode().splitlines()]
    assert events[0] == {"event": "state", "seq": 1, "state": "queued"}
    kinds = [e["event"] for e in events]
    assert "progress" in kinds
    final = [e for e in events if e["event"] == "state"][-1]
    assert final["state"] == "done"
    progress = [e for e in events if e["event"] == "progress"]
    assert progress[-1]["executions"] > 0
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))


def test_events_stream_sees_a_transition_made_after_its_read(
        tmp_path, monkeypatch):
    """The job turns terminal between the stream's read of its events
    and its wait for more: the stream must end at once, not sleep out
    its wait for a wakeup that has already happened."""
    queue = JobQueue(str(tmp_path / "state"))
    queue.start()
    queue.stop()  # no scheduler: the job stays queued until cancelled
    job = queue.submit({"app": "flink", "store": False})
    read = JobQueue.events_since

    def cancel_after_read(self, job_id, index):
        events, terminal = read(self, job_id, index)
        if not terminal:
            self.cancel(job_id)
        return events, terminal

    monkeypatch.setattr(JobQueue, "events_since", cancel_after_read)
    server = _ServiceServer(("127.0.0.1", 0), CampaignService(queue))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        start = time.monotonic()
        with urllib.request.urlopen(
                "http://127.0.0.1:%d/v1/campaigns/%s/events"
                % (server.server_address[1], job.id), timeout=30) as resp:
            raw = resp.read()
        elapsed = time.monotonic() - start
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    states = [json.loads(line).get("state")
              for line in raw.decode().splitlines()]
    assert states == ["queued", "cancelled"]
    assert elapsed < 0.25, elapsed


# ---------------------------------------------------------------------------
# auth
# ---------------------------------------------------------------------------
def test_mutating_endpoints_require_bearer_token(tmp_path):
    live = LiveDaemon(tmp_path, secret="s3cret")
    try:
        status, raw = live.request("POST", "/v1/campaigns",
                                   body={"app": "flink"})
        assert status == 401, raw
        status, _ = live.request("POST", "/v1/campaigns",
                                 body={"app": "flink"}, token="f" * 64)
        assert status == 401
        status, _ = live.request("DELETE", "/v1/campaigns/c000001")
        assert status == 401
        # reads stay open
        assert live.get_json("/v1/healthz")["auth"] is True
        # the real token is accepted
        job = live.submit({"app": "flink", "store": False},
                          token=service_token("s3cret"))
        status, _ = live.request("DELETE", "/v1/campaigns/%s" % job["id"],
                                 token=service_token("s3cret"))
        assert status == 202
    finally:
        live.close()


def test_service_token_matches_golden():
    golden_path = os.path.join(os.path.dirname(__file__), "golden",
                               "serve_token.json")
    with open(golden_path) as handle:
        golden = json.load(handle)
    for secret, token in golden.items():
        assert service_token(secret) == token


# ---------------------------------------------------------------------------
# shared store: warm resubmission strictly cheaper
# ---------------------------------------------------------------------------
def test_warm_resubmission_strictly_cheaper(daemon):
    cold = daemon.wait_done(daemon.submit({"app": "mapreduce"})["id"])
    _, raw = daemon.request("GET", "/v1/campaigns/%s/report" % cold["id"])
    cold_report = json.loads(raw)
    assert cold_report["store"]["misses"] > 0

    # identical spec: the digest-keyed journal restores every profile —
    # the resubmission performs no fresh executions at all (no misses,
    # no appends) and findings are byte-identical.
    warm = daemon.wait_done(daemon.submit({"app": "mapreduce"})["id"])
    _, raw = daemon.request("GET", "/v1/campaigns/%s/report" % warm["id"])
    warm_report = json.loads(raw)
    assert warm_report["store"]["misses"] == 0
    assert warm_report["store"]["appends"] == 0
    assert warm_report["store"]["entries_loaded"] > 0
    assert (findings_projection(warm_report)
            == findings_projection(cold_report))

    # a spec with a different digest but identical executions (the store
    # already implies exec-cache semantics) gets a fresh journal: here the
    # shared store itself serves the work — strictly fewer executions,
    # hits > 0.
    other = daemon.wait_done(
        daemon.submit({"app": "mapreduce", "exec_cache": True})["id"])
    _, raw = daemon.request("GET", "/v1/campaigns/%s/report" % other["id"])
    other_report = json.loads(raw)
    assert other_report["store"]["hits"] > 0
    assert other_report["executions"] < cold_report["executions"]
    assert (findings_projection(other_report)
            == findings_projection(cold_report))


# ---------------------------------------------------------------------------
# cancel, then resume by resubmitting the same spec
# ---------------------------------------------------------------------------
def test_cancel_then_resubmit_resumes(daemon, tmp_path):
    job = daemon.submit({"app": "mapreduce", "store": False})
    deadline = time.time() + DEADLINE_S
    while time.time() < deadline:
        record = daemon.get_json("/v1/campaigns/%s" % job["id"])
        if (record["progress"] or {}).get("done", 0) >= 1:
            break
        assert record["state"] not in ("done", "failed", "cancelled"), record
        time.sleep(0.02)
    status, raw = daemon.request("DELETE", "/v1/campaigns/%s" % job["id"])
    assert status == 202
    record = daemon.wait_done(job["id"], states=("cancelled",))
    assert record["cancel_requested"] is True
    # the journal kept the committed profiles
    digest = record["spec_digest"]
    journal = daemon.queue.checkpoint_path_for(digest)
    assert os.path.exists(journal)

    resumed = daemon.wait_done(
        daemon.submit({"app": "mapreduce", "store": False})["id"])
    assert resumed["spec_digest"] == digest
    _, served_json = daemon.request(
        "GET", "/v1/campaigns/%s/report" % resumed["id"])
    _, served_md = daemon.request(
        "GET", "/v1/campaigns/%s/report?format=markdown" % resumed["id"])
    ref_json, ref_md = cli_reference(tmp_path, "mapreduce")
    assert served_json == ref_json
    assert served_md == ref_md


def test_cancel_queued_job_is_immediate(tmp_path):
    live = LiveDaemon(tmp_path, max_active=1)
    try:
        first = live.submit({"app": "mapreduce", "store": False})
        second = live.submit({"app": "flink", "store": False})
        status, raw = live.request("DELETE",
                                   "/v1/campaigns/%s" % second["id"])
        assert status == 202
        assert json.loads(raw)["state"] == "cancelled"
        live.wait_done(first["id"], states=("done", "cancelled"))
    finally:
        live.close()


# ---------------------------------------------------------------------------
# registry resources
# ---------------------------------------------------------------------------
def test_apps_endpoint_lists_the_catalog(daemon, corpus):
    from repro.apps import catalog
    rows = daemon.get_json("/v1/apps")["apps"]
    assert [row["app"] for row in rows] == list(catalog.APP_NAMES)
    for row in rows:
        registry = catalog.spec_for(row["app"]).registry
        assert row["unit_tests"] == len(corpus.for_app(row["app"])) > 0
        assert row["parameters"] == len(registry) > 0
        status, raw = daemon.request("GET", row["registry"])
        assert status == 200, (row["registry"], status)
        assert len(json.loads(raw)["params"]) == row["parameters"]


def test_registry_endpoint(daemon):
    record = daemon.get_json("/v1/registry/flink")
    assert record["app"] == "flink"
    assert record["params"], "registry must not be empty"
    sample = record["params"][0]
    assert set(sample) == {"name", "kind", "default", "section", "tags",
                           "unsafe_table3", "description"}
    assert "audit" not in record
    status, _ = daemon.request("GET", "/v1/registry/nosuchapp")
    assert status == 404


def test_registry_audit_verdicts(daemon):
    record = daemon.get_json("/v1/registry/flink?audit=1")
    audit = record["audit"]
    names = {p["name"] for p in record["params"]}
    assert audit["verdicts"] and set(audit["verdicts"]) <= names
    # second request is served from the cache (same object contents)
    again = daemon.get_json("/v1/registry/flink?audit=1")
    assert again["audit"] == audit


# ---------------------------------------------------------------------------
# SIGKILL the daemon mid-campaign; restart resumes to identical bytes
# ---------------------------------------------------------------------------
def _spawn_daemon(state_dir):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "127.0.0.1:0",
         "--serve-state", state_dir],
        env=env, stderr=subprocess.PIPE, text=True)
    line = proc.stderr.readline()
    assert "listening on http://" in line, line
    base = "http://" + line.split("http://", 1)[1].split(" ", 1)[0].strip()
    return proc, base


def _http(base, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, resp.read()


@pytest.mark.chaos
def test_sigkill_daemon_midcampaign_resumes_to_identical_bytes(tmp_path):
    state_dir = str(tmp_path / "state")
    proc, base = _spawn_daemon(state_dir)
    try:
        _, raw = _http(base, "POST", "/v1/campaigns",
                       {"app": "mapreduce", "store": False})
        job_id = json.loads(raw)["id"]
        # let it commit at least one profile, then SIGKILL the daemon
        deadline = time.time() + DEADLINE_S
        while time.time() < deadline:
            _, raw = _http(base, "GET", "/v1/campaigns/%s" % job_id)
            record = json.loads(raw)
            if (record["progress"] or {}).get("done", 0) >= 1:
                break
            assert record["state"] != "done", \
                "campaign finished before the kill could land"
            time.sleep(0.02)
        else:
            raise AssertionError("no progress before deadline")
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stderr.close()

    proc, base = _spawn_daemon(state_dir)
    try:
        deadline = time.time() + DEADLINE_S
        while time.time() < deadline:
            _, raw = _http(base, "GET", "/v1/campaigns/%s" % job_id)
            record = json.loads(raw)
            if record["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert record["state"] == "done", record
        _, served_json = _http(base, "GET",
                               "/v1/campaigns/%s/report" % job_id)
        _, served_md = _http(
            base, "GET", "/v1/campaigns/%s/report?format=markdown" % job_id)
        _, raw = _http(base, "GET", "/v1/campaigns/%s/events" % job_id)
        kinds = [json.loads(line).get("reason")
                 for line in raw.decode().splitlines()]
        assert "requeued-on-restart" in kinds
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        proc.stderr.close()

    ref_json, ref_md = cli_reference(tmp_path, "mapreduce")
    assert served_json == ref_json
    assert served_md == ref_md
