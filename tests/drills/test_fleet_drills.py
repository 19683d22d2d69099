"""Distributed-fleet drills: a campaign whose fleet never joins, and a
sampled campaign on one real ``repro worker`` process.

Run the drills with ``python -m pytest tests/drills -m drill``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys

import pytest

import repro
from repro.core.report import findings_projection

pytestmark = pytest.mark.drill

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep
                       + os.environ.get("PYTHONPATH", ""))


def test_observed_campaign_degrades_when_no_worker_joins():
    # No worker ever joins: the observed campaign must degrade to the
    # local pool, finish, and record exactly one dist-degraded event.
    subprocess.run([sys.executable, "-m", "repro", "campaign", "hadooptools",
                    "--distributed", "127.0.0.1:0", "--dist-join-grace",
                    "0.5", "--trace-spans", "degraded-spans.jsonl"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run([sys.executable, "-m", "repro", "validate-obs",
                    "--spans", "degraded-spans.jsonl"], check=True)
    with open("degraded-spans.jsonl") as handle:
        spans = [json.loads(line) for line in handle]
    degraded = [s for s in spans if s["kind"] == "coordinator"
                and s["name"] == "dist-degraded"]
    assert len(degraded) == 1, degraded
    print("degraded span trace OK: %s" % degraded[0]["attrs"])


def test_sampled_campaign_on_one_real_worker_equals_the_local_run():
    # A real `repro worker` process must run under every setting the
    # coordinator journals: a sampled campaign reports the findings and
    # executions a local one does.
    argv = ["campaign", "mapreduce", "--sample", "pairwise",
            "--blacklist-threshold", "999"]
    subprocess.run([sys.executable, "-m", "repro", *argv,
                    "--json", "local.json"],
                   check=True, stdout=subprocess.DEVNULL)
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = "127.0.0.1:%d" % probe.getsockname()[1]
    probe.close()
    coordinator = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv, "--json", "dist.json",
         "--distributed", address], stdout=subprocess.DEVNULL)
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", address])
    try:
        assert coordinator.wait(timeout=600) == 0
        assert worker.wait(timeout=60) == 0
    finally:
        for process in (coordinator, worker):
            if process.poll() is None:
                process.kill()
                process.wait()
    with open("local.json") as handle:
        local = json.load(handle)
    with open("dist.json") as handle:
        dist = json.load(handle)
    assert dist["distribution"]["remote_profiles"] > 0, \
        dist["distribution"]
    assert findings_projection(dist) == findings_projection(local), \
        "distributed findings diverged from local"
    assert dist["executions"] == local["executions"], \
        (dist["executions"], local["executions"])
    print("distributed == local: %d executions, %d remote profiles"
          % (dist["executions"], dist["distribution"]["remote_profiles"]))
