"""Distributed-fleet smoke bench: coordinator + two real worker
processes, one SIGKILLed mid-campaign.

This is the robustness headline measured end to end over real TCP:

* two ``repro worker`` subprocesses join the coordinator, fetch leases,
  and ship outcomes back over the length-prefixed frame protocol;
* worker 0 is SIGKILLed at the first lease it is granted after a
  profile has committed, while it is that lease's only holder, so the
  lease must be detected (lost link or heartbeat liveness), redelivered,
  and finished by the survivor;
* the report must come out **byte-identical** to the serial baseline —
  where a profile ran, how often it was redelivered, and which worker
  won a stolen copy can never change findings, because outcomes are
  folded in catalog order keyed by test.

Wall-clock numbers are archived (``BENCH_distributed.json``) for the
per-commit trajectory; the hard gates are report equivalence and the
fleet actually exercising the failure path (a worker joined, died
holding a lease that was redelivered, and the campaign still finished
remotely).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time

import repro
from _shared import write_bench_artifact
from repro.apps import catalog
from repro.core import distrib
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import app_report_to_dict, render_table

APP = "mapreduce"
FLEET_SIZE = 2

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _free_port():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _fresh_campaign(**config_kwargs):
    spec = catalog.spec_for(APP)
    # blacklist_threshold high: decoupled profiles, the precondition for
    # profile-level distribution (mirrors bench_supervision.py)
    return Campaign(APP, spec.registry,
                    dependency_rules=spec.dependency_rules,
                    config=CampaignConfig(blacklist_threshold=999,
                                          **config_kwargs))


def _findings_view(report):
    """The report minus run-scoped bookkeeping: what distribution must
    never change."""
    record = app_report_to_dict(report)
    for volatile in ("supervision", "distribution"):
        record.pop(volatile, None)
    return record


def _run_fleet():
    port = _free_port()
    address = "127.0.0.1:%d" % port
    campaign = _fresh_campaign(distributed=address, dist_join_grace_s=60.0)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", address, "--name", "w%d" % i, "--workers", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for i in range(FLEET_SIZE)]

    real_fetch = distrib.Coordinator._fetch_locked
    killed = []

    def fetch_then_kill(coordinator, worker):
        reply = real_fetch(coordinator, worker)
        if (worker.name == "w0" and not killed
                and reply["kind"] == "lease"
                and coordinator.stats.remote_profiles >= 1
                and len(coordinator.book.leases[
                    reply["tasks"][0]["task"]].holders) == 1):
            killed.append(reply["tasks"][0]["task"])
            workers[0].send_signal(signal.SIGKILL)
        return reply

    distrib.Coordinator._fetch_locked = fetch_then_kill
    started = time.time()
    try:
        report = campaign.run()
    finally:
        distrib.Coordinator._fetch_locked = real_fetch
        for proc in workers:
            proc.kill()
            proc.wait(timeout=30)
    return report, time.time() - started


def measure():
    serial_campaign = _fresh_campaign()
    started = time.time()
    serial = serial_campaign.run()
    serial_wall = time.time() - started

    fleet, fleet_wall = _run_fleet()
    stats = fleet.distribution
    return {
        "app": APP,
        "fleet_size": FLEET_SIZE,
        "wall_serial_s": serial_wall,
        "wall_fleet_s": fleet_wall,
        "workers_joined": stats.workers_joined,
        "workers_lost": stats.workers_lost,
        "leases_granted": stats.leases_granted,
        "redeliveries": stats.redeliveries,
        "duplicates_suppressed": stats.duplicates_suppressed,
        "remote_profiles": stats.remote_profiles,
        "local_profiles": stats.local_profiles,
        "degraded_to_local": stats.degraded_to_local,
        "findings_identical":
            _findings_view(serial) == _findings_view(fleet),
    }


def test_distributed_fleet_survives_worker_kill(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print("\nDistributed fleet (%s campaign, %d workers, one SIGKILL):"
          % (rows["app"], rows["fleet_size"]))
    print(render_table(
        ["metric", "value"],
        [["wall serial", "%.2fs" % rows["wall_serial_s"]],
         ["wall fleet", "%.2fs" % rows["wall_fleet_s"]],
         ["workers joined / lost", "%d / %d"
          % (rows["workers_joined"], rows["workers_lost"])],
         ["leases granted", rows["leases_granted"]],
         ["redeliveries", rows["redeliveries"]],
         ["remote / local profiles", "%d / %d"
          % (rows["remote_profiles"], rows["local_profiles"])]]))

    write_bench_artifact("BENCH_distributed.json", rows)

    # distribution may change where profiles run, never what they find;
    # the lease worker 0 died holding was delivered again
    assert rows["findings_identical"]
    assert rows["redeliveries"] >= 1
    # the failure path must actually have been exercised
    assert rows["workers_joined"] >= 2
    assert rows["workers_lost"] >= 1
    # the fleet (not the degradation ladder) finished the campaign
    assert rows["remote_profiles"] >= 1
    assert not rows["degraded_to_local"]
