"""Result-store drill: SIGKILL a storing campaign at staggered points
under disk chaos, reopen the store after every kill, then finish clean
and gate on warm findings equal to cold ones plus a nonzero
cross-campaign hit rate.

Run the drills with ``python -m pytest tests/drills -m drill``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core.report import findings_projection

pytestmark = pytest.mark.drill

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run(*argv):
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          check=True, stdout=subprocess.DEVNULL)


def test_sigkill_and_disk_chaos_then_warm_equals_cold(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep
                       + os.environ.get("PYTHONPATH", ""))
    run("campaign", "mapreduce", "--json", "cold.json")
    for round_index, delay in enumerate((0.5, 1.0, 2.0)):
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "mapreduce",
             "--store", "results",
             "--fault", "disk_torn_write=0.01",
             "--fault", "disk_short_write=0.01",
             "--fault-seed", str(round_index)],
            stdout=subprocess.DEVNULL)
        try:
            time.sleep(delay)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=60)
        # reopen after every kill: stats must never crash
        run("store", "stats", "results")
    run("campaign", "mapreduce", "--store", "results", "--json", "seed.json")
    run("campaign", "mapreduce", "--store", "results", "--json", "warm.json")
    with open("cold.json") as handle:
        cold = json.load(handle)
    with open("warm.json") as handle:
        warm = json.load(handle)
    assert findings_projection(warm) == findings_projection(cold), \
        "warm findings diverged from cold"
    assert warm["executions"] < cold["executions"], \
        (warm["executions"], cold["executions"])
    assert warm["store"]["hits"] > 0, warm["store"]
    print("store smoke OK: cold=%d executions, warm=%d, %d hits"
          % (cold["executions"], warm["executions"], warm["store"]["hits"]))
