"""Wiring-audit drill: audit the HDFS and YARN registries through the
CLI, then gate on every planted fixture getting its planted verdict and
no parameter the evaluation reports being flagged.

Run the drills with ``python -m pytest tests/drills -m drill``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.apps import catalog

pytestmark = pytest.mark.drill

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: the fixtures planted in apps/*/params.py, by audit report
FIXTURES = {
    "audit-hdfs.json": {
        "dfs.namenode.lock.detailed-metrics.enabled": "UNREAD",
        "dfs.datanode.metrics.logger.period.seconds": "READ_BUT_INERT",
    },
    "audit-yarn.json": {
        "yarn.nodemanager.disk-health-checker.enable": "UNREAD",
        "yarn.nodemanager.container-metrics.period-ms": "READ_BUT_INERT",
    },
}


def test_planted_fixtures_flagged_and_reported_parameters_not(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep
                       + os.environ.get("PYTHONPATH", ""))
    for app in ("hdfs", "yarn"):
        subprocess.run([sys.executable, "-m", "repro", "audit", app,
                        "--json", "audit-%s.json" % app],
                       check=True, stdout=subprocess.DEVNULL)
    for path, fixtures in FIXTURES.items():
        with open(path) as handle:
            record = json.load(handle)
        for param, verdict in fixtures.items():
            got = record["verdicts"][param]
            assert got == verdict, (path, param, got, verdict)
        app = path.split("-")[1].split(".")[0]
        spec = catalog.spec_for(app)
        reported = (set(spec.expected_unsafe)
                    | set(spec.expected_false_positives))
        flagged = {f["param"] for f in record["flagged"]}
        assert not (flagged & reported), (path, flagged & reported)
