"""Observability drills: a chaos campaign's fault and retry events reach
the span trace, and the paper's accounting holds across a fork.

Both exports must validate and reconcile with their report.  Run the
drills with ``python -m pytest tests/drills -m drill``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.observe import read_metrics_totals

pytestmark = pytest.mark.drill

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep
                       + os.environ.get("PYTHONPATH", ""))


def exported_campaign(prefix, *argv):
    """Run ``repro campaign ARGV`` with every export under ``prefix`` and
    validate the exports against the report."""
    spans, metrics = prefix + "-spans.jsonl", prefix + "-metrics.prom"
    report = prefix + "-report.json"
    subprocess.run([sys.executable, "-m", "repro", "campaign", *argv,
                    "--trace-spans", spans, "--metrics-out", metrics,
                    "--json", report],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run([sys.executable, "-m", "repro", "validate-obs",
                    "--spans", spans, "--metrics", metrics,
                    "--report", report], check=True)
    return spans, metrics


def test_chaos_campaign_fault_and_retry_events_reach_the_span_trace():
    # Every decision event rides in the span trace.
    spans, _ = exported_campaign("chaos", "flink", "--chaos",
                                 "--fault-seed", "7")
    with open(spans) as handle:
        kinds = {json.loads(line)["kind"] for line in handle}
    missing = {"fault", "retry"} - kinds
    assert not missing, "span trace lacks %s events" % sorted(missing)
    print("chaos span trace OK: fault and retry events present")


def test_paper_accounting_campaign_across_a_fork():
    # The default (paper) accounting answers repeats from the execution
    # cache but still charges them: the forked workers' results must
    # carry their simulations home, fewer than the charged executions.
    _, metrics = exported_campaign("paper", "mapreduce", "--workers", "2")
    totals = read_metrics_totals(metrics)
    simulated = totals.get("zc_runtime_simulations_total", 0)
    charged = totals["zc_executions_total"]
    assert 0 < simulated < charged, (simulated, charged)
    print("paper accounting OK: %d of %d charged executions simulated"
          % (simulated, charged))
