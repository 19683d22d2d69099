"""Supervised pool vs the serial loop.

``--workers N > 1`` runs every profile on the supervised pool
(``repro/core/supervise.py``): forked lease clients on socket pairs,
held fetches, heartbeats, deadline bookkeeping, and parent-side
polling.  The only other way to
run a campaign on one host is the serial loop, so that is the baseline.
Measured on the HDFS campaign with profiles decoupled
(``blacklist_threshold`` high so no cross-profile state couples
scheduling):

* the supervised and serial runs report **identical findings** (the
  pool may only change *how* profiles run, never what they find);
* the supervised ×4 wall clock is at most 1.25 × the serial wall clock.
  The gate assumes at least two usable CPUs, as CI runners have: there
  the pool must not lose to serial by more than scheduler jitter, so it
  catches order-of-magnitude regressions such as a hot polling loop.
  Four workers on one usable CPU only contend for it (1.35 × serial
  under ``taskset -c 0`` on a 2-vCPU host), and the gate fails there.

Rows are written as ``bench_supervision.json`` through
``_shared.write_bench_artifact`` (under ``$BENCH_ARTIFACT_DIR``, default
the working directory) so CI can archive the numbers per commit.
"""

from __future__ import annotations

import json
import time

from _shared import write_bench_artifact
from repro.apps import catalog
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.parallel import usable_cpus
from repro.core.report import app_report_to_dict, render_table

APP = "hdfs"
WORKERS = 4
#: supervised x4 wall clock may not exceed this multiple of serial.
MAX_WALL_RATIO = 1.25


def _run(workers):
    spec = catalog.spec_for(APP)
    campaign = Campaign(APP, spec.registry,
                        dependency_rules=spec.dependency_rules,
                        config=CampaignConfig(workers=workers,
                                              blacklist_threshold=999))
    started = time.time()
    report = campaign.run()
    return report, time.time() - started


def _findings_view(report):
    """The report minus run-scoped bookkeeping: what supervision must
    never change."""
    record = app_report_to_dict(report)
    for volatile in ("executions", "machine_time_s", "exec_cache",
                     "supervision"):
        record.pop(volatile, None)
    return json.dumps(record, sort_keys=True)


def measure():
    serial, serial_wall = _run(1)
    supervised, supervised_wall = _run(WORKERS)
    return {
        "app": APP,
        "workers": WORKERS,
        "cpu_count": usable_cpus(),
        "wall_serial_s": serial_wall,
        "wall_supervised_s": supervised_wall,
        "wall_ratio": supervised_wall / serial_wall,
        "max_wall_ratio": MAX_WALL_RATIO,
        "workers_spawned": supervised.supervision.workers_spawned,
        "crashes": supervised.supervision.crashes,
        "findings_identical":
            _findings_view(serial) == _findings_view(supervised),
    }


def test_supervision_overhead(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print("\nSupervised pool vs serial loop (%s campaign, %d workers, "
          "%d CPUs):" % (rows["app"], rows["workers"], rows["cpu_count"]))
    print(render_table(
        ["metric", "value"],
        [["wall serial", "%.2fs" % rows["wall_serial_s"]],
         ["wall supervised", "%.2fs" % rows["wall_supervised_s"]],
         ["supervised / serial", "%.2f (gate <= %.2f)"
          % (rows["wall_ratio"], MAX_WALL_RATIO)],
         ["workers spawned", rows["workers_spawned"]]]))

    write_bench_artifact("bench_supervision.json", rows)

    # supervision may change how workers run, never what they find
    assert rows["findings_identical"]
    # a healthy campaign needs no crash machinery
    assert rows["crashes"] == 0
    assert rows["wall_ratio"] <= MAX_WALL_RATIO
