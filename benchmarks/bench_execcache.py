"""Execution-cache effectiveness and supervised-pool throughput.

Two claims are measured on the HDFS campaign:

1. **Accounting**: every campaign answers repeated (test, assignment,
   seed) executions from the content-addressed cache, so the paper's
   accounting (the default: a repeat is charged as a fresh execution)
   and free-hit accounting (``exec_cache``: a repeat costs nothing)
   simulate the same executions.  Free hits cut the *charged* unit-test
   executions by >= 40% while every verdict stays byte-identical (the
   cache-soundness invariant).  The simulated count of each run is read
   from ``zc_runtime_simulations_total``, so both runs are observed.
2. **Supervised pool**: with profiles decoupled (``blacklist_threshold``
   high enough that no cross-profile state couples scheduling), four
   supervised workers beat the serial loop on multi-core hosts.  The
   assertion is conditional on the usable CPU count
   (``parallel.usable_cpus()``, which honours an affinity mask such as
   ``taskset -c 0``) — on a single-core runner process fan-out cannot
   win and only the equal-findings invariant is checked.

The measured rows are written as ``bench_execcache.json`` through
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


def _run(**config_kwargs):
    spec = catalog.spec_for(APP)
    campaign = Campaign(APP, spec.registry,
                        dependency_rules=spec.dependency_rules,
                        config=CampaignConfig(**config_kwargs))
    started = time.time()
    report = campaign.run()
    return report, time.time() - started


def _verdict_view(report):
    """The report minus run-cost bookkeeping: what soundness preserves."""
    record = app_report_to_dict(report)
    for volatile in ("executions", "machine_time_s", "exec_cache",
                     "supervision", "cost_centers"):
        record.pop(volatile, None)
    return json.dumps(record, sort_keys=True)


def _simulated(report):
    """Executions the simulator ran (the rest were cache answers)."""
    return int(report.observation.metrics.total(
        "zc_runtime_simulations_total"))


def measure():
    rows = {}

    paper, paper_wall = _run(exec_cache=False, observe=True)
    free, free_wall = _run(exec_cache=True, observe=True)
    rows["cache"] = {
        "executions_paper": paper.executions,
        "executions_free_hits": free.executions,
        "saved_fraction": 1 - free.executions / paper.executions,
        "simulated_paper": _simulated(paper),
        "simulated_free_hits": _simulated(free),
        "cache_hits": free.pool_stats.exec_cache_hits,
        "cache_misses": free.pool_stats.exec_cache_misses,
        "cache_bypasses": free.pool_stats.exec_cache_bypasses,
        "wall_paper_s": paper_wall,
        "wall_free_hits_s": free_wall,
        "verdicts_identical": _verdict_view(paper) == _verdict_view(free),
    }

    serial, serial_wall = _run(blacklist_threshold=999)
    supervised, supervised_wall = _run(workers=4, blacklist_threshold=999)
    rows["backends"] = {
        "cpu_count": usable_cpus(),
        "workers": 4,
        "wall_serial_s": serial_wall,
        "wall_supervised_s": supervised_wall,
        "findings_identical":
            _verdict_view(serial) == _verdict_view(supervised),
    }
    return rows


def test_execcache_and_backends(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    cache, backends = rows["cache"], rows["backends"]
    print("\nExecution accounting (HDFS campaign):")
    print(render_table(
        ["metric", "value"],
        [["executions charged (paper)", cache["executions_paper"]],
         ["executions charged (free hits)", cache["executions_free_hits"]],
         ["saved", "%.1f%%" % (100 * cache["saved_fraction"])],
         ["simulated paper / free hits",
          "%d / %d" % (cache["simulated_paper"],
                       cache["simulated_free_hits"])],
         ["hits / misses / bypasses",
          "%d / %d / %d" % (cache["cache_hits"], cache["cache_misses"],
                            cache["cache_bypasses"])],
         ["wall paper -> free hits",
          "%.1fs -> %.1fs" % (cache["wall_paper_s"],
                              cache["wall_free_hits_s"])]]))
    print("serial vs supervised x%d (%d CPUs): %.1fs vs %.1fs"
          % (backends["workers"], backends["cpu_count"],
             backends["wall_serial_s"], backends["wall_supervised_s"]))

    write_bench_artifact("bench_execcache.json", rows)

    # soundness: caching may only remove duplicate work, never change it
    assert cache["verdicts_identical"]
    assert cache["saved_fraction"] >= 0.40
    assert cache["cache_hits"] > 0
    # the accountings differ in what they charge, not in what they run
    assert cache["simulated_paper"] == cache["simulated_free_hits"] > 0

    # serial and pooled runs agree on findings regardless of scheduling
    assert backends["findings_identical"]
    # fork fan-out only beats the serial loop with cores to fan onto
    if backends["cpu_count"] >= 2:
        assert backends["wall_supervised_s"] < backends["wall_serial_s"]
