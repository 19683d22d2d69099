"""Execution-cache effectiveness and supervised-pool throughput.

Two claims are measured on the HDFS campaign:

1. **Cache**: with ``exec_cache`` on, identical (test, assignment, seed)
   executions are served from the content-addressed cache, cutting total
   unit-test executions by >= 40% while every verdict stays byte-identical
   to the uncached run (the cache-soundness invariant).
2. **Supervised pool**: with profiles decoupled (``blacklist_threshold``
   high enough that no cross-profile state couples scheduling), four
   supervised workers beat the serial loop on multi-core hosts.  The
   assertion is conditional on the usable CPU count
   (``parallel.usable_cpus()``, which honours an affinity mask such as
   ``taskset -c 0``) — on a single-core runner process fan-out cannot
   win and only the equal-findings invariant is checked.

The measured rows are written as a JSON artifact (path from the
``EXECCACHE_BENCH_JSON`` environment variable, default
``bench_execcache.json``) so CI can archive the numbers per commit.
"""

from __future__ import annotations

import json
import os
import time

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


def measure():
    rows = {}

    uncached, uncached_wall = _run(exec_cache=False)
    cached, cached_wall = _run(exec_cache=True)
    rows["cache"] = {
        "executions_uncached": uncached.executions,
        "executions_cached": cached.executions,
        "saved_fraction": 1 - cached.executions / uncached.executions,
        "cache_hits": cached.pool_stats.exec_cache_hits,
        "cache_misses": cached.pool_stats.exec_cache_misses,
        "cache_bypasses": cached.pool_stats.exec_cache_bypasses,
        "wall_uncached_s": uncached_wall,
        "wall_cached_s": cached_wall,
        "verdicts_identical": _verdict_view(uncached) == _verdict_view(cached),
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
    print("\nExecution cache (HDFS campaign):")
    print(render_table(
        ["metric", "value"],
        [["executions (uncached)", cache["executions_uncached"]],
         ["executions (cached)", cache["executions_cached"]],
         ["saved", "%.1f%%" % (100 * cache["saved_fraction"])],
         ["hits / misses / bypasses",
          "%d / %d / %d" % (cache["cache_hits"], cache["cache_misses"],
                            cache["cache_bypasses"])],
         ["wall uncached -> cached",
          "%.1fs -> %.1fs" % (cache["wall_uncached_s"],
                              cache["wall_cached_s"])]]))
    print("serial vs supervised x%d (%d CPUs): %.1fs vs %.1fs"
          % (backends["workers"], backends["cpu_count"],
             backends["wall_serial_s"], backends["wall_supervised_s"]))

    artifact = os.environ.get("EXECCACHE_BENCH_JSON", "bench_execcache.json")
    with open(artifact, "w") as sink:
        json.dump(rows, sink, indent=2, sort_keys=True)
    print("wrote %s" % artifact)

    # soundness: caching may only remove duplicate work, never change it
    assert cache["verdicts_identical"]
    assert cache["saved_fraction"] >= 0.40
    assert cache["cache_hits"] > 0

    # serial and pooled runs agree on findings regardless of scheduling
    assert backends["findings_identical"]
    # fork fan-out only beats the serial loop with cores to fan onto
    if backends["cpu_count"] >= 2:
        assert backends["wall_supervised_s"] < backends["wall_serial_s"]
