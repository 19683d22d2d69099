"""Result-store benchmark: what a warm start is worth.

Runs the same real-application campaign twice against one ``--store``
directory.  The cold pass pays every execution and populates the store;
the warm pass must serve the repeated work from persisted entries,
execute strictly less, and report byte-identical findings — the central
acceptance criterion of the store.

Absolute wall-clock is a host property; the executions ratio travels,
but it is a function of the corpus (not of store implementation
quality), so the rows are recorded for trajectory without a committed
baseline.  The strict assertions are behavioural: fewer executions,
identical findings, zero store misses on the warm pass.

The ``reopen`` row measures the per-process reuse of decoded segments:
in each of three fresh interpreters it times the first (cold) and a
repeated (warm) ``ResultStore.open`` of a store holding two apps'
campaigns, and keeps the minimum of each.  It asserts equal
``StoreStats`` and a warm open at most half the cold one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time

import repro
from _shared import write_bench_artifact
from repro.apps import catalog
from repro.core.distrib import corpus_digest
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import app_report_to_dict, findings_projection

ARTIFACT = "BENCH_store.json"
APP = "mapreduce"
#: The campaigns the reopen row's store holds; it opens the first.
REOPEN_APPS = ("mapreduce", "flink")
REOPEN_PROCESSES = 3
#: The reopen row's gate: warm open <= this share of the cold open.
MAX_WARM_SHARE = 0.5

REOPEN_CHILD = textwrap.dedent("""
    import json, sys, time
    from dataclasses import asdict
    from repro.core.store import ResultStore
    root, app, digest = sys.argv[1], sys.argv[2], int(sys.argv[3])
    walls, stats = [], []
    for _ in range(2):
        store = ResultStore(root)
        started = time.perf_counter()
        store.open(app, digest)
        walls.append(time.perf_counter() - started)
        stats.append(asdict(store.stats))
    print(json.dumps({"cold_s": walls[0], "warm_s": walls[1],
                      "stats_equal": stats[0] == stats[1]}))
""")


def _campaign(app, **config):
    spec = catalog.spec_for(app)
    return Campaign(app, spec.registry,
                    dependency_rules=spec.dependency_rules,
                    config=CampaignConfig(**config))


def _run(store_dir):
    campaign = _campaign(APP, store_path=store_dir)
    started = time.perf_counter()
    report = campaign.run()
    wall = time.perf_counter() - started
    return report, wall


def measure_reopen() -> dict:
    """Cold and warm ``ResultStore.open`` in fresh interpreters."""
    root = tempfile.mkdtemp(prefix="bench-store-reopen-")
    try:
        for app in REOPEN_APPS:
            _campaign(app, store_path=root).run()
        app = REOPEN_APPS[0]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        runs = []
        for _ in range(REOPEN_PROCESSES):
            out = subprocess.run(
                [sys.executable, "-c", REOPEN_CHILD, root, app,
                 str(corpus_digest(_campaign(app)))],
                env=env, check=True, capture_output=True, text=True).stdout
            runs.append(json.loads(out))
        segments = len(os.listdir(os.path.join(root, "segments")))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    cold = min(run["cold_s"] for run in runs)
    warm = min(run["warm_s"] for run in runs)
    return {"apps": list(REOPEN_APPS), "opened": app, "segments": segments,
            "processes": REOPEN_PROCESSES, "cold_open_s": cold,
            "warm_open_s": warm, "warm_share": warm / cold,
            "max_warm_share": MAX_WARM_SHARE,
            "stats_equal": all(run["stats_equal"] for run in runs)}


def measure() -> dict:
    root = tempfile.mkdtemp(prefix="bench-store-")
    try:
        cold, cold_wall = _run(root)
        warm, warm_wall = _run(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    cold_findings = json.dumps(
        findings_projection(app_report_to_dict(cold)), sort_keys=True)
    warm_findings = json.dumps(
        findings_projection(app_report_to_dict(warm)), sort_keys=True)

    return {
        "warm_start": {
            "app": APP,
            "cold_executions": cold.executions,
            "warm_executions": warm.executions,
            "executions_saved": cold.executions - warm.executions,
            "execution_reduction": (cold.executions /
                                    max(warm.executions, 1)),
            "cold_wall_s": cold_wall,
            "warm_wall_s": warm_wall,
            "store_appends": cold.store.appends,
            "store_entries_loaded": warm.store.entries_loaded,
            "store_hits": warm.store.hits,
            "store_misses": warm.store.misses,
            "findings_identical": cold_findings == warm_findings,
        },
        "reopen": measure_reopen(),
    }


def test_store_warm_start(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    row = rows["warm_start"]

    print("\nResult-store warm start (%s):" % row["app"])
    print("  cold: %d executions in %.1fs" % (row["cold_executions"],
                                              row["cold_wall_s"]))
    print("  warm: %d executions in %.1fs (%d served from the store, "
          "%.1fx fewer executions)"
          % (row["warm_executions"], row["warm_wall_s"],
             row["store_hits"], row["execution_reduction"]))

    write_bench_artifact(ARTIFACT, rows)

    # The store's contract, not a perf ratio: strictly fewer executions
    # warm, no warm misses, byte-identical findings.
    assert row["warm_executions"] < row["cold_executions"]
    assert row["store_hits"] > 0
    assert row["store_misses"] == 0
    assert row["findings_identical"]

    reopen = rows["reopen"]
    print("  reopen (%s of %s, %d segments): cold %.2f ms, warm %.2f ms "
          "(min of %d processes)"
          % (reopen["opened"], "+".join(reopen["apps"]), reopen["segments"],
             1e3 * reopen["cold_open_s"], 1e3 * reopen["warm_open_s"],
             reopen["processes"]))
    # A warm open serves what a cold one does, for at most half the time.
    assert reopen["stats_equal"]
    assert reopen["warm_open_s"] <= MAX_WARM_SHARE * reopen["cold_open_s"]
