"""Exact operation counts as a gate (ROADMAP item 2a).

The default campaigns of the five small applications must make exactly
the ``Configuration.get``, ``intercept_get``, ``RpcClient.call`` and
``Simulator.schedule`` calls, executions and simulations that
``benchmarks/baselines/BENCH_layers.json`` records.  hdfs and the
store-and-checkpoint counts are checked by ``benchmarks/bench_layers.py``.
A change that moves a count updates the baseline and says why.
"""

from __future__ import annotations

import os
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import bench_layers  # noqa: E402

SMALL_APPS = ("hadooptools", "hbase", "mapreduce", "flink", "yarn")
#: counted only by the bench's store-and-checkpoint runs.
STORE_COUNTS = {"store_appends", "fsyncs", "journal_appends"}


def test_small_apps_count_what_the_baseline_records():
    baseline = bench_layers.load_layer_baseline()
    assert bench_layers.measure(SMALL_APPS, store=False) == {
        app: {key: count for key, count in baseline[app].items()
              if key not in STORE_COUNTS}
        for app in SMALL_APPS}
