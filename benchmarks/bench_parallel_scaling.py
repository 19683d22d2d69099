"""§4 "Test in parallel": unit tests are independent, so campaigns fan
out across workers (the paper used up to 100 machines / 2,000 containers).

The bench runs the HDFS campaign at several worker counts; every width
above one forks that many supervised worker *processes*.  The
load-bearing property is **independence**: findings must be identical at
every width.  Wall time scales with the usable CPUs, not the worker
count — past them, extra workers only add fork and pipe overhead, which
the gate below bounds; the paper's speedup came from machine-level
fan-out, which the same independence enables.
"""

from __future__ import annotations

import time

from repro.apps import catalog
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import render_table


def run_at_width(workers: int):
    spec = catalog.spec_for("hdfs")
    started = time.time()
    report = Campaign("hdfs", spec.registry,
                      dependency_rules=spec.dependency_rules,
                      config=CampaignConfig(workers=workers)).run()
    return {
        "workers": workers,
        "wall_s": time.time() - started,
        "true_problems": tuple(sorted(v.param for v in report.true_problems)),
        "executions": report.executions,
    }


def sweep():
    return [run_at_width(workers) for workers in (1, 2, 4, 8)]


def test_parallel_scaling(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nWorker-count sweep (HDFS campaign):")
    print(render_table(
        ["workers", "wall seconds", "executions", "true problems"],
        [[r["workers"], "%.1f" % r["wall_s"], r["executions"],
          len(r["true_problems"])] for r in rows]))
    serial = rows[0]["wall_s"]
    widest = rows[-1]["wall_s"]
    print("speedup 1 -> 8 workers: %.1fx" % (serial / max(widest, 1e-9)))
    print("(the paper parallelised across up to 100 machines x 20 "
          "containers; unit-test independence is what makes this safe)")

    # findings are identical at every parallelism — the property that
    # makes machine-level fan-out safe
    assert len({r["true_problems"] for r in rows}) == 1
    # pool overhead stays bounded (no pathological contention)
    assert widest <= serial * 1.7
