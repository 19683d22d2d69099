"""End-to-end campaign wall-clock: optimised path versus the seed path.

The tentpole claim: the kernel fast path (``repro.perf.FAST_PATH``) plus
cost-model LPT dispatch (``CampaignConfig.schedule="lpt"``) cut the
HDFS campaign's wall clock — while every finding, verdict, execution
count, and modelled machine-hour stays **byte-identical** to the
unoptimised path.  Both optimisations are pure mechanics: the fast path
removes interpreter and heap overhead from identical event sequences,
and LPT only reorders *dispatch* (outcomes are folded back in catalog
order).

Two configuration pairs are measured, each seed-vs-optimised where
**seed** = ``FAST_PATH`` off + catalog dispatch (the pre-optimisation
code path, kept alive exactly so this bench can regress against it) and
**optimised** = ``FAST_PATH`` on + LPT dispatch (the defaults):

* **serial** — one worker, no pool.  Isolates the kernel fast path;
  the ratio is pure interpreter work and travels across hosts.
* **process x4** — the deployment configuration (the supervised pool,
  4 workers): worker processes inherit the kernel fast path and the
  parent adds LPT packing.

Both pairs must clear the tentpole's >= 25% wall-clock-reduction bar.

Rows land in ``BENCH_campaign_wallclock.json``; the committed baseline
under ``benchmarks/baselines/`` fails the bench on a >10% regression of
the speedup ratios.
"""

from __future__ import annotations

import json
import time

from _shared import check_against_baseline, write_bench_artifact
from repro import perf
from repro.apps import catalog
from repro.common.wire import clear_wire_memo
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.parallel import usable_cpus
from repro.core.report import app_report_to_dict, render_table

ARTIFACT = "BENCH_campaign_wallclock.json"
APP = "hdfs"


def _run(fast_path: bool, schedule: str, **config_kwargs):
    spec = catalog.spec_for(APP)
    campaign = Campaign(APP, spec.registry,
                        dependency_rules=spec.dependency_rules,
                        config=CampaignConfig(schedule=schedule,
                                              **config_kwargs))
    previous = perf.set_fast_path(fast_path)
    clear_wire_memo()
    try:
        started = time.perf_counter()
        report = campaign.run()
        wall = time.perf_counter() - started
    finally:
        perf.set_fast_path(previous)
    return report, wall


def _findings_view(report) -> str:
    """Everything the optimisations must preserve: the full report minus
    host-measured supervision bookkeeping (worker respawn counts depend
    on pool mechanics, not findings)."""
    record = app_report_to_dict(report)
    record.pop("supervision", None)
    return json.dumps(record, sort_keys=True)


def _pair(rounds: int = 2, **config_kwargs) -> dict:
    """Seed-vs-optimised walls, best (min) of ``rounds`` runs each.

    The minimum is the standard noise estimator for a ratio bench: a
    background-load spike can only ever make a run *slower*, so the min
    of a few runs converges on the machine's true cost.
    """
    seed_report, seed_wall = _run(False, "catalog", **config_kwargs)
    fast_report, fast_wall = _run(True, "lpt", **config_kwargs)
    for _ in range(rounds - 1):
        _, wall = _run(False, "catalog", **config_kwargs)
        seed_wall = min(seed_wall, wall)
        _, wall = _run(True, "lpt", **config_kwargs)
        fast_wall = min(fast_wall, wall)
    return {
        "wall_seed_s": seed_wall,
        "wall_optimised_s": fast_wall,
        "speedup": seed_wall / fast_wall,
        "reduction": 1.0 - fast_wall / seed_wall,
        "findings_identical":
            _findings_view(seed_report) == _findings_view(fast_report),
    }


def measure() -> dict:
    return {
        "app": APP,
        "cpu_count": usable_cpus(),
        "serial": _pair(),
        "process4": _pair(workers=4, blacklist_threshold=999),
    }


def test_campaign_wallclock(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    serial, process4 = rows["serial"], rows["process4"]
    print("\nHDFS campaign, seed path vs optimised path (%d CPUs):"
          % rows["cpu_count"])
    print(render_table(
        ["configuration", "seed", "optimised", "reduction"],
        [["serial", "%.2fs" % serial["wall_seed_s"],
          "%.2fs" % serial["wall_optimised_s"],
          "%.1f%%" % (100 * serial["reduction"])],
         ["process x4", "%.2fs" % process4["wall_seed_s"],
          "%.2fs" % process4["wall_optimised_s"],
          "%.1f%%" % (100 * process4["reduction"])]]))

    write_bench_artifact(ARTIFACT, rows)

    # Soundness first: optimisation may only remove overhead, never
    # change what the campaign finds or how much work it models.
    assert serial["findings_identical"]
    assert process4["findings_identical"]

    # The tentpole's acceptance bar, on both pairs: the kernel carries
    # the serial win, and the worker processes inherit it (plus LPT
    # packing) on the deployment configuration.
    assert serial["reduction"] >= 0.25
    assert process4["reduction"] >= 0.25

    regressions = check_against_baseline(ARTIFACT, rows)
    assert not regressions, "\n".join(regressions)
