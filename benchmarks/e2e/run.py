"""End-to-end benchmark: one workload, every metric, checked outputs.

    python3 benchmarks/e2e/run.py --workload evaluate-cold --seed 0
    python3 benchmarks/e2e/run.py --workload serve-vet --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --regen-golden

Run from the repository root (or anywhere: paths are resolved from this
file).  The program is driven only through its CLI, its Python API and
its HTTP API; ``src/`` must be present.  Each metric is printed on its
own line with its unit, then the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).

``--trace 0`` measures closed-loop units for ``--seconds``.  ``--trace 1``
measures untraced units for half of ``--seconds``, then reruns the same
units with the layer wrappers installed and reports where the wall time
went.  README.md describes the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS  # noqa: E402

#: (name, unit) of the metrics a ``--trace 0`` run reports.
E2E_METRICS = (("setup_s", "s"), ("latency_s", "s"),
               ("machine_hours", "machine-h"), ("peak_rss_mb", "MB"),
               ("table3_recall", "ratio"))

#: Per-layer extras beyond ``<layer>.calls`` / ``<layer>.self_s``.
LAYER_EXTRAS = (("simulation.events", "count"),
                ("runner.executions", "count"),
                ("pooling.clear_ratio", "ratio"),
                ("execcache.hit_ratio", "ratio"),
                ("store.open_s", "s"), ("store.appends", "count"),
                ("plan.reuse_ratio", "ratio"),
                ("checkpoint.appends", "count"),
                ("supervise.wait_s", "s"), ("supervise.respawns", "count"),
                ("service.requests", "count"), ("service.errors", "count"),
                ("jobqueue.queue_wait_s", "s"),
                ("unattributed_s", "s"), ("traced_makespan_s", "s"),
                ("trace_overhead", "ratio"))

LAYER_METRICS = tuple(
    [(layer + suffix, unit) for layer in LAYERS
     for suffix, unit in ((".calls", "count"), (".self_s", "s"))]
    + list(LAYER_EXTRAS))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: of 200 samples, p95 leaves 10 above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(in_process: bool) -> float:
    """Largest resident set of the workload's processes, in MiB.

    Children (the CLI passes, the daemon, their workers) are reaped
    before this is read; ``in_process`` adds this process, which runs
    incremental-edit's requests itself.
    """
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if in_process:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0


def latency_s(phase: workloads.Phase) -> float:
    """Median over rounds of a round's mean unit latency.

    A round's mean is its busy time per unit, which weighs every request
    of the fixed mix; the median over rounds discards a round that a
    burst of load from elsewhere on the host slowed down.  For evaluate
    workloads a round is one pass.
    """
    seconds = [unit.seconds for unit in phase.units]
    size = phase.round_size
    return statistics.median(statistics.fmean(seconds[i:i + size])
                             for i in range(0, len(seconds), size))


def e2e_metrics(name: str, setup: List[float],
                phase: workloads.Phase) -> Dict[str, float]:
    found = sum(unit.table3[0] for unit in phase.units)
    expected = sum(unit.table3[1] for unit in phase.units)
    return {
        "setup_s": statistics.median(setup),
        "latency_s": latency_s(phase),
        "machine_hours": (sum(u.machine_s for u in phase.units)
                          / (3600.0 * len(phase.units))),
        "peak_rss_mb": peak_rss_mb(name == "incremental-edit"),
        "table3_recall": found / expected if expected else 1.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(plain: workloads.Phase,
                  traced: workloads.Phase) -> Dict[str, float]:
    snapshot = traced.snapshot
    calls = dict(snapshot["calls"])
    self_s = dict(snapshot["self_s"])
    extra = snapshot["extra"]
    units = traced.units
    requests = sum(1 for unit in units if "http" in unit.info)
    if requests:
        # serve-vet: the daemon's layers ran inside the client's request
        # windows.  A job waited in the queue from its 202 until its
        # campaign started (both read from CLOCK_MONOTONIC, which
        # perf_counter is on Linux, so the two processes' stamps
        # compare); the rest of the client's wait is the service's own
        # request path.
        started: Dict[str, float] = {}
        for span in traced.spans:
            if span["layer"] == "orchestrator":
                job = str(span["request"])
                started[job] = min(started.get(job, span["start"]),
                                   span["start"])
        queue_wait = sum(max(0.0, started[u.info["job"]]
                             - u.info["accepted_at"])
                         for u in units if u.info["job"] in started)
        daemon = sum(self_s.values())
        calls["jobqueue"] = requests
        self_s["jobqueue"] = queue_wait
        calls["service"] = sum(unit.info["http"] for unit in units)
        self_s["service"] = (sum(unit.seconds for unit in units)
                             - daemon - queue_wait)
    else:
        queue_wait = 0.0
    reports = traced.reports
    pool = [r["pool_stats"] for r in reports]
    cache = [r["exec_cache"] for r in reports]
    plans = [r["plan"] for r in reports if r.get("plan")]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[layer + ".calls"] = calls[layer]
        metrics[layer + ".self_s"] = self_s[layer]
    metrics.update({
        "simulation.events": calls["apps"],
        "runner.executions": sum(r["executions"] for r in reports),
        "pooling.clear_ratio": _ratio(sum(p["pools_cleared"] for p in pool),
                                      sum(p["pool_runs"] for p in pool)),
        "execcache.hit_ratio": _ratio(
            sum(c["hits"] for c in cache),
            sum(c["hits"] + c["misses"] for c in cache)),
        "store.open_s": extra.get("store.open_s", 0.0),
        "store.appends": extra.get("store.appends", 0),
        "plan.reuse_ratio": _ratio(sum(p["reused"] for p in plans),
                                   sum(len(p["profiles"]) for p in plans)),
        "checkpoint.appends": extra.get("checkpoint.appends", 0),
        "supervise.wait_s": extra.get("supervise.wait_s", 0.0),
        "supervise.respawns": sum(r["supervision"]["respawns"]
                                  for r in reports),
        "service.requests": requests,
        "service.errors": sum(unit.info.get("http_errors", 0)
                              for unit in units),
        "jobqueue.queue_wait_s": queue_wait,
        "unattributed_s": traced.makespan_s - sum(self_s.values()),
        "traced_makespan_s": traced.makespan_s,
        "trace_overhead": _ratio(traced.makespan_s, plain.makespan_s),
    })
    return metrics


def workload_extras(phase: workloads.Phase) -> List[Tuple[str, float, str]]:
    """Printed alongside the metrics; not part of the JSON result line."""
    units = phase.units
    failed = sum(1 for unit in units if not unit.ok)
    seconds = [unit.seconds for unit in units]
    rows = [("makespan_s", phase.makespan_s, "s"),
            ("units", len(units), "count"),
            ("error_rate", failed / len(units), "ratio"),
            ("throughput", len(units) / phase.makespan_s, "1/s"),
            ("request_p50_s", statistics.median(seconds), "s")]
    if len(units) >= 200:  # ten samples beyond the 95th percentile
        rows.append(("request_p95_s", percentile(seconds, 95), "s"))
    if any("reused" in unit.info for unit in units):
        rows.append(("plan_reuse_share",
                     _ratio(sum(u.info["reused"] for u in units),
                            sum(u.info["profiles"] for u in units)),
                     "ratio"))
    if any("resubmitted" in unit.info for unit in units):
        rows.append(("resubmission_share",
                     sum(u.info["resubmitted"] for u in units) / len(units),
                     "ratio"))
    return rows


def _print_rows(rows: List[Tuple[str, float, str]]) -> None:
    for name, value, unit in rows:
        print("%-28s %16.6f %s" % (name, value, unit))


def run(args: argparse.Namespace) -> int:
    work = os.path.join(ROOT, ".e2e_work", "%s-%d" % (args.workload,
                                                       os.getpid()))
    os.makedirs(work)
    ctx = workloads.Context(ROOT, work, args.seed)
    workload = workloads.make(args.workload, ctx)
    try:
        setup, problems = workload.setup()
        if args.trace:
            plain = workload.phase(traced=False, seconds=args.seconds / 2)
            phases = [plain, workload.phase(traced=True,
                                            count=len(plain.units))]
        else:
            plain = workload.phase(traced=False, seconds=args.seconds)
            phases = [plain]
    finally:
        # Reaps every child first, so peak_rss_mb sees them all.
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        traced = phases[1]
        values = layer_metrics(plain, traced)
        declared = LAYER_METRICS
        if [(u.machine_s, u.ok) for u in plain.units] != \
                [(u.machine_s, u.ok) for u in traced.units]:
            problems.append("traced run disagrees with the untraced run "
                            "on machine hours or failures")
    else:
        values = e2e_metrics(args.workload, setup, plain)
        declared = E2E_METRICS

    units = [unit for phase in phases for unit in phase.units]
    for unit in units:
        problems.extend(unit.problems)
    for problem in problems[:20]:
        print("FAIL: %s" % problem, file=sys.stderr)
    failed = sum(1 for unit in units if not unit.ok)
    print("workload %s, seed %d, %d units (%d failed), setup samples %s"
          % (args.workload, args.seed, len(units), failed,
             ", ".join("%.3f" % s for s in setup)))
    _print_rows(workload_extras(plain))
    _print_rows([(name, values[name], unit) for name, unit in declared])
    result = {
        "correct": not problems,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared},
    }
    if args.json:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, problems=problems,
                      setup_samples=setup,
                      unit_seconds=[u.seconds for u in plain.units],
                      extras={n: v for n, v, _ in workload_extras(plain)})
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1)
        if args.trace:
            spans_path = os.path.splitext(args.json)[0] + ".spans.jsonl"
            with open(spans_path, "w") as handle:
                for span in phases[-1].spans:
                    handle.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


def regen_golden() -> int:
    """Rebuild every golden from serial, in-process campaigns."""
    from repro.apps import catalog
    from repro.core.orchestrator import (Campaign, CampaignConfig,
                                         run_full_campaign)
    from repro.core.report import app_report_to_dict

    def digests(config: Any) -> Dict[str, str]:
        report = run_full_campaign(config)
        return {app.app: checker.findings_digest(app_report_to_dict(app))
                for app in report.apps}

    evaluate = digests(CampaignConfig())
    print("wrote %s" % checker.write_golden("evaluate", evaluate))
    print("wrote %s" % checker.write_golden(
        "evaluate_threshold999", digests(CampaignConfig(
            blacklist_threshold=999))))
    vet: Dict[str, str] = {}
    executions: Dict[str, int] = {}
    for app in catalog.APP_NAMES:
        spec = catalog.spec_for(app)
        for param in spec.registry.names():
            report = Campaign(app, spec.registry,
                              dependency_rules=spec.dependency_rules,
                              config=CampaignConfig(
                                  only_params=frozenset([param]))).run()
            key = "%s::%s" % (app, param)
            vet[key] = checker.findings_digest(app_report_to_dict(report))
            executions[key] = report.executions
    print("wrote %s" % checker.write_golden("vet", vet))
    print("wrote %s" % checker.write_golden("vet_executions", executions))

    work = os.path.join(ROOT, ".e2e_work", "regen-%d" % os.getpid())
    cold = os.path.join(work, "cold")
    os.makedirs(work)
    try:
        run_full_campaign(CampaignConfig(store_path=cold))
        defects = []
        for key in sorted(vet):
            app, param = key.split("::", 1)
            store = os.path.join(work, "edit")
            shutil.copytree(cold, store)
            report = workloads.incremental_rerun(app, param, store)
            shutil.rmtree(store)
            if checker.findings_digest(app_report_to_dict(report)) \
                    != evaluate[app]:
                defects.append(key)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("wrote %s (%d known defects)"
          % (checker.write_golden("incremental_defects", defects),
             len(defects)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured phase (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1,
                        help="1: report per-layer metrics from a traced "
                             "rerun instead of the end-to-end metrics")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full result (and, traced, "
                             "the spans next to it) here")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rebuild golden/ from serial in-process runs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: %s has no src/repro; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.regen_golden:
        return regen_golden()
    if not args.workload:
        parser.error("--workload is required")
    # A terminated run still stops and reaps its daemons (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        return run(args)
    except workloads.SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
