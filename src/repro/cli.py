"""Command-line interface: run ZebraConf campaigns from a shell.

Usage (installed as ``python -m repro``)::

    python -m repro list-apps
    python -m repro list-params hdfs --unsafe-only
    python -m repro corpus mapreduce
    python -m repro campaign yarn --json yarn.json --trace-spans yarn.jsonl
    python -m repro campaign yarn --store ./results   # warm-start next run
    python -m repro store stats ./results
    python -m repro evaluate --json full.json
    python -m repro serve --serve-state ./state --store ./results
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import catalog
from repro.common.faults import (FAULT_KINDS, NET_FAULT_KINDS, check_faults,
                                 fault_plans)
from repro.core.checkpoint import CheckpointError
from repro.core.orchestrator import Campaign, CampaignConfig, run_full_campaign
from repro.core.registry import load_all_suites
from repro.core.report import (AppReport, app_report_to_dict,
                               campaign_report_to_dict, render_stage_counts,
                               render_summary, render_table,
                               render_unsafe_params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZebraConf: find heterogeneous-unsafe configuration "
                    "parameters by re-running whole-system unit tests with "
                    "heterogeneous configurations.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list the target applications")

    params = sub.add_parser("list-params",
                            help="list an application's parameter registry")
    params.add_argument("app", choices=catalog.APP_NAMES)
    params.add_argument("--unsafe-only", action="store_true",
                        help="only the paper's Table-3 parameters")

    corpus = sub.add_parser("corpus",
                            help="list an application's unit-test corpus")
    corpus.add_argument("app", choices=catalog.APP_NAMES)

    why = sub.add_parser("why",
                         help="explain a parameter: kind, default, and the "
                              "paper's failure mechanism if it is in Table 3")
    why.add_argument("param")

    audit = sub.add_parser("audit",
                           help="registry wiring audit: flag parameters "
                                "that are UNREAD or READ_BUT_INERT across "
                                "an application's corpus "
                                "(docs/AUDIT.md)")
    audit.add_argument("app", choices=catalog.APP_NAMES)
    audit.add_argument("--param", action="append", dest="params",
                       metavar="NAME",
                       help="restrict the audit to this parameter "
                            "(repeatable)")
    audit.add_argument("--all", action="store_true",
                       help="print every verdict, not only the flagged "
                            "parameters")
    audit.add_argument("--json", metavar="PATH",
                       help="also write the machine-readable audit here")

    campaign = sub.add_parser("campaign",
                              help="run ZebraConf on one application")
    campaign.add_argument("app", choices=catalog.APP_NAMES)
    _add_campaign_flags(campaign)

    evaluate = sub.add_parser("evaluate",
                              help="run the paper's full evaluation "
                                   "(all six applications)")
    _add_campaign_flags(evaluate)

    worker = sub.add_parser("worker",
                            help="join a distributed campaign as a remote "
                                 "worker (the coordinator side is a normal "
                                 "campaign/evaluate run with --distributed)")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address to join")
    worker.add_argument("--name", default="",
                        help="worker name shown in the coordinator's fleet "
                             "table (default: host#pid)")
    worker.add_argument("--reconnect-attempts", type=int, default=8,
                        metavar="N",
                        help="consecutive failed (re)connects before the "
                             "worker gives up (default 8; backoff is "
                             "exponential with jitter)")
    _add_shared_flags(worker)
    _add_fault_flags(worker.add_argument_group(
        "network chaos", "deterministic fault injection on this worker's "
                         "own connections"), NET_FAULT_KINDS)

    store = sub.add_parser("store",
                           help="inspect or compact a durable result store "
                                "(docs/STORE.md)")
    store.add_argument("action", choices=("stats", "verify", "gc"),
                       help="stats: substrate and record totals; verify: "
                            "full integrity scan (exit 1 on any damage); "
                            "gc: compact quiescent segments, dropping "
                            "superseded duplicates and damaged spans")
    store.add_argument("dir", metavar="DIR", help="store directory")
    store.add_argument("--json", action="store_true",
                       help="print the machine-readable result on stdout "
                            "instead of the human rendering (exit codes "
                            "are unchanged)")

    serve = sub.add_parser("serve",
                           help="run the campaign-as-a-service HTTP/JSON "
                                "daemon: accept campaign submissions, "
                                "schedule them FIFO over a shared result "
                                "store, stream progress, serve reports "
                                "(docs/SERVICE.md)")
    serve.add_argument("listen", nargs="?", default="127.0.0.1:8787",
                       metavar="[HOST:]PORT",
                       help="listen address (default 127.0.0.1:8787; "
                            "port 0 binds an ephemeral port)")
    serve.add_argument("--serve-state", required=True, metavar="DIR",
                       help="persistent daemon state: job specs, status, "
                            "event feeds, reports, and the digest-keyed "
                            "checkpoint journals that make a SIGKILL'd "
                            "daemon resumable on restart")
    serve.add_argument("--serve-max-active", type=int, default=1,
                       metavar="N",
                       help="campaigns run concurrently (default 1); "
                            "queued jobs wait FIFO")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="durable result store shared by every "
                            "submission with \"store\": true (warm "
                            "resubmissions are served strictly cheaper; "
                            "docs/STORE.md)")
    serve.add_argument("--serve-secret", metavar="SECRET",
                       default=os.environ.get("REPRO_SERVE_SECRET")
                       or os.environ.get("REPRO_DIST_SECRET") or None,
                       help="require `Authorization: Bearer <token>` on "
                            "mutating endpoints, where the token is the "
                            "HMAC of this secret (print it with `repro "
                            "serve-token`; default: $REPRO_SERVE_SECRET, "
                            "then $REPRO_DIST_SECRET)")
    serve.add_argument("--dist-secret", metavar="SECRET",
                       default=os.environ.get("REPRO_DIST_SECRET") or None,
                       help="shared secret forwarded to campaigns that "
                            "request \"distributed\" dispatch over a "
                            "worker fleet (default: $REPRO_DIST_SECRET)")

    token = sub.add_parser("serve-token",
                           help="print the bearer token for a serve "
                                "secret (what clients must send in "
                                "`Authorization: Bearer <token>`)")
    token.add_argument("--secret", metavar="SECRET",
                       default=os.environ.get("REPRO_SERVE_SECRET")
                       or os.environ.get("REPRO_DIST_SECRET") or None,
                       help="the daemon's --serve-secret (default: "
                            "$REPRO_SERVE_SECRET, then $REPRO_DIST_SECRET)")
    token.add_argument("--json", action="store_true",
                       help="print {\"token\": ...} instead of the bare "
                            "hex token")

    validate = sub.add_parser("validate-obs",
                              help="schema-check observability artifacts "
                                   "(--trace-spans / --trace-chrome / "
                                   "--metrics-out outputs) and reconcile "
                                   "the metrics against a --json report")
    validate.add_argument("--spans", metavar="PATH",
                          help="span JSONL to validate")
    validate.add_argument("--chrome", metavar="PATH",
                          help="Chrome trace_event JSON to validate")
    validate.add_argument("--metrics", metavar="PATH",
                          help="Prometheus-style snapshot to validate")
    validate.add_argument("--report", metavar="JSON",
                          help="campaign --json report; with --metrics, "
                               "check that executions, cache hits, pool "
                               "voids and worker respawns match exactly")
    return parser


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``campaign``, ``evaluate`` and ``worker`` share; they
    set the config fields :func:`_shared_config_fields` returns."""
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers (default 1); >1 runs "
                             "profiles on the supervised pool of forked "
                             "processes (`evaluate` pools the apps with "
                             "profiles to run, at most N profiles of one "
                             "app at a time, as wide as the usable CPUs at "
                             "1 when two or more apps have some), and "
                             "`worker --workers N` forks N lease clients, "
                             "each its own fleet member (in process / one "
                             "client where fork is unavailable)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="durable cross-campaign result store: implies "
                             "--exec-cache accounting, persists outcomes and "
                             "reports to DIR so a second campaign starts "
                             "warm; findings are byte-identical warm or "
                             "cold (docs/STORE.md); a worker uses its store "
                             "only when the coordinator has one, and store "
                             "paths never travel over the wire")
    parser.add_argument("--dist-secret", metavar="SECRET",
                        default=os.environ.get("REPRO_DIST_SECRET") or None,
                        help="shared secret for the coordinator/worker HMAC "
                             "handshake (default: $REPRO_DIST_SECRET); each "
                             "side refuses a peer that does not "
                             "authenticate, and the secret never appears "
                             "on the wire or in the checkpoint journal")
    parser.add_argument("--worker-rlimit-mem", type=int, default=None,
                        metavar="MB",
                        help="RLIMIT_AS (address space, MB) for each "
                             "supervised pool worker, or each `repro "
                             "worker` client")


def _shared_config_fields(args: argparse.Namespace) -> Dict[str, Any]:
    """The config fields :func:`_add_shared_flags`' flags set."""
    return {"workers": args.workers,
            "store_path": args.store,
            "dist_secret": args.dist_secret,
            "worker_rlimit_mem_mb": args.worker_rlimit_mem}


def _fault_arg(kinds: Sequence[str]) -> Callable[[str], Tuple[str, Any]]:
    """The argparse type of ``--fault KIND=VALUE``, limited to ``kinds``."""
    def parse(text: str) -> Tuple[str, Any]:
        kind, _, value = text.partition("=")
        try:
            return check_faults({kind: float(value)}, kinds).popitem()
        except ValueError as exc:
            raise argparse.ArgumentTypeError("%s: %s" % (text, exc))
    return parse


def _add_fault_flags(group: argparse._ArgumentGroup,
                     kinds: Sequence[str]) -> None:
    """``--fault-seed`` and ``--fault KIND=VALUE`` for ``kinds``."""
    group.add_argument("--fault-seed", type=int, default=0, metavar="SEED",
                       help="seed for every deterministic fault schedule "
                            "(same seed = identical chaos, default 0)")
    group.add_argument("--fault", action="append", dest="faults",
                       type=_fault_arg(kinds), metavar="KIND=VALUE",
                       help="inject one fault kind (repeatable; overrides "
                            "the --chaos preset); VALUE is a probability, "
                            "or for net_partition the frames before each "
                            "connection is severed.  Kinds: "
                            + ", ".join(kinds))


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    _add_shared_flags(parser)
    parser.add_argument("--parallel-backend", choices=("process",),
                        help="accepted for compatibility and ignored: "
                             "--workers > 1 always forks processes")
    parser.add_argument("--exec-cache", action="store_true",
                        help="free-hit accounting: repeated executions "
                             "(shared baselines, re-formed pools, "
                             "confirmation trials), which every campaign "
                             "simulates once, cost nothing instead of being "
                             "charged as the paper does; verdicts are "
                             "byte-identical either way")
    parser.add_argument("--incremental", action="store_true",
                        help="plan against the --store before running: "
                             "profiles whose parameters and settings are "
                             "unchanged since their stored run are folded "
                             "back with zero fresh executions; changed or "
                             "new profiles run fresh (docs/PLANNING.md)")
    from repro.core.plan import SAMPLE_MODES
    parser.add_argument("--sample", choices=SAMPLE_MODES, default=None,
                        help="test a deterministic, seeded subset of each "
                             "profile's hetero-assignments instead of the "
                             "exhaustive enumeration: pairwise coverage, "
                             "random-k, or greedy dissimilarity "
                             "(docs/PLANNING.md)")
    parser.add_argument("--sample-k", type=int, default=None, metavar="N",
                        help="cell budget per (test, group) for --sample "
                             "random-k/dissimilarity (default: the pairwise "
                             "budget, for equal-cost comparisons)")
    parser.add_argument("--sample-seed", type=int, default=0, metavar="SEED",
                        help="seed for the --sample subset (same seed = "
                             "identical subset on every backend, default 0)")
    parser.add_argument("--audit", action="store_true",
                        help="run the registry wiring audit after the "
                             "campaign (UNREAD / READ_BUT_INERT verdicts, "
                             "docs/AUDIT.md); probe executions are "
                             "accounted separately, so every other report "
                             "section is unchanged")
    parser.add_argument("--pool-size", type=int, default=None,
                        help="max pooled parameters per run "
                             "(default: all, the paper's setting)")
    parser.add_argument("--blacklist-threshold", type=int, default=3,
                        help="distinct failing tests before a parameter is "
                             "marked unsafe outright (default 3)")
    parser.add_argument("--disable-ipc-sharing", action="store_true",
                        help="apply the paper's one-line Hadoop IPC fix")
    parser.add_argument("--param", action="append", dest="params",
                        metavar="NAME",
                        help="restrict testing to this parameter "
                             "(repeatable); e.g. vet a planned "
                             "reconfiguration before rolling it out")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the machine-readable report here")
    parser.add_argument("--compare", metavar="BASELINE_JSON",
                        help="diff the fresh report against a stored "
                             "--json baseline; exit 1 on new unsafe "
                             "parameters (regressions)")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write the report as a markdown document")
    resilience = parser.add_argument_group(
        "resilience", "checkpointing, crash containment, fault injection")
    resilience.add_argument("--profile-deadline", type=float, default=None,
                            metavar="SECONDS",
                            help="real-time wall-clock budget per unit-test "
                                 "profile wherever it runs: a supervised "
                                 "worker past it is SIGKILLed and the "
                                 "profile quarantined, and a --distributed "
                                 "coordinator requeues a lease older than "
                                 "it (default: none)")
    resilience.add_argument("--checkpoint", metavar="PATH",
                            help="journal finished work to this JSONL file "
                                 "and resume from it on restart (already-"
                                 "finished unit tests are not re-executed)")
    resilience.add_argument("--infra-retries", type=int, default=2,
                            metavar="N",
                            help="retries (with backoff) for infrastructure "
                                 "errors per execution (default 2); test-"
                                 "oracle failures are never retried")
    resilience.add_argument("--watchdog", type=float, default=None,
                            metavar="SIM_SECONDS",
                            help="simulated-time budget per execution before "
                                 "it is killed as a timeout (default: 30 "
                                 "simulated days)")
    resilience.add_argument("--chaos", action="store_true",
                            help="inject the moderate fault preset (message "
                                 "drops/delays/duplicates, node crashes, "
                                 "slow I/O, clock jitter, infra errors)")
    _add_fault_flags(resilience, tuple(FAULT_KINDS))
    distributed = parser.add_argument_group(
        "distributed execution", "coordinator-side remote worker fleet "
                                 "(docs/DISTRIBUTED.md)")
    distributed.add_argument("--distributed", metavar="[HOST:]PORT",
                             default=None,
                             help="serve this campaign's profiles to remote "
                                  "`repro worker --connect` processes over "
                                  "TCP; falls back to the local pool if the "
                                  "fleet never joins or is lost")
    distributed.add_argument("--dist-join-grace", type=float, default=20.0,
                             metavar="SECONDS",
                             help="how long to run with no live worker, "
                                  "from the start or from the last loss, "
                                  "before degrading to the local pool "
                                  "(default 20)")
    observability = parser.add_argument_group(
        "observability", "span tracing, metrics, live progress "
                         "(docs/OBSERVABILITY.md)")
    observability.add_argument("--trace-spans", metavar="PATH",
                               help="write the hierarchical span trace "
                                    "(app > profile > pool > instance > "
                                    "trial, wall + modelled clocks) as "
                                    "JSONL, with every pre-run, trial "
                                    "tally, retry and fault decision")
    observability.add_argument("--trace-chrome", metavar="PATH",
                               help="write a Chrome trace_event JSON "
                                    "loadable in Perfetto / chrome://tracing")
    observability.add_argument("--metrics-out", metavar="PATH",
                               help="write a Prometheus-style metrics "
                                    "snapshot (counters reconcile exactly "
                                    "with the report)")
    observability.add_argument("--progress", action="store_true",
                               help="live one-line progress on stderr "
                                    "(profiles done, executions, cache "
                                    "hit-rate, voids, respawns)")


def _config(args: argparse.Namespace) -> CampaignConfig:
    only = frozenset(args.params) if args.params else None
    fault_plan, disk_fault_plan, net_fault_plan = fault_plans(
        args.chaos, args.fault_seed, dict(args.faults or ()))
    config = CampaignConfig(**_shared_config_fields(args),
                            profile_deadline_s=args.profile_deadline,
                            max_pool_size=args.pool_size,
                            blacklist_threshold=args.blacklist_threshold,
                            disable_ipc_sharing=args.disable_ipc_sharing,
                            only_params=only,
                            fault_plan=fault_plan,
                            checkpoint_path=args.checkpoint,
                            infra_retries=args.infra_retries,
                            exec_cache=args.exec_cache,
                            incremental=args.incremental,
                            sample=args.sample,
                            sample_k=args.sample_k,
                            sample_seed=args.sample_seed,
                            disk_fault_plan=disk_fault_plan,
                            audit=args.audit,
                            distributed=args.distributed,
                            dist_join_grace_s=args.dist_join_grace,
                            net_fault_plan=net_fault_plan,
                            observe=bool(args.trace_spans or args.trace_chrome
                                         or args.metrics_out),
                            progress_stream=(sys.stderr if args.progress
                                             else None))
    if args.watchdog is not None:
        config.watchdog_sim_s = args.watchdog
    return config


def _write_observability(args: argparse.Namespace,
                         reports: "List[AppReport]") -> None:
    """Export spans/metrics collected by the campaign(s), if requested."""
    if not (args.trace_spans or args.trace_chrome or args.metrics_out):
        return
    from repro.core.observe import (write_chrome_trace, write_metrics_text,
                                    write_spans_jsonl)
    pairs = [(r.app, r.observation) for r in reports
             if r.observation is not None]
    if args.trace_spans:
        count = write_spans_jsonl(pairs, args.trace_spans)
        print("wrote %d spans to %s" % (count, args.trace_spans))
    if args.trace_chrome:
        count = write_chrome_trace(pairs, args.trace_chrome)
        print("wrote %d trace events to %s (open in Perfetto)"
              % (count, args.trace_chrome))
    if args.metrics_out:
        count = write_metrics_text(pairs, args.metrics_out)
        print("wrote %d metric samples to %s" % (count, args.metrics_out))


def _summed_report(record: dict) -> dict:
    """Collapse a campaign (multi-app) --json record into one app-shaped
    record so reconciliation can compare it against the merged metrics."""
    if "apps" not in record:
        return record
    total = {"executions": 0,
             "exec_cache": {"hits": 0, "misses": 0},
             "pool_stats": {"pool_voids": 0, "pool_runs": 0},
             "supervision": {"respawns": 0}}
    for app in record["apps"]:
        total["executions"] += app.get("executions", 0)
        cache = app.get("exec_cache", {})
        total["exec_cache"]["hits"] += cache.get("hits", 0)
        total["exec_cache"]["misses"] += cache.get("misses", 0)
        pool = app.get("pool_stats", {})
        total["pool_stats"]["pool_voids"] += pool.get("pool_voids", 0)
        total["pool_stats"]["pool_runs"] += pool.get("pool_runs", 0)
        supervision = app.get("supervision", {})
        total["supervision"]["respawns"] += supervision.get("respawns", 0)
    return total


def _validate_obs(args: argparse.Namespace) -> int:
    from repro.core.observe import (read_metrics_totals,
                                    reconcile_with_report,
                                    validate_chrome_trace,
                                    validate_metrics_text,
                                    validate_spans_jsonl)
    if not (args.spans or args.chrome or args.metrics):
        print("nothing to validate: pass --spans/--chrome/--metrics",
              file=sys.stderr)
        return 2
    failures = 0
    for label, path, validator in (
            ("spans", args.spans, validate_spans_jsonl),
            ("chrome trace", args.chrome, validate_chrome_trace),
            ("metrics", args.metrics, validate_metrics_text)):
        if not path:
            continue
        try:
            count = validator(path)
        except (OSError, ValueError) as exc:
            print("%s: INVALID — %s" % (label, exc), file=sys.stderr)
            failures += 1
        else:
            print("%s: OK (%d records) — %s" % (label, count, path))
    if args.report and args.metrics and failures == 0:
        with open(args.report) as handle:
            record = _summed_report(json.load(handle))
        problems = reconcile_with_report(read_metrics_totals(args.metrics),
                                         record)
        if problems:
            for problem in problems:
                print("reconciliation: MISMATCH — %s" % problem,
                      file=sys.stderr)
            failures += 1
        else:
            print("reconciliation: OK (metrics match the report exactly)")
    return 1 if failures else 0


def _store_command(args: argparse.Namespace) -> int:
    """``repro store {stats,verify,gc} DIR [--json]``.

    ``--json`` prints the machine-readable result (the same dict
    ``ResultStore.summary()``/``gc()`` return, plus an ``ok`` flag for
    ``verify``) on stdout; exit codes are identical either way, so
    scripts can both parse and gate in one call.
    """
    from repro.core.store import ResultStore, StoreError
    store = ResultStore(args.dir)
    try:
        if args.json:
            if args.action == "gc":
                record = store.gc()
            else:
                record = store.summary()
                if args.action == "verify":
                    record["ok"] = not (record["corrupt_records"]
                                        or record["truncated_tails"])
            print(json.dumps(record, indent=2, sort_keys=True))
            if args.action == "verify" and not record["ok"]:
                return 1
            return 0
        summary = store.summary()
        if args.action == "stats":
            print("store %s: %d segment(s), %s bytes"
                  % (args.dir, summary["segments"],
                     format(summary["bytes"], ",")))
            print("records: %d entries (%d deterministic, %d seeded), "
                  "%d report(s)"
                  % (summary["entries"], summary["deterministic"],
                     summary["seeded"], summary["reports"]))
            rows = [[s["app"], s["digest"], s["entries"], s["reports"]]
                    for s in summary["substrates"]]
            if rows:
                print(render_table(["App", "Corpus digest", "Entries",
                                    "Reports"], rows))
            if summary["corrupt_records"] or summary["truncated_tails"]:
                print("damage: %d corrupt record(s), %d truncated tail(s) "
                      "— %d record(s) salvaged around them; run "
                      "`repro store gc %s` to drop the damaged spans"
                      % (summary["corrupt_records"],
                         summary["truncated_tails"],
                         summary["salvaged_records"], args.dir))
            return 0
        if args.action == "verify":
            damage = summary["corrupt_records"] + summary["truncated_tails"]
            if damage:
                print("store %s: DAMAGED — %d corrupt record(s), %d "
                      "truncated tail(s); %d intact record(s) remain "
                      "readable" % (args.dir, summary["corrupt_records"],
                                    summary["truncated_tails"],
                                    summary["entries"] + summary["reports"]),
                      file=sys.stderr)
                return 1
            print("store %s: OK — %d record(s) across %d segment(s), "
                  "every frame intact"
                  % (args.dir, summary["entries"] + summary["reports"],
                     summary["segments"]))
            return 0
        result = store.gc()
        print("gc %s: compacted %d segment(s)%s, kept %d live segment(s) "
              "untouched; %d entries + %d report(s) survive, %d damaged "
              "span(s) dropped"
              % (args.dir, result["compacted_segments"],
                 " into %s" % result["segment"] if "segment" in result
                 else "",
                 result["kept_segments"], result["entries"],
                 result["reports"], result["dropped_damage"]))
        return 0
    except StoreError as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}))
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _print_app_report(report: AppReport) -> None:
    print("instance counts per stage:")
    for stage, count in report.stage_counts.rows():
        print("  %-32s %12s" % (stage, format(count, ",")))
    print()
    rows = [[v.param,
             "TRUE PROBLEM" if v.is_true_problem else "false positive",
             v.category if v.is_true_problem else v.fp_reason]
            for v in report.verdicts]
    if rows:
        print(render_table(["Parameter", "Verdict", "Category / FP cause"],
                           rows))
    else:
        print("no heterogeneous-unsafe parameters reported")
    print("\n%d reported (%d true problems, %d false positives); "
          "%d executions, %.1f modelled machine hours"
          % (len(report.verdicts), len(report.true_problems),
             len(report.false_positives), report.executions,
             report.machine_time_s / 3600))
    if report.audit is not None:
        audit = report.audit
        print("wiring audit: %d parameters — %d WIRED, %d UNREAD, "
              "%d READ_BUT_INERT (%d flagged; %d probe executions in a "
              "separate budget)"
              % (audit.params_total, audit.wired, audit.unread,
                 audit.inert, len(audit.flagged()),
                 audit.probe_executions))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "validate-obs":
        return _validate_obs(args)

    if args.command == "store":
        return _store_command(args)

    if args.command == "serve":
        from repro.core.service import run_service
        return run_service(args.listen, state_dir=args.serve_state,
                           store_path=args.store,
                           max_active=args.serve_max_active,
                           secret=args.serve_secret,
                           dist_secret=args.dist_secret)

    if args.command == "serve-token":
        from repro.core.service import service_token
        if not args.secret:
            print("error: no secret (pass --secret or set "
                  "$REPRO_SERVE_SECRET)", file=sys.stderr)
            return 2
        token = service_token(args.secret)
        if args.json:
            print(json.dumps({"token": token}))
        else:
            print(token)
        return 0

    if args.command == "list-apps":
        corpus = load_all_suites()
        rows = [[app, len(corpus.for_app(app)),
                 len(catalog.spec_for(app).registry)]
                for app in catalog.APP_NAMES]
        print(render_table(["App", "#unit tests", "#parameters"], rows))
        return 0

    if args.command == "list-params":
        spec = catalog.spec_for(args.app)
        unsafe = set(spec.expected_unsafe)
        rows = []
        for param in spec.registry:
            if args.unsafe_only and param.name not in unsafe:
                continue
            rows.append([param.name, param.kind, repr(param.default),
                         "UNSAFE (Table 3)" if param.name in unsafe else ""])
        print(render_table(["Parameter", "Kind", "Default", ""], rows))
        return 0

    if args.command == "corpus":
        corpus = load_all_suites()
        rows = [[t.name,
                 "flaky" if t.flaky else "",
                 "" if t.realistic else "unrealistic",
                 t.observability if t.observability != "public" else ""]
                for t in corpus.for_app(args.app)]
        print(render_table(["Unit test", "", "", ""], rows))
        return 0

    if args.command == "why":
        definition = None
        for app in catalog.APP_NAMES:
            definition = catalog.spec_for(app).registry.maybe_get(args.param)
            if definition is not None:
                break
        if definition is None:
            print("unknown parameter %r" % args.param, file=sys.stderr)
            return 1
        print("parameter : %s" % definition.name)
        print("section   : %s" % catalog.section_for_param(definition.name))
        print("kind      : %s   default: %r" % (definition.kind,
                                                definition.default))
        if definition.description:
            print("about     : %s" % definition.description)
        why_text = catalog.TABLE3_WHY.get(definition.name)
        if why_text is not None:
            print("TABLE 3   : heterogeneous-UNSAFE — %s" % why_text)
        else:
            print("table 3   : not listed (no known heterogeneous hazard)")
        return 0

    if args.command == "audit":
        from repro.core.audit import audit_app
        started = time.time()
        stats = audit_app(args.app, params=args.params)
        print("wiring audit over %r finished in %.1fs: %d parameters — "
              "%d WIRED, %d UNREAD, %d READ_BUT_INERT"
              % (args.app, time.time() - started, stats.params_total,
                 stats.wired, stats.unread, stats.inert))
        print("probe economy: %d executions, %d memo hits, %d collapsed "
              "onto the baseline (%.1f modelled machine hours)\n"
              % (stats.probe_executions, stats.probe_cache_hits,
                 stats.probes_collapsed, stats.machine_time_s / 3600))
        shown = stats.findings if args.all else stats.flagged()
        rows = [[f.param,
                 f.verdict + (" (exempt)" if f.exempt else ""),
                 len(f.read_sites), f.detail] for f in shown]
        if rows:
            print(render_table(["Parameter", "Verdict", "Read sites",
                                "Detail"], rows))
        else:
            print("every audited parameter is wired")
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(stats.to_dict(), handle, indent=2)
            print("\nwrote %s" % args.json)
        return 0

    if args.command == "worker":
        from repro.core.distrib import run_worker
        _, _, net_fault_plan = fault_plans(False, args.fault_seed,
                                           dict(args.faults or ()))
        return run_worker(args.connect,
                          worker_config=CampaignConfig(
                              **_shared_config_fields(args)),
                          name=args.name,
                          net_fault_plan=net_fault_plan,
                          max_reconnects=args.reconnect_attempts,
                          log=sys.stderr)

    if args.command == "campaign":
        if args.incremental and not args.store:
            print("error: --incremental requires --store (the plan is a "
                  "diff against stored profile records)", file=sys.stderr)
            return 2
        spec = catalog.spec_for(args.app)
        config = _config(args)
        started = time.time()
        from repro.core.store import StoreError
        try:
            report = Campaign(args.app, spec.registry,
                              dependency_rules=spec.dependency_rules,
                              config=config).run()
        except (CheckpointError, StoreError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print("campaign over %r finished in %.1fs\n"
              % (args.app, time.time() - started))
        _print_app_report(report)
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(app_report_to_dict(report), handle, indent=2)
            print("\nwrote %s" % args.json)
        if args.markdown:
            from repro.core.reportmd import app_report_markdown
            with open(args.markdown, "w") as handle:
                handle.write(app_report_markdown(report))
            print("wrote %s" % args.markdown)
        _write_observability(args, [report])
        if args.compare:
            from repro.core.baseline import compare_to_baseline, load_baseline
            diff = compare_to_baseline(report, load_baseline(args.compare))
            print("\n" + diff.render())
            if diff.has_regressions:
                return 1
        return 0

    if args.command == "evaluate":
        if args.compare:
            print("--compare works with per-application baselines; use "
                  "`repro campaign <app> --compare ...`", file=sys.stderr)
            return 2
        if args.incremental and not args.store:
            print("error: --incremental requires --store (the plan is a "
                  "diff against stored profile records)", file=sys.stderr)
            return 2
        config = _config(args)
        started = time.time()
        from repro.core.store import StoreError
        try:
            report = run_full_campaign(config)
        except (CheckpointError, StoreError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print("full evaluation finished in %.1fs\n" % (time.time() - started))
        print(render_unsafe_params(report))
        print()
        print(render_stage_counts(report.apps))
        print()
        print(render_summary(report))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(campaign_report_to_dict(report), handle, indent=2)
            print("\nwrote %s" % args.json)
        if args.markdown:
            from repro.core.reportmd import campaign_report_markdown
            with open(args.markdown, "w") as handle:
                handle.write(campaign_report_markdown(report))
            print("wrote %s" % args.markdown)
        _write_observability(args, report.apps)
        return 0

    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
