"""Campaign reports: per-application and combined results + rendering.

The structures here carry everything the evaluation benches print:
Table-5-style stage counts, the reported/true/false-positive parameter
split (§7.1), pool statistics, hypothesis-testing effects (§7.2), and
machine-time accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.audit import AuditStats
from repro.core.pooling import PoolStats
from repro.core.prerun import PreRunSummary
from repro.core.runner import InstanceResult
from repro.core.triage import ParamVerdict


@dataclass
class StageCounts:
    """Test-instance counts after each §4 technique (one Table 5 column)."""

    original: int = 0
    after_prerun: int = 0
    after_uncertainty: int = 0
    after_pooling: int = 0

    def reduction_orders(self) -> float:
        """Orders of magnitude between original and pooled counts."""
        import math
        if self.after_pooling <= 0 or self.original <= 0:
            return 0.0
        return math.log10(self.original / self.after_pooling)

    def rows(self) -> List[Tuple[str, int]]:
        return [("Original", self.original),
                ("After pre-running unit tests", self.after_prerun),
                ("After removing uncertainty", self.after_uncertainty),
                ("After pooled testing", self.after_pooling)]


@dataclass
class HypothesisTestingStats:
    """§7.2: first-trial failures vs what multi-trial confirmation kept."""

    suspicious_first_trial: int = 0
    confirmed: int = 0
    filtered_as_flaky: int = 0


@dataclass
class SupervisionStats:
    """What the supervised worker pool did to keep the campaign alive.

    Run-scoped operational counters (how many workers this particular
    run spawned, killed, respawned), *not* findings: a resumed campaign
    legitimately reports different numbers here while reproducing the
    same verdicts, so cross-run byte-identity comparisons should treat
    this block as volatile.
    """

    #: the run used the supervised process pool (repro.core.supervise).
    enabled: bool = False
    workers_spawned: int = 0
    #: worker processes that died (crash, RLIMIT_AS kill, injected death).
    crashes: int = 0
    #: replacement workers forked after a death.
    respawns: int = 0
    #: profiles re-sent to a fresh worker after their worker died.
    redeliveries: int = 0
    #: workers SIGKILLed for exceeding the per-profile wall deadline.
    deadline_kills: int = 0
    #: workers SIGKILLed for missing heartbeats (frozen, not just slow).
    heartbeat_kills: int = 0
    #: profiles that exhausted redelivery (or hit the deadline) and were
    #: recorded as WORKER_CRASH infra outcomes instead of retried.
    quarantined: int = 0
    #: >= CRASH_LOOP_THRESHOLD consecutive worker deaths: the supervisor
    #: stopped dispatching and salvaged a partial report.
    circuit_breaker_tripped: bool = False


@dataclass
class FleetWorker:
    """One remote worker's contribution, aggregated across reconnects."""

    worker: str
    #: connections accepted under this worker name (1 = never dropped).
    connects: int = 0
    #: profiles whose first (winning) outcome arrived on this worker.
    profiles: int = 0
    #: leases this worker held when a connection of its was declared lost.
    leases_lost: int = 0


@dataclass
class DistributionStats:
    """What the distributed coordinator did to keep the campaign alive.

    Run-scoped operational counters, volatile like
    :class:`SupervisionStats`: byte-identity comparisons against serial
    runs must treat this block (and ``supervision``) as excluded.
    """

    #: the run used the distributed coordinator (repro.core.distrib).
    enabled: bool = False
    #: the address the coordinator actually bound ("host:port").
    listen: str = ""
    #: worker connections that completed the hello/welcome handshake.
    workers_joined: int = 0
    #: connections declared lost (EOF, reset, heartbeat silence).
    workers_lost: int = 0
    leases_granted: int = 0
    #: leases re-queued after their holder was lost or the lease expired.
    redeliveries: int = 0
    #: work-stealing copies granted of still-outstanding leases.
    steals: int = 0
    #: results acked but dropped because the profile was already
    #: committed (resend after a lost ack, or a losing stolen copy).
    duplicates_suppressed: int = 0
    #: workers declared lost purely for heartbeat silence.
    heartbeat_expiries: int = 0
    #: leases re-queued for exceeding ``profile_deadline_s``.
    lease_expiries: int = 0
    #: profiles quarantined as WORKER_CRASH after exhausting redelivery.
    quarantined: int = 0
    #: connections refused by the HMAC handshake (bad/missing secret).
    auth_rejects: int = 0
    #: profiles committed from remote outcomes.
    remote_profiles: int = 0
    #: profiles finished by the local fallback pool after degradation.
    local_profiles: int = 0
    #: the coordinator gave up on the fleet (its join grace expired)
    #: and handed the rest of the campaign to the local pool.
    degraded_to_local: bool = False
    #: injected transport fault kind -> count (coordinator side).
    net_faults: Dict[str, int] = field(default_factory=dict)
    #: per-worker rollup, sorted by worker name.
    fleet: List["FleetWorker"] = field(default_factory=list)


@dataclass
class CostCenter:
    """Where a campaign's machine time went, per unit test.

    Computed from the same per-profile accounting the totals use, so
    the rows always sum into ``AppReport.executions`` (minus prerun) —
    deterministic across backends, available even when the observability
    layer is off.
    """

    test: str
    executions: int
    machine_time_s: float
    instances: int


@dataclass
class AppReport:
    """Everything one application's campaign produced."""

    app: str
    stage_counts: StageCounts
    prerun_summary: PreRunSummary
    pool_stats: PoolStats
    hypothesis_stats: HypothesisTestingStats
    verdicts: List[ParamVerdict]
    results_by_param: Dict[str, List[InstanceResult]]
    blacklisted: Tuple[str, ...]
    executions: int
    machine_time_s: float
    #: fault kind -> injections performed, when a chaos plan was active.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: infrastructure-error retries burned across all executions.
    infra_retries_performed: int = 0
    #: tests whose profile run crashed and was contained (not aborted).
    degraded_tests: Tuple[str, ...] = ()
    #: subset of degraded_tests whose worker *process* died (error_kind
    #: WORKER_CRASH): quarantined poison profiles, deadline kills, and
    #: profiles cut short by the circuit breaker.
    quarantined_tests: Tuple[str, ...] = ()
    #: per-test error text for degraded tests (full child traceback or
    #: exit-signal description), keyed by test full name.
    degraded_errors: Dict[str, str] = field(default_factory=dict)
    #: the campaign memoized executions (repro.core.execcache); counters
    #: live in pool_stats.exec_cache_*.
    exec_cache_enabled: bool = False
    #: supervised-pool counters (all-zero when supervision was off).
    supervision: SupervisionStats = field(default_factory=SupervisionStats)
    #: distributed-coordinator counters (all-zero without --distributed).
    distribution: DistributionStats = field(default_factory=DistributionStats)
    #: durable result-store counters (repro.core.store.StoreStats) when
    #: the campaign ran with ``--store``; None otherwise.  Volatile like
    #: supervision/distribution: a warm run legitimately reports
    #: different numbers here while reproducing the same findings.
    store: Optional[object] = None
    #: registry wiring-audit results (repro.core.audit) when the campaign
    #: ran with ``--audit``; None otherwise.  Audit probe executions are
    #: accounted inside this block only — never in ``executions`` or
    #: ``machine_time_s`` — so enabling the audit leaves every other
    #: report section byte-identical.
    audit: Optional[AuditStats] = None
    #: most expensive unit tests first (see CostCenter); () before the
    #: campaign computed them.
    cost_centers: Tuple[CostCenter, ...] = ()
    #: the incremental campaign plan (repro.core.plan.CampaignPlan) when
    #: the campaign ran with ``--incremental``; None otherwise.  Like the
    #: store block it is volatile — the classification depends on what
    #: earlier campaigns persisted — and deliberately NOT part of
    #: FINDINGS_KEYS: a REUSE-heavy plan must report the same findings
    #: as a cold run while reporting far fewer executions.
    plan: Optional[object] = None
    #: the campaign-level repro.core.observe.Observation when the
    #: observability layer was on, else None.  Deliberately excluded
    #: from app_report_to_dict: exporters own the serialised forms.
    observation: Optional[object] = None

    @property
    def reported_params(self) -> List[str]:
        return [v.param for v in self.verdicts]

    @property
    def true_problems(self) -> List[ParamVerdict]:
        return [v for v in self.verdicts if v.is_true_problem]

    @property
    def false_positives(self) -> List[ParamVerdict]:
        return [v for v in self.verdicts if not v.is_true_problem]


@dataclass
class CampaignReport:
    """Combined report over all applications (the paper's full evaluation)."""

    apps: List[AppReport] = field(default_factory=list)

    def app(self, name: str) -> AppReport:
        for report in self.apps:
            if report.app == name:
                return report
        raise KeyError(name)

    @property
    def total_machine_hours(self) -> float:
        return sum(a.machine_time_s for a in self.apps) / 3600.0

    # ------------------------------------------------------------------
    # cross-campaign deduplication: HBase tests rediscover HDFS params,
    # every Hadoop app rediscovers Hadoop Common params, etc.  Table 3
    # lists each parameter once, so the combined tallies dedupe by name.
    # ------------------------------------------------------------------
    def unique_verdicts(self) -> Dict[str, ParamVerdict]:
        merged: Dict[str, ParamVerdict] = {}
        for app_report in self.apps:
            for verdict in app_report.verdicts:
                existing = merged.get(verdict.param)
                if existing is None or (verdict.is_true_problem
                                        and not existing.is_true_problem):
                    merged[verdict.param] = verdict
        return merged

    def unique_true_problems(self) -> List[ParamVerdict]:
        return sorted((v for v in self.unique_verdicts().values()
                       if v.is_true_problem), key=lambda v: v.param)

    def unique_false_positives(self) -> List[ParamVerdict]:
        return sorted((v for v in self.unique_verdicts().values()
                       if not v.is_true_problem), key=lambda v: v.param)


# ---------------------------------------------------------------------------
# JSON-friendly export (used by the CLI's --json flag)
# ---------------------------------------------------------------------------
def verdict_to_dict(verdict: ParamVerdict) -> Dict[str, object]:
    return {
        "param": verdict.param,
        "verdict": verdict.verdict,
        "category": verdict.category,
        "fp_reason": verdict.fp_reason,
        "failing_tests": list(verdict.failing_tests),
        "sample_error": verdict.sample_error,
    }


def app_report_to_dict(report: AppReport) -> Dict[str, object]:
    return {
        "app": report.app,
        "stage_counts": dict(report.stage_counts.rows()),
        "verdicts": [verdict_to_dict(v) for v in report.verdicts],
        "true_problems": [v.param for v in report.true_problems],
        "false_positives": [v.param for v in report.false_positives],
        "blacklisted": list(report.blacklisted),
        "executions": report.executions,
        "machine_time_s": report.machine_time_s,
        "prerun": {
            "total_tests": report.prerun_summary.total_tests,
            "tests_without_nodes": report.prerun_summary.tests_without_nodes,
            "tests_broken_at_baseline":
                report.prerun_summary.tests_broken_at_baseline,
            "tests_with_uncertain_confs":
                report.prerun_summary.tests_with_uncertain_confs,
        },
        "hypothesis_testing": {
            "suspicious_first_trial":
                report.hypothesis_stats.suspicious_first_trial,
            "confirmed": report.hypothesis_stats.confirmed,
            "filtered_as_flaky": report.hypothesis_stats.filtered_as_flaky,
        },
        "pool_stats": {
            "pool_runs": report.pool_stats.pool_runs,
            "bisection_runs": report.pool_stats.bisection_runs,
            "singleton_instances": report.pool_stats.singleton_instances,
            "pools_cleared": report.pool_stats.pools_cleared,
            "blacklist_skips": report.pool_stats.blacklist_skips,
            "pool_voids": report.pool_stats.pool_voids,
            "pool_infra_giveups": report.pool_stats.pool_infra_giveups,
        },
        "exec_cache": {
            "enabled": report.exec_cache_enabled,
            "hits": report.pool_stats.exec_cache_hits,
            "misses": report.pool_stats.exec_cache_misses,
            "bypasses": report.pool_stats.exec_cache_bypasses,
        },
        "resilience": {
            "fault_counts": dict(sorted(report.fault_counts.items())),
            "infra_retries_performed": report.infra_retries_performed,
            "degraded_tests": list(report.degraded_tests),
            "quarantined_tests": list(report.quarantined_tests),
        },
        "audit": (None if report.audit is None else report.audit.to_dict()),
        "cost_centers": [
            {"test": center.test, "executions": center.executions,
             "machine_time_s": center.machine_time_s,
             "instances": center.instances}
            for center in report.cost_centers
        ],
        "supervision": {
            "enabled": report.supervision.enabled,
            "workers_spawned": report.supervision.workers_spawned,
            "crashes": report.supervision.crashes,
            "respawns": report.supervision.respawns,
            "redeliveries": report.supervision.redeliveries,
            "deadline_kills": report.supervision.deadline_kills,
            "heartbeat_kills": report.supervision.heartbeat_kills,
            "quarantined": report.supervision.quarantined,
            "circuit_breaker_tripped":
                report.supervision.circuit_breaker_tripped,
        },
        "plan": (None if report.plan is None else report.plan.to_dict()),
        "store": (None if report.store is None else {
            "enabled": True,
            "segments": report.store.segments,
            "entries_loaded": report.store.entries_loaded,
            "profiles_loaded": report.store.profiles_loaded,
            "hits": report.store.hits,
            "misses": report.store.misses,
            "appends": report.store.appends,
            "salvaged_records": report.store.salvaged_records,
            "corrupt_records": report.store.corrupt_records,
            "truncated_tails": report.store.truncated_tails,
            "stale_refused": report.store.stale_refused,
            "write_errors": report.store.write_errors,
        }),
        "distribution": {
            "enabled": report.distribution.enabled,
            "listen": report.distribution.listen,
            "workers_joined": report.distribution.workers_joined,
            "workers_lost": report.distribution.workers_lost,
            "leases_granted": report.distribution.leases_granted,
            "redeliveries": report.distribution.redeliveries,
            "steals": report.distribution.steals,
            "duplicates_suppressed": report.distribution.duplicates_suppressed,
            "heartbeat_expiries": report.distribution.heartbeat_expiries,
            "lease_expiries": report.distribution.lease_expiries,
            "auth_rejects": report.distribution.auth_rejects,
            "quarantined": report.distribution.quarantined,
            "remote_profiles": report.distribution.remote_profiles,
            "local_profiles": report.distribution.local_profiles,
            "degraded_to_local": report.distribution.degraded_to_local,
            "net_faults": dict(sorted(report.distribution.net_faults.items())),
            "fleet": [
                {"worker": w.worker, "connects": w.connects,
                 "profiles": w.profiles, "leases_lost": w.leases_lost}
                for w in sorted(report.distribution.fleet,
                                key=lambda w: w.worker)
            ],
        },
    }


#: The subset of :func:`app_report_to_dict` that constitutes *findings*:
#: everything the paper's tables are built from.  Deliberately excludes
#: operational accounting (executions, machine time, cache/store/
#: supervision/distribution counters, per-test cost centers), which
#: legitimately differs between a cold and a warm ``--store`` run while
#: the findings must stay byte-identical.
FINDINGS_KEYS: Tuple[str, ...] = (
    "app", "stage_counts", "verdicts", "true_problems", "false_positives",
    "blacklisted", "prerun", "hypothesis_testing", "pool_stats")


def findings_projection(record: Dict[str, object]) -> Dict[str, object]:
    """The findings slice of an ``app_report_to_dict`` record, used by
    warm-vs-cold store equivalence assertions in tests, benches and CI."""
    return {key: record[key] for key in FINDINGS_KEYS}


def campaign_report_to_dict(report: CampaignReport) -> Dict[str, object]:
    return {
        "apps": [app_report_to_dict(a) for a in report.apps],
        "unique_true_problems": [v.param
                                 for v in report.unique_true_problems()],
        "unique_false_positives": [v.param
                                   for v in report.unique_false_positives()],
        "total_machine_hours": report.total_machine_hours,
    }


# ---------------------------------------------------------------------------
# plain-text rendering used by benches and examples
# ---------------------------------------------------------------------------
def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Minimal fixed-width table renderer (no third-party deps)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_stage_counts(reports: Sequence[AppReport]) -> str:
    """Table 5: instance counts after successively applied methods."""
    headers = ["Stage"] + [r.app for r in reports]
    stage_names = [name for name, _ in reports[0].stage_counts.rows()]
    rows = []
    for row_index, stage in enumerate(stage_names):
        row = [stage]
        for report in reports:
            row.append("{:,}".format(report.stage_counts.rows()[row_index][1]))
        rows.append(row)
    return render_table(headers, rows)


def render_unsafe_params(report: CampaignReport) -> str:
    """Table 3: the true heterogeneous-unsafe parameters found, listed
    once each under the section that owns the parameter."""
    from repro.apps.catalog import section_for_param
    rows = []
    for verdict in report.unique_true_problems():
        rows.append([section_for_param(verdict.param), verdict.param,
                     verdict.category])
    rows.sort(key=lambda row: (row[0], row[1]))
    return render_table(["Section", "Parameter", "Category"], rows)


def render_summary(report: CampaignReport) -> str:
    """§7.1 headline numbers, deduplicated across campaigns like Table 3."""
    lines = [
        "reported parameters      : %d" % len(report.unique_verdicts()),
        "true problems            : %d" % len(report.unique_true_problems()),
        "false positives          : %d" % len(report.unique_false_positives()),
        "machine hours (modelled) : %.1f" % report.total_machine_hours,
    ]
    return "\n".join(lines)
