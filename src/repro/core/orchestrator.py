"""Campaign orchestration: pre-run -> generate -> pool -> run -> triage.

:class:`Campaign` drives ZebraConf end-to-end for one application, and
:func:`run_full_campaign` reproduces the paper's whole evaluation across
all target applications.  Unit tests are independent, so profiles can
fan out across worker processes, and whole applications across forked
lanes (the paper used up to 100 machines; §4 "Test in parallel").
"""

from __future__ import annotations

import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.faults import FaultPlan
from repro.common.node import NODE_TYPES
from repro.common.params import ParamRegistry
from repro.common.simulation import kernel_stats_snapshot
from repro.core import parallel
from repro.core.confagent import UNIT_TEST
from repro.core.checkpoint import (CampaignCheckpoint, result_from_dict,
                                   result_to_dict)
from repro.core.costmodel import CostModel
from repro.core.execcache import ExecutionCache
from repro.core.observe import MetricsRegistry, Observation, ProgressReporter
from repro.core.plan import (PLAN_DECISIONS, PLAN_REUSE, SAMPLE_MODES,
                             CampaignPlan, build_plan, profile_key,
                             sample_cells)
from repro.core.pooling import FrequentFailureTracker, PooledTester, PoolStats
from repro.core.prerun import PreRunSummary, TestProfile, prerun_corpus
from repro.core.registry import CORPUS, Corpus, UnitTest
from repro.core.report import (AppReport, CampaignReport, CostCenter,
                               DistributionStats, HypothesisTestingStats,
                               StageCounts, SupervisionStats)
from repro.core.runner import (CONFIRMED_UNSAFE, DEFAULT_WATCHDOG_SIM_S,
                               FLAKY_DISMISSED, WORKER_CRASH, InstanceResult,
                               TestRunner)
from repro.core.stats import DEFAULT_ALPHA
from repro.core.testgen import DependencyRule, TestGenerator
from repro.core.triage import ParamVerdict, triage_report

#: ProfileOutcome.error_kind for an exception contained *in-process*
#: (the campaign or worker process survived; partial accounting was
#: preserved).
HARNESS_ERROR = "harness-error"


class CampaignCancelled(BaseException):
    """Cooperative cancellation requested via CampaignConfig.cancel_event.

    A BaseException (like KeyboardInterrupt) so the graceful-degradation
    ``except Exception`` containment in the profile runners lets it
    propagate instead of folding it into a degraded outcome.  Profiles
    committed before the cancel are already journaled through the
    checkpoint layer, so a cancelled campaign resumes exactly like a
    crashed one.
    """

#: PoolStats field -> deterministic metric name.  Driven off the stats
#: object so the observability layer and the report always agree (the
#: reconciliation check in repro.core.observe depends on it).
_POOL_METRICS = {
    "pool_runs": "zc_pool_runs_total",
    "bisection_runs": "zc_bisection_runs_total",
    "singleton_instances": "zc_singleton_instances_total",
    "pools_cleared": "zc_pools_cleared_total",
    "params_cleared_in_pools": "zc_params_cleared_in_pools_total",
    "interference_events": "zc_interference_events_total",
    "blacklist_skips": "zc_blacklist_skips_total",
    "already_confirmed_skips": "zc_already_confirmed_skips_total",
    "pool_voids": "zc_pool_voids_total",
    "pool_infra_giveups": "zc_pool_infra_giveups_total",
    "exec_cache_hits": "zc_exec_cache_hits_total",
    "exec_cache_misses": "zc_exec_cache_misses_total",
    "exec_cache_bypasses": "zc_exec_cache_bypasses_total",
}

#: DistributionStats field -> volatile (run-scoped) metric name.
_DIST_METRICS = {
    "workers_joined": "zc_dist_workers_joined_total",
    "workers_lost": "zc_dist_workers_lost_total",
    "leases_granted": "zc_dist_leases_granted_total",
    "redeliveries": "zc_dist_redeliveries_total",
    "steals": "zc_dist_lease_steals_total",
    "duplicates_suppressed": "zc_dist_duplicate_outcomes_total",
    "heartbeat_expiries": "zc_dist_heartbeat_expiries_total",
    "lease_expiries": "zc_dist_lease_expiries_total",
    "quarantined": "zc_dist_quarantined_total",
    "auth_rejects": "zc_dist_auth_rejects_total",
    "remote_profiles": "zc_dist_remote_profiles_total",
    "local_profiles": "zc_dist_local_fallback_profiles_total",
}

#: SupervisionStats field -> volatile (run-scoped) metric name.
_SUPERVISION_METRICS = {
    "workers_spawned": "zc_runtime_workers_spawned_total",
    "crashes": "zc_runtime_worker_crashes_total",
    "respawns": "zc_runtime_respawns_total",
    "redeliveries": "zc_runtime_redeliveries_total",
    "deadline_kills": "zc_runtime_deadline_kills_total",
    "heartbeat_kills": "zc_runtime_heartbeat_kills_total",
    "recycles": "zc_runtime_worker_recycles_total",
    "quarantined": "zc_runtime_quarantined_total",
}


@dataclass
class CampaignConfig:
    """Tunables; defaults reproduce the paper's settings."""

    alpha: float = DEFAULT_ALPHA
    max_trials: int = 40
    blacklist_threshold: int = 3
    max_value_pairs: int = 3
    #: None = pool size equals the number of parameters (paper's setting).
    max_pool_size: Optional[int] = None
    #: modelled seconds of machine time per unit-test execution.
    run_cost_s: float = 60.0
    workers: int = 1
    #: the paper's one-line Hadoop fix for the shared IPC component; off by
    #: default so campaigns reproduce the IPC false positives first.
    disable_ipc_sharing: bool = False
    #: restrict the campaign to these parameters (None = all).  Useful to
    #: vet a specific reconfiguration plan before rolling it out.
    only_params: Optional[frozenset] = None
    #: optional structured event log (see repro.core.tracelog).
    trace: Optional[Any] = None
    #: deterministic chaos schedule applied to every execution (None or an
    #: all-zero plan = clean runs).  See repro.common.faults.
    fault_plan: Optional[FaultPlan] = None
    #: JSONL journal for checkpoint/resume (None = no checkpointing).
    checkpoint_path: Optional[str] = None
    #: bounded retries for infrastructure errors per execution.
    infra_retries: int = 2
    #: simulated-seconds budget per execution before TEST_TIMEOUT.
    watchdog_sim_s: float = DEFAULT_WATCHDOG_SIM_S
    #: memoize executions in a content-addressed cache (see
    #: repro.core.execcache); verdicts are byte-identical either way.
    exec_cache: bool = False
    #: directory of the durable cross-campaign result store (see
    #: repro.core.store).  Implies the execution cache: lookups fall
    #: through to persisted entries and fresh outcomes are appended
    #: durably, so a second campaign against the same store starts warm.
    #: Findings are byte-identical warm or cold.
    store_path: Optional[str] = None
    #: deterministic disk chaos applied to the store's own writes
    #: (repro.common.faults.DiskFaultPlan; None = clean disk).  Exercises
    #: the store's salvage/degradation paths, never the simulated app.
    disk_fault_plan: Optional[Any] = None
    #: plan the campaign against the store before running (requires
    #: store_path): profiles whose parameter substrate and settings are
    #: unchanged since a stored run are folded back with zero fresh
    #: executions; the rest rerun.  Findings are byte-identical to a
    #: full cold campaign (see repro.core.plan / docs/PLANNING.md).
    incremental: bool = False
    #: configuration-sampling strategy for test generation (None =
    #: exhaustive): "pairwise", "random-k" or "dissimilarity" keep a
    #: deterministic, seeded subset of hetero cells per profile, trading
    #: findings recall for executions (bench: BENCH_sampling.json).
    sample: Optional[str] = None
    #: sampling budget per (test, group) for random-k/dissimilarity
    #: (None = the pairwise budget: one cell per value-pair layer).
    sample_k: Optional[int] = None
    #: seed for the sampling draw (part of the checkpoint header, so a
    #: resume cannot silently sample a different subset).
    sample_seed: int = 0
    #: shared secret for the distributed transport's HMAC challenge-
    #: response handshake (None = unauthenticated).  Deliberately NOT
    #: part of checkpoint_settings(): secrets must never be journaled.
    dist_secret: Optional[str] = None
    #: run the registry wiring audit (repro.core.audit) after the main
    #: loop and attach its AuditStats to the report.  Audit probes are
    #: accounted in their own zc_audit_* budget, so findings and
    #: execution accounting are unchanged.  Deliberately NOT part of
    #: checkpoint_settings(): a resumed campaign may toggle it freely
    #: because the audit never touches the journal.
    audit: bool = False
    #: dispatch order for the supervised pool: "lpt" hands profiles to it
    #: longest-predicted-first (see repro.core.costmodel), "catalog"
    #: keeps corpus order.  Results are folded in catalog order either
    #: way, so findings and deterministic metrics are identical; only
    #: wall-clock makespan changes.  Serial runs keep catalog order.
    schedule: str = "lpt"
    #: wall-clock seconds a worker may spend on one profile before the
    #: supervisor SIGKILLs it and quarantines the profile (None = no
    #: deadline).  This is *real* time — it catches CPU-bound hangs the
    #: simulated-time watchdog cannot see.
    profile_deadline_s: Optional[float] = None
    #: OS resource limits applied inside each worker (None = unlimited):
    #: CPU seconds per profile (workers are recycled between profiles so
    #: the budget does not accumulate) and address space in MiB.
    worker_rlimit_cpu_s: Optional[int] = None
    worker_rlimit_mem_mb: Optional[int] = None
    #: how many times a profile whose worker died is re-sent to a fresh
    #: worker before it is quarantined as WORKER_CRASH.
    worker_redelivery: int = 2
    #: consecutive worker deaths (without a completed profile in between)
    #: that trip the crash-loop circuit breaker and halt the campaign
    #: gracefully with a salvaged partial report.
    crash_loop_threshold: int = 5
    #: seconds of heartbeat silence from a BUSY worker before the
    #: supervisor declares it frozen and kills it.  Heartbeats come from
    #: a side thread, so plain CPU-bound work keeps beating; only a
    #: genuinely stopped process (SIGSTOP, stuck syscall) goes silent.
    heartbeat_timeout_s: float = 30.0
    #: serve pending profiles to remote workers from this listen address
    #: ("[HOST:]PORT"; see repro.core.distrib).  None = single-host run.
    distributed: Optional[str] = None
    #: cadence workers are told to heartbeat at.
    dist_heartbeat_s: float = 1.0
    #: seconds of heartbeat silence before a remote worker is declared
    #: lost and its leases redelivered.
    dist_heartbeat_timeout_s: float = 10.0
    #: wall-clock bound on one lease before it is re-queued even though
    #: its holder still heartbeats (None = no deadline; late results are
    #: still accepted idempotently).
    dist_lease_deadline_s: Optional[float] = None
    #: work stealing: maximum concurrent holders of one lease.
    dist_max_copies: int = 2
    #: seconds to wait for the first worker before degrading to the
    #: local pool.
    dist_join_grace_s: float = 20.0
    #: seconds to wait for a lost fleet to rejoin before degrading.
    dist_fleet_grace_s: float = 10.0
    #: deterministic transport chaos on coordinator-side connections
    #: (repro.common.transport.NetFaultPlan; None = clean links).
    net_fault_plan: Optional[Any] = None
    #: collect spans + metrics (repro.core.observe).  The campaign's
    #: Observation lands on AppReport.observation; the CLI's
    #: --trace-spans/--trace-chrome/--metrics-out flags export it.
    observe: bool = False
    #: stream for the live one-line progress display (usually stderr;
    #: None = no progress line).  Implies observation: the line is fed
    #: from the metrics registry at every profile commit.
    progress_stream: Optional[Any] = None
    #: callable(snapshot_dict) invoked on the committing thread after
    #: every profile commit (same snapshot the progress line renders).
    #: Implies observation.  Exceptions from the hook are swallowed — a
    #: broken consumer must not degrade the campaign.  Used by the
    #: service layer (repro.core.jobqueue) to stream NDJSON events.
    progress_hook: Optional[Any] = None
    #: threading.Event; when set the campaign raises CampaignCancelled
    #: instead of starting the next profile.  The serial loop checks it
    #: before each profile; the supervised pool checks it on every tick
    #: and kills its in-flight workers (their profiles rerun on resume).
    #: A distributed coordinator only observes it once its fleet drains.
    #: Deliberately NOT part of checkpoint_settings(): cancellation is a
    #: runtime act, not a campaign setting.
    cancel_event: Optional[Any] = None

    def param_allowed(self, name: str) -> bool:
        return self.only_params is None or name in self.only_params

    def checkpoint_settings(self) -> Dict[str, Any]:
        """The settings a resumed campaign must match (JSON-friendly)."""
        return {
            "alpha": self.alpha,
            "max_trials": self.max_trials,
            "blacklist_threshold": self.blacklist_threshold,
            "max_value_pairs": self.max_value_pairs,
            "max_pool_size": self.max_pool_size,
            "disable_ipc_sharing": self.disable_ipc_sharing,
            "only_params": (None if self.only_params is None
                            else sorted(self.only_params)),
            "fault_plan": (None if self.fault_plan is None
                           else asdict(self.fault_plan)),
            "infra_retries": self.infra_retries,
            "watchdog_sim_s": self.watchdog_sim_s,
            # Cache mode is part of the header: a journal written with the
            # cache on records content-derived dedup in its counters, and a
            # resume that silently flipped the mode would mix them.
            "exec_cache": self.exec_cache,
            # Same argument for the persistent store: a warm store serves
            # cached outcomes, so the journal's execution counters were
            # produced under a specific store mode.  Only presence is
            # recorded — the path itself may move between hosts.
            "store": bool(self.store_path),
            # Plan settings: a resume that flipped incremental mode or
            # sampled a different subset would journal outcomes produced
            # under a different work selection — refuse instead.
            "incremental": self.incremental,
            "sample": self.sample,
            "sample_k": self.sample_k,
            "sample_seed": self.sample_seed,
        }


@dataclass
class ProfileOutcome:
    """What one unit-test profile contributed to the campaign."""

    results: List[InstanceResult] = field(default_factory=list)
    stats: PoolStats = field(default_factory=PoolStats)
    executions: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    #: non-empty when the profile run itself crashed (harness bug or
    #: unrecoverable environment failure): the campaign degrades to
    #: reporting the error instead of aborting the whole run.  Carries
    #: the full child/parent traceback, or the exit-signal description
    #: for a dead worker process.
    error: str = ""
    #: classifies a non-empty ``error``: HARNESS_ERROR for a contained
    #: in-process exception, runner.WORKER_CRASH for a worker process
    #: that died (quarantine, deadline kill, circuit-breaker halt).
    error_kind: str = ""
    #: Observation.to_wire() dict from the profile's runner when the
    #: observability layer is on (crosses the process/supervision wire
    #: with the rest of the outcome); None otherwise.
    observation: Optional[Dict[str, Any]] = None
    #: ``[kind, sim_at, data]`` TraceLog events a forked worker recorded
    #: for this profile, folded into ``config.trace`` in catalog order;
    #: None for a profile that traced straight into the campaign's log.
    trace_events: Optional[List[List[Any]]] = None


class Campaign:
    """ZebraConf campaign over one application's corpus and registry."""

    def __init__(self, app: str, registry: ParamRegistry,
                 tests: Optional[Sequence[UnitTest]] = None,
                 dependency_rules: Iterable[DependencyRule] = (),
                 config: Optional[CampaignConfig] = None,
                 corpus: Corpus = CORPUS) -> None:
        self.app = app
        self.registry = registry
        self.tests = list(tests) if tests is not None else corpus.for_app(app)
        self.config = config if config is not None else CampaignConfig()
        self.generator = TestGenerator(registry,
                                       dependency_rules=dependency_rules,
                                       max_value_pairs=self.config.max_value_pairs)
        self.tracker = FrequentFailureTracker(self.config.blacklist_threshold)
        #: per-run execution cache (built in _run when config.exec_cache).
        self._cache: Optional[ExecutionCache] = None
        #: durable cross-campaign result store (opened lazily by
        #: _build_cache when config.store_path; closed after each run).
        self._store: Optional[Any] = None
        #: per-run scheduler cost model (rebuilt in _run_inner once the
        #: pre-run profiles exist).
        self.cost_model = CostModel(self)
        #: per-run incremental plan (repro.core.plan.CampaignPlan; built
        #: in _run_inner when config.incremental, else None).  The cost
        #: model reads it to price REUSE profiles at zero.
        self._plan: Optional[CampaignPlan] = None
        #: supervised-pool counters for the current run (reset in _run;
        #: filled by repro.core.supervise when the supervisor is used).
        self.supervision = SupervisionStats()
        #: distributed-coordinator counters for the current run (filled
        #: by repro.core.distrib when --distributed is on).
        self.distribution = DistributionStats()
        #: EWMA-smoothed measured costs persisted beside the checkpoint
        #: journal (set by _open_checkpoint; None without a checkpoint).
        self.cost_book = None
        #: campaign-level Observation for the current run (None when the
        #: observability layer is off).
        self.observation: Optional[Observation] = None
        self._progress: Optional[ProgressReporter] = None
        self._app_span: Optional[Any] = None

    # ------------------------------------------------------------------
    def run(self) -> AppReport:
        from repro.common.ipc import set_ipc_sharing
        previous_sharing = set_ipc_sharing(not self.config.disable_ipc_sharing)
        try:
            return self._run()
        finally:
            set_ipc_sharing(previous_sharing)
            if self._store is not None:
                self._store.close()
                self._store = None

    def _observing(self) -> bool:
        return (self.config.observe
                or self.config.progress_stream is not None
                or self.config.progress_hook is not None)

    def _check_cancelled(self) -> None:
        """Raise CampaignCancelled if the config's cancel event is set."""
        event = self.config.cancel_event
        if event is not None and event.is_set():
            raise CampaignCancelled(self.app)

    def _run(self) -> AppReport:
        if not self._observing():
            self.observation = None
            return self._run_inner()
        self.observation = Observation(metrics=MetricsRegistry(
            constant_labels={"app": self.app}))
        if self.config.progress_stream is not None:
            self._progress = ProgressReporter(self.config.progress_stream,
                                              self.app)
        try:
            with self.observation.span(self.app, kind="app") as root:
                self._app_span = root
                return self._run_inner()
        finally:
            self._app_span = None
            if self._progress is not None:
                self._progress.close(self._progress_snapshot())
                self._progress = None

    def _run_inner(self) -> AppReport:
        self._check_cancelled()
        obs = self.observation
        if obs is not None:
            with obs.span("prerun", kind="prerun") as prerun_span:
                profiles = prerun_corpus(self.tests)
                # one instrumented execution per corpus test
                obs.advance_sim(len(profiles) * self.config.run_cost_s)
                prerun_span.attrs["tests"] = len(profiles)
            obs.metrics.counter_inc("zc_prerun_executions_total",
                                    len(profiles))
            obs.metrics.counter_inc("zc_machine_seconds_total",
                                    len(profiles) * self.config.run_cost_s)
        else:
            profiles = prerun_corpus(self.tests)
        usable = [p for p in profiles if p.usable]
        stage_counts = self._stage_counts(profiles, usable)
        if self.config.sample is not None \
                and self.config.sample not in SAMPLE_MODES:
            raise ValueError("unknown sampling mode %r (expected one of %s)"
                             % (self.config.sample, ", ".join(SAMPLE_MODES)))
        checkpoint = self._open_checkpoint()
        self._cache = self._build_cache()
        # Built once per run: checkpoint restore and the supervised pool
        # both need it, and rebuilding it per restored profile made large
        # resumes quadratic.
        tests_by_name = {t.full_name: t for t in self.tests}
        self._plan = self._build_plan(usable, checkpoint)

        # Partition tests into already-journaled (restore + replay their
        # blacklist effects), plan-REUSE (fold from the store, journal as
        # done, replay blacklist effects — zero fresh executions) and
        # still-pending (run for real).  Outcomes are assembled keyed by
        # test and folded back in the original profile order so a resumed
        # campaign reproduces the interrupted one bit for bit.
        outcome_by_test: Dict[str, ProfileOutcome] = {}
        pending: List[TestProfile] = []
        if self._progress is not None:
            self._progress.total = len(usable)
        for profile in usable:
            name = profile.test.full_name
            if checkpoint is not None and checkpoint.has_test(name):
                outcome = self._restore_profile(checkpoint, name,
                                                tests_by_name)
                outcome_by_test[name] = outcome
                self._profile_committed(outcome, restored=True)
                continue
            if self._plan is not None \
                    and self._plan.decision(name) == PLAN_REUSE:
                outcome = self._fold_planned_profile(profile, checkpoint,
                                                     tests_by_name)
                if outcome is not None:
                    outcome_by_test[name] = outcome
                    self._profile_committed(outcome, reused=True)
                    continue
            pending.append(profile)

        schedule = self.config.schedule
        if schedule not in ("lpt", "catalog"):
            raise ValueError("unknown schedule %r" % schedule)
        self.cost_model = CostModel(self)
        self.supervision = SupervisionStats()
        self.distribution = DistributionStats()
        if self.config.distributed is not None and pending:
            # Remote fleet first; whatever it cannot finish degrades to
            # _run_locally inside run_profiles_distributed.  Outcomes
            # are keyed by test and folded in catalog order below, so
            # where a profile ran cannot change findings.
            from repro.core.distrib import run_profiles_distributed
            outcome_by_test.update(run_profiles_distributed(
                self, pending, checkpoint, tests_by_name))
        elif pending:
            outcome_by_test.update(self._run_locally(pending, checkpoint,
                                                     tests_by_name))
        self._persist_profile_records(usable, outcome_by_test)

        results: List[InstanceResult] = []
        pool_stats = PoolStats()
        executions = len(profiles)  # pre-run executions count as runs too
        fault_counts: Dict[str, int] = {}
        retries = 0
        degraded: List[str] = []
        quarantined: List[str] = []
        degraded_errors: Dict[str, str] = {}
        predicted_total = 0
        prediction_error = 0
        trace = self.config.trace
        for profile in usable:
            name = profile.test.full_name
            outcome = outcome_by_test[name]
            if trace is not None and outcome.trace_events:
                for kind, sim_at, data in outcome.trace_events:
                    trace.emit(kind, sim_at=sim_at, **data)
            results.extend(outcome.results)
            _merge_stats(pool_stats, outcome.stats)
            executions += outcome.executions
            prediction = self.cost_model.predict(profile)
            predicted_total += prediction.predicted_executions
            prediction_error += abs(prediction.predicted_executions
                                    - outcome.executions)
            for kind, count in outcome.fault_counts.items():
                fault_counts[kind] = fault_counts.get(kind, 0) + count
            retries += outcome.retries
            if outcome.error:
                degraded.append(name)
                degraded_errors[name] = outcome.error
                if outcome.error_kind == WORKER_CRASH:
                    quarantined.append(name)
        if self.observation is not None:
            # Predicted-vs-actual bookkeeping is computed here in the
            # parent, identically for every backend (and for restored
            # profiles), so the deterministic snapshot stays
            # backend-invariant.
            metrics = self.observation.metrics
            metrics.counter_inc("zc_sched_predicted_executions_total",
                                predicted_total)
            metrics.counter_inc("zc_sched_prediction_error_executions_total",
                                prediction_error)

        stage_counts.after_pooling = pool_stats.total_instances_run
        hypothesis_stats = _hypothesis_stats(results)
        results_by_param = _group_confirmed(results)
        verdicts = triage_report(results_by_param, self.registry,
                                 blacklisted=self.tracker.blacklisted)
        self._emit_trace(profiles, results, verdicts, executions)
        cost_centers = self._cost_centers(usable, outcome_by_test)
        audit_stats = self._run_audit(profiles)
        if self.observation is not None:
            self._assemble_spans(usable, outcome_by_test)
            self._finalize_runtime_metrics()
        report = AppReport(
            app=self.app,
            stage_counts=stage_counts,
            prerun_summary=PreRunSummary.from_profiles(profiles),
            pool_stats=pool_stats,
            hypothesis_stats=hypothesis_stats,
            verdicts=verdicts,
            results_by_param=results_by_param,
            blacklisted=tuple(sorted(self.tracker.blacklisted)),
            executions=executions,
            machine_time_s=executions * self.config.run_cost_s,
            fault_counts=dict(sorted(fault_counts.items())),
            infra_retries_performed=retries,
            degraded_tests=tuple(degraded),
            quarantined_tests=tuple(quarantined),
            degraded_errors=degraded_errors,
            exec_cache_enabled=(self.config.exec_cache
                                or bool(self.config.store_path)),
            audit=audit_stats,
            supervision=self.supervision,
            distribution=self.distribution,
            store=(None if self._store is None
                   else replace(self._store.stats)),
            cost_centers=cost_centers,
            plan=self._plan,
            observation=self.observation)
        if self._store is not None:
            # the finished report is itself a store record, so a later
            # campaign (or ``repro store stats``) can read past findings
            # without re-running anything.
            from repro.core.report import app_report_to_dict
            self._store.put_report(app_report_to_dict(report))
        return report

    # ------------------------------------------------------------------
    # wiring audit (--audit)
    # ------------------------------------------------------------------
    def _run_audit(self, profiles: List[TestProfile]) -> Optional[Any]:
        """Registry wiring audit over the pre-run profiles (see
        repro.core.audit).  Probe executions land in their own
        ``zc_audit_*`` metrics and AuditStats.machine_time_s — never in
        campaign execution accounting — so every other report section is
        byte-identical with the audit on or off."""
        if not self.config.audit:
            return None
        from repro.core.audit import (READ_BUT_INERT, UNREAD, WIRED,
                                      audit_campaign)
        if self.observation is None:
            return audit_campaign(self, profiles)
        with self.observation.span("audit", kind="audit") as span:
            stats = audit_campaign(self, profiles)
            span.attrs["params"] = stats.params_total
            span.attrs["flagged"] = len(stats.flagged())
        metrics = self.observation.metrics
        for verdict, count in ((WIRED, stats.wired), (UNREAD, stats.unread),
                               (READ_BUT_INERT, stats.inert)):
            if count:
                metrics.counter_inc("zc_audit_params_total", count,
                                    verdict=verdict)
        if stats.probe_executions:
            metrics.counter_inc("zc_audit_probe_executions_total",
                                stats.probe_executions)
        if stats.probe_cache_hits:
            metrics.counter_inc("zc_audit_probe_cache_hits_total",
                                stats.probe_cache_hits)
        if stats.probes_collapsed:
            metrics.counter_inc("zc_audit_probes_collapsed_total",
                                stats.probes_collapsed)
        if stats.machine_time_s:
            metrics.counter_inc("zc_audit_machine_seconds_total",
                                stats.machine_time_s)
        return stats

    # ------------------------------------------------------------------
    # execution cache
    # ------------------------------------------------------------------
    def _build_cache(self) -> Optional[ExecutionCache]:
        """A fresh per-run cache keyed by everything that shapes a single
        execution's behaviour (so stale outcomes can never be served)."""
        if not self.config.exec_cache and not self.config.store_path:
            return None
        context = {
            "app": self.app,
            "fault_plan": (None if self.config.fault_plan is None
                           else asdict(self.config.fault_plan)),
            "watchdog_sim_s": self.config.watchdog_sim_s,
            "infra_retries": self.config.infra_retries,
            "disable_ipc_sharing": self.config.disable_ipc_sharing,
        }
        store = self._open_store()
        if store is not None:
            from repro.core.store import StoreBackedExecutionCache
            return StoreBackedExecutionCache(context, store)
        return ExecutionCache(context=context)

    def _open_store(self) -> Optional[Any]:
        """Open (once per run) the durable result store for this
        campaign's substrate.  The disk may be damaged — open() salvages
        and counts; only an unusable root or a store written by a newer
        format raises (StoreError, surfaced like a checkpoint refusal)."""
        if not self.config.store_path:
            return None
        if self._store is None:
            # the distribution handshake digest doubles as the store's
            # substrate guard: same app name + same corpus/registry shape.
            from repro.core.distrib import corpus_digest
            from repro.core.store import ResultStore
            store = ResultStore(self.config.store_path,
                                disk_fault_plan=self.config.disk_fault_plan)
            store.open(self.app, corpus_digest(self))
            self._store = store
        return self._store

    # ------------------------------------------------------------------
    # checkpoint/resume
    # ------------------------------------------------------------------
    def _open_checkpoint(self) -> Optional[CampaignCheckpoint]:
        if not self.config.checkpoint_path:
            self.cost_book = None
            return None
        # Measured LPT cost weights live beside the journal so a resumed
        # campaign reschedules from measured, not analytic, costs.
        from repro.core.costmodel import CostBook
        self.cost_book = CostBook(
            CostBook.beside_checkpoint(self.config.checkpoint_path))
        self.cost_book.load()
        checkpoint = CampaignCheckpoint(self.config.checkpoint_path)
        finished = checkpoint.load()
        checkpoint.check_header(self.app, self.config.checkpoint_settings())
        trace = self.config.trace
        if trace is not None:
            trace.emit("checkpoint-open", app=self.app,
                       path=self.config.checkpoint_path,
                       finished_tests=finished,
                       partial_tests=sorted(checkpoint.partial_tests))
        return checkpoint

    def _restore_profile(self, checkpoint: CampaignCheckpoint, name: str,
                         tests_by_name: Mapping[str, UnitTest]
                         ) -> ProfileOutcome:
        (results, stats, executions, fault_counts, retries,
         error, error_kind) = checkpoint.restore_test(name, tests_by_name)
        # Replay blacklist bookkeeping: confirmations from journaled
        # tests must count toward the frequent-failure threshold exactly
        # as they did in the interrupted run.
        for result in results:
            if result.verdict == CONFIRMED_UNSAFE:
                for param in result.instance.params:
                    self.tracker.record_unsafe(param, name)
        trace = self.config.trace
        if trace is not None:
            trace.emit("checkpoint-restore", app=self.app, test=name,
                       instances=len(results), executions=executions)
        return ProfileOutcome(results=results, stats=stats,
                              executions=executions,
                              fault_counts=fault_counts, retries=retries,
                              error=error, error_kind=error_kind)

    # ------------------------------------------------------------------
    # incremental planning (--incremental) and store profile records
    # ------------------------------------------------------------------
    def _build_plan(self, usable: List[TestProfile],
                    checkpoint: Optional[CampaignCheckpoint]
                    ) -> Optional[CampaignPlan]:
        """Build (or replay) the incremental campaign plan.

        A resumed campaign replays the journaled plan rather than
        replanning: the interrupted run already appended fresh profile
        records to the store, so a replan would silently reclassify its
        RERUN/NEW work as REUSE and change the reported plan summary.
        """
        if not self.config.incremental:
            return None
        store = self._open_store()
        if store is None:
            raise ValueError("incremental planning requires a result store "
                             "(set store_path / --store)")
        if checkpoint is not None:
            journaled = checkpoint.plan_record(self.app)
            if journaled is not None:
                plan = CampaignPlan.from_dict(journaled)
                trace = self.config.trace
                if trace is not None:
                    trace.emit("plan-replayed", app=self.app,
                               reused=plan.count(PLAN_REUSE),
                               demoted=plan.demoted)
                return plan
        plan = build_plan(self, usable, store)
        if checkpoint is not None:
            checkpoint.record_plan(self.app, plan.to_dict())
        trace = self.config.trace
        if trace is not None:
            trace.emit("plan-built", app=self.app,
                       reused=plan.count(PLAN_REUSE),
                       demoted=plan.demoted,
                       executions_saved=plan.executions_saved)
        return plan

    def _fold_planned_profile(self, profile: TestProfile,
                              checkpoint: Optional[CampaignCheckpoint],
                              tests_by_name: Mapping[str, UnitTest]
                              ) -> Optional[ProfileOutcome]:
        """Fold one plan-REUSE profile from its stored record.

        Returns None when the stored record has vanished since planning
        (store GC raced, disk fault ate the segment) — the caller then
        runs the profile for real, which is always correct, just slower.
        Mirrors :meth:`_restore_profile`: blacklist confirmations replay
        exactly as they did in the stored run, and the fold is journaled
        as a finished test so a crash + resume restores it identically.
        """
        name = profile.test.full_name
        stored = self._store.lookup_profile(self._plan.plan_for(name).key)
        if stored is None:
            return None
        record = stored["record"]
        try:
            results = [result_from_dict(r, tests_by_name)
                       for r in record["results"]]
            stats = PoolStats(**record["pool_stats"])
        except (KeyError, TypeError, ValueError):
            # damaged or schema-drifted record: fall back to running.
            return None
        for result in results:
            if result.verdict == CONFIRMED_UNSAFE:
                for param in result.instance.params:
                    self.tracker.record_unsafe(param, name)
        fault_counts = {str(k): int(v)
                        for k, v in record.get("fault_counts", {}).items()}
        retries = int(record.get("retries", 0))
        # Zero fresh executions: the whole point of the plan.  The stored
        # pool statistics are preserved so the findings projection is
        # byte-identical to the campaign that produced them.
        outcome = ProfileOutcome(results=results, stats=stats, executions=0,
                                 fault_counts=fault_counts, retries=retries)
        if checkpoint is not None:
            checkpoint.record_test_done(name, results, stats, 0,
                                        fault_counts=fault_counts,
                                        retries=retries)
        trace = self.config.trace
        if trace is not None:
            trace.emit("plan-reuse", app=self.app, test=name,
                       instances=len(results),
                       executions_saved=int(record.get("executions", 0)))
        return outcome

    def _persist_profile_records(self, profiles: Sequence[TestProfile],
                                 outcome_by_test: Mapping[str,
                                                          "ProfileOutcome"]
                                 ) -> None:
        """Append per-profile result records to the store.

        Runs on *every* stored campaign (not just ``--incremental``) so a
        plain ``--store`` run seeds the profiles a later incremental run
        reuses.  Checkpoint-restored profiles are included — a resumed
        campaign must leave the store exactly as warm as an uninterrupted
        one.  Only clean outcomes are recorded (degraded or quarantined
        profiles must be re-run, never reused), and REUSE folds are
        skipped: their authoritative record — with the *original*
        execution count the planner prices — is already durable.
        """
        if self._store is None:
            return
        for profile in profiles:
            name = profile.test.full_name
            if self._plan is not None \
                    and self._plan.decision(name) == PLAN_REUSE:
                continue
            outcome = outcome_by_test.get(name)
            if outcome is None or outcome.error:
                continue
            key = profile_key(self, profile)
            confirmed = sorted({param
                                for r in outcome.results
                                if r.verdict == CONFIRMED_UNSAFE
                                for param in r.instance.params})
            record = {
                "results": [result_to_dict(r) for r in outcome.results],
                "pool_stats": asdict(outcome.stats),
                "executions": outcome.executions,
                "fault_counts": dict(outcome.fault_counts),
                "retries": outcome.retries,
            }
            stored = self._store.lookup_profile(key)
            if stored is not None \
                    and stored.get("record") == record \
                    and list(stored.get("confirmed", [])) == confirmed:
                continue  # identical record already durable
            self._store.append_profile(key, name, record,
                                       confirmed=confirmed)

    def _record_measured_cost(self, name: str, outcome: ProfileOutcome
                              ) -> None:
        """Feed one freshly *run* profile's measured cost into the cost
        book (scheduling weights only — findings never read it).

        Quarantined WORKER_CRASH outcomes are excluded: the profile did
        not run to completion, so its numbers would poison the EWMA.
        Wall time comes from the profile's shipped observation when the
        observability layer is on; executions are always available.
        """
        book = self.cost_book
        if book is None or outcome.error_kind == WORKER_CRASH:
            return
        wall_s = None
        wire = outcome.observation
        if wire is not None:
            root = next((s for s in wire.get("spans", ())
                         if s.get("parent_id") is None), None)
            if root is not None:
                wall_s = max(root["wall_end"] - root["wall_start"], 0.0)
        book.observe(name, outcome.executions, wall_s=wall_s)
        book.save()

    def _run_locally(self, profiles: Sequence[TestProfile],
                     checkpoint: Optional[CampaignCheckpoint],
                     tests_by_name: Mapping[str, UnitTest],
                     outcome_sink: Optional[Any] = None
                     ) -> Dict[str, ProfileOutcome]:
        """Run ``profiles`` on this host; outcomes keyed by test name.

        ``workers > 1`` with ``fork`` available runs the supervised pool
        (repro.core.supervise); anything else runs serially, in the
        order given.  Every outcome commits through
        :func:`repro.core.parallel.commit_outcome` the moment it
        finishes, then goes to ``outcome_sink(name, outcome)`` if set.
        """
        if self.config.workers > 1 and parallel.fork_available():
            # Dispatch order is a pure makespan concern: outcomes are
            # keyed by test and folded back in catalog order, so
            # reordering here cannot change findings or deterministic
            # metrics.
            if self.config.schedule == "lpt":
                profiles = self.cost_model.lpt_order(profiles)
            from repro.core.supervise import run_profiles_parallel
            return run_profiles_parallel(self, profiles, checkpoint,
                                         tests_by_name, outcome_sink)
        outcomes: Dict[str, ProfileOutcome] = {}
        for profile in profiles:
            self._check_cancelled()
            name = profile.test.full_name
            outcome = self._run_profile_contained(profile, checkpoint)
            parallel.commit_outcome(self, checkpoint, name, outcome)
            if outcome_sink is not None:
                outcome_sink(name, outcome)
            outcomes[name] = outcome
        return outcomes

    def _run_profile_contained(self, profile: TestProfile,
                               checkpoint: Optional[CampaignCheckpoint]
                               ) -> ProfileOutcome:
        """Run one profile, containing harness crashes as a degraded
        outcome instead of letting them abort the campaign."""
        try:
            return self._run_test_profile(profile, checkpoint)
        except Exception:  # noqa: BLE001 - graceful degradation
            outcome = ProfileOutcome(error=traceback.format_exc(),
                                     error_kind=HARNESS_ERROR)
            trace = self.config.trace
            if trace is not None:
                trace.emit("test-error", app=self.app,
                           test=profile.test.full_name, error=outcome.error)
            return outcome

    # ------------------------------------------------------------------
    # observability (repro.core.observe)
    # ------------------------------------------------------------------
    def _fill_profile_metrics(self, metrics: MetricsRegistry,
                              runner: TestRunner, stats: PoolStats) -> None:
        """Bulk metric fill for one fresh profile, sourced from the same
        runner/PoolStats counters the report totals use — that is what
        makes the snapshot reconcile with the report *exactly*."""
        machine = runner.machine_time_s
        if runner.executions:
            metrics.counter_inc("zc_executions_total", runner.executions)
        if machine:
            metrics.counter_inc("zc_machine_seconds_total", machine)
        if runner.backoff_cost_s:
            metrics.counter_inc("zc_backoff_seconds_total",
                                runner.backoff_cost_s)
        if runner.retries_performed:
            metrics.counter_inc("zc_infra_retries_total",
                                runner.retries_performed)
        for kind, count in sorted(runner.fault_counts.items()):
            metrics.counter_inc("zc_faults_injected_total", count, kind=kind)
        for field_name, metric in _POOL_METRICS.items():
            value = getattr(stats, field_name)
            if value:
                metrics.counter_inc(metric, value)
        metrics.hist_observe("zc_profile_machine_seconds", machine)

    def _replay_profile_metrics(self, metrics: MetricsRegistry,
                                outcome: ProfileOutcome) -> None:
        """Rebuild a profile's metrics from its journaled numbers (a
        checkpoint-restored profile, or a crashed worker that never
        shipped an observation).  Backoff cost is not journaled, so the
        machine-seconds replay is executions x run_cost_s — the same
        definition the report's machine_time_s uses."""
        run_cost = self.config.run_cost_s
        if outcome.executions:
            metrics.counter_inc("zc_executions_total", outcome.executions)
            metrics.counter_inc("zc_machine_seconds_total",
                                outcome.executions * run_cost)
        if outcome.retries:
            metrics.counter_inc("zc_infra_retries_total", outcome.retries)
        for kind, count in sorted(outcome.fault_counts.items()):
            metrics.counter_inc("zc_faults_injected_total", count, kind=kind)
        for field_name, metric in _POOL_METRICS.items():
            value = getattr(outcome.stats, field_name)
            if value:
                metrics.counter_inc(metric, value)
        for result in outcome.results:
            metrics.counter_inc("zc_instance_verdicts_total",
                                verdict=result.verdict)
            metrics.hist_observe("zc_instance_executions",
                                 result.executions)
            metrics.hist_observe("zc_instance_machine_seconds",
                                 result.executions * run_cost)
        metrics.hist_observe("zc_profile_machine_seconds",
                             outcome.executions * run_cost)

    def _profile_committed(self, outcome: ProfileOutcome,
                           restored: bool = False,
                           reused: bool = False) -> None:
        """Fold one finished profile into the live campaign observation.

        Called from checkpoint restore, plan-REUSE folds, and
        ``parallel.commit_outcome`` — always on the parent's committing
        thread, in completion order.
        Metric merges are commutative, so that order does not affect the
        final snapshot; spans are adopted later, in profile order.
        """
        obs = self.observation
        if obs is not None:
            wire = outcome.observation
            if wire is not None:
                obs.metrics.merge_wire(wire.get("metrics", {}))
                root = next((s for s in wire.get("spans", ())
                             if s.get("parent_id") is None), None)
                if root is not None:
                    obs.metrics.hist_observe(
                        "zc_runtime_profile_wall_seconds",
                        max(root["wall_end"] - root["wall_start"], 0.0))
            else:
                self._replay_profile_metrics(obs.metrics, outcome)
            if restored:
                status = "restored"
            elif reused:
                status = "reused"
            elif outcome.error_kind == WORKER_CRASH:
                status = "quarantined"
            elif outcome.error:
                status = "degraded"
            else:
                status = "completed"
            obs.metrics.counter_inc("zc_profiles_total", status=status)
        if self._progress is not None:
            self._progress.tick(self._progress_snapshot())
        hook = self.config.progress_hook
        if hook is not None and self.observation is not None:
            try:
                hook(self._progress_snapshot())
            except Exception:  # noqa: BLE001 - consumer must not hurt us
                pass

    def _progress_snapshot(self) -> Dict[str, Any]:
        metrics = self.observation.metrics
        return {
            "done": int(metrics.total("zc_profiles_total")),
            "executions": int(metrics.total("zc_executions_total")
                              + metrics.total("zc_prerun_executions_total")),
            "cache_hits": int(metrics.total("zc_exec_cache_hits_total")),
            "cache_misses": int(metrics.total("zc_exec_cache_misses_total")),
            "pool_voids": int(metrics.total("zc_pool_voids_total")),
            "respawns": self.supervision.respawns,
            "quarantined": self.supervision.quarantined,
        }

    def _assemble_spans(self, usable: Sequence[TestProfile],
                        outcome_by_test: Mapping[str, ProfileOutcome]
                        ) -> None:
        """Graft per-profile span trees under the app root in *profile*
        order (not completion order), laying them on one modelled
        timeline so the span tree is identical across backends."""
        obs = self.observation
        run_cost = self.config.run_cost_s
        for profile in usable:
            name = profile.test.full_name
            outcome = outcome_by_test[name]
            wire = outcome.observation
            if wire is not None:
                obs.adopt_spans(wire, parent=self._app_span)
            else:
                # restored from a checkpoint, or the worker died before
                # shipping spans: account the modelled time it burned
                attrs: Dict[str, Any] = {"synthetic": True}
                if outcome.error_kind:
                    attrs["error_kind"] = outcome.error_kind
                with obs.span(name, kind="profile", **attrs):
                    obs.advance_sim(outcome.executions * run_cost)

    def _finalize_runtime_metrics(self) -> None:
        """End-of-run volatile metrics: supervision counters and cache
        occupancy (both depend on how the campaign ran, not on what it
        found — hence the zc_runtime_* namespace)."""
        metrics = self.observation.metrics
        for field_name, metric in _SUPERVISION_METRICS.items():
            value = getattr(self.supervision, field_name)
            if value:
                metrics.counter_inc(metric, value)
        for field_name, metric in _DIST_METRICS.items():
            value = getattr(self.distribution, field_name)
            if value:
                metrics.counter_inc(metric, value)
        for kind, count in sorted(self.distribution.net_faults.items()):
            metrics.counter_inc("zc_dist_net_faults_total", count, kind=kind)
        if self._cache is not None:
            for tier, size in sorted(self._cache.tier_sizes().items()):
                metrics.gauge_max("zc_runtime_exec_cache_entries", size,
                                  tier=tier)
        if self._store is not None:
            stats = self._store.stats
            for value, metric in (
                    (stats.hits, "zc_store_hits_total"),
                    (stats.misses, "zc_store_misses_total"),
                    (stats.appends, "zc_store_appends_total"),
                    (stats.salvaged_records, "zc_store_salvaged_records_total"),
                    (stats.corrupt_records, "zc_store_corrupt_records_total"),
                    (stats.truncated_tails, "zc_store_truncated_tails_total"),
                    (stats.stale_refused, "zc_store_stale_refused_total"),
                    (stats.write_errors, "zc_store_write_errors_total")):
                if value:
                    metrics.counter_inc(metric, value)
            metrics.gauge_max("zc_store_entries_loaded",
                              stats.entries_loaded)
        if self._plan is not None:
            plan = self._plan
            for decision in PLAN_DECISIONS:
                count = plan.count(decision)
                if count:
                    metrics.counter_inc("zc_plan_profiles_total", count,
                                        decision=decision)
            if plan.demoted:
                metrics.counter_inc("zc_plan_demoted_profiles_total",
                                    plan.demoted)
            if plan.executions_saved:
                metrics.counter_inc("zc_plan_executions_saved_total",
                                    plan.executions_saved)

    def _cost_centers(self, usable: Sequence[TestProfile],
                      outcome_by_test: Mapping[str, ProfileOutcome],
                      limit: int = 10) -> Tuple[CostCenter, ...]:
        """The most expensive unit tests, by executions burned."""
        centers = [CostCenter(test=profile.test.full_name,
                              executions=outcome.executions,
                              machine_time_s=(outcome.executions
                                              * self.config.run_cost_s),
                              instances=len(outcome.results),
                              predicted_executions=self.cost_model.predict(
                                  profile).predicted_executions)
                   for profile in usable
                   for outcome in (outcome_by_test[profile.test.full_name],)]
        centers.sort(key=lambda center: (-center.executions, center.test))
        return tuple(centers[:limit])

    # ------------------------------------------------------------------
    def _emit_trace(self, profiles, results, verdicts, executions) -> None:
        trace = self.config.trace
        if trace is None:
            return
        # Campaign-summary events all fire after the last execution, so
        # they share the campaign's final modelled timestamp (each
        # event's ``seq`` keeps their relative order deterministic).
        sim_end = executions * self.config.run_cost_s
        for profile in profiles:
            trace.emit("prerun", sim_at=sim_end,
                       app=self.app, test=profile.test.full_name,
                       usable=profile.usable,
                       groups=dict(profile.groups),
                       uncertain_params=sorted(profile.uncertain_params),
                       baseline_error=profile.baseline_error)
        for result in results:
            tally = result.tally
            trace.emit("instance", sim_at=sim_end, app=self.app,
                       test=result.instance.test.full_name,
                       params=list(result.instance.params),
                       group=result.instance.group,
                       strategy=result.instance.strategy,
                       verdict=result.verdict,
                       hetero_error=result.hetero_error,
                       trials=None if tally is None else {
                           "hetero": [tally.hetero_failures,
                                      tally.hetero_trials],
                           "homo": [tally.homo_failures, tally.homo_trials],
                           "p_value": tally.p_value()})
        for param in sorted(self.tracker.blacklisted):
            trace.emit("blacklist", sim_at=sim_end, app=self.app,
                       param=param,
                       failing_tests=self.tracker.failure_count(param))
        trace.emit("campaign", sim_at=sim_end, app=self.app,
                   executions=executions,
                   reported=[v.param for v in verdicts],
                   true_problems=[v.param for v in verdicts
                                  if v.is_true_problem])

    # ------------------------------------------------------------------
    def _run_test_profile(self, profile: TestProfile,
                          checkpoint: Optional[CampaignCheckpoint] = None
                          ) -> ProfileOutcome:
        """All pooled testing for one unit test (parallelism granule).

        With observation on, the profile gets its *own* Observation —
        single-threaded by construction whether it runs in the serial
        loop or a forked worker — serialised onto the outcome so the
        parent can merge it deterministically.
        """
        if not self._observing():
            return self._profile_body(profile, checkpoint, None)
        obs = Observation(metrics=MetricsRegistry(
            constant_labels={"app": self.app}))
        with obs.span(profile.test.full_name, kind="profile") as span:
            outcome = self._profile_body(profile, checkpoint, obs)
            if outcome.error_kind:
                span.attrs["error_kind"] = outcome.error_kind
        outcome.observation = obs.to_wire()
        return outcome

    def _profile_body(self, profile: TestProfile,
                      checkpoint: Optional[CampaignCheckpoint],
                      obs: Optional[Observation]) -> ProfileOutcome:
        runner = TestRunner(alpha=self.config.alpha,
                            max_trials=self.config.max_trials,
                            run_cost_s=self.config.run_cost_s,
                            fault_plan=self.config.fault_plan,
                            infra_retries=self.config.infra_retries,
                            watchdog_sim_s=self.config.watchdog_sim_s,
                            trace=self.config.trace,
                            registry=self.registry,
                            cache=self._cache,
                            collapse_exclude=profile.explicit_sets,
                            observe=obs)
        on_result = None if checkpoint is None else checkpoint.record_instance
        tester = PooledTester(runner, tracker=self.tracker,
                              max_pool_size=self.config.max_pool_size,
                              on_result=on_result)
        kernel_before = kernel_stats_snapshot()
        results: List[InstanceResult] = []
        error = ""
        error_kind = ""
        try:
            for group in sorted(profile.groups):
                group_size = profile.groups[group]
                params = sorted(name for name in profile.testable_params(group)
                                if name in self.registry
                                and self.config.param_allowed(name))
                if not params:
                    continue
                pairs_by_param = {name: self.generator.value_pairs(self.registry.get(name))
                                  for name in params}
                layers = max((len(p) for p in pairs_by_param.values()), default=0)
                # Deterministic, seeded subset of (strategy, layer, param)
                # cells (--sample); None = exhaustive.  The cost model
                # mirrors this exact filter so its forecast stays honest.
                kept = sample_cells(
                    self.config.sample, self.config.sample_seed,
                    self.config.sample_k, profile.test.full_name, group,
                    list(self.generator.strategies_for_group(group_size)),
                    {name: len(pairs_by_param[name]) for name in params})
                for strategy in self.generator.strategies_for_group(group_size):
                    for layer in range(layers):
                        units = [self.generator.assignment(
                                     self.registry.get(name), group, strategy,
                                     pairs_by_param[name][layer])
                                 for name in params
                                 if layer < len(pairs_by_param[name])
                                 and (kept is None
                                      or (strategy, layer, name) in kept)]
                        if units:
                            results.extend(tester.run(profile.test, group,
                                                      strategy, units))
        except Exception:  # noqa: BLE001 - graceful degradation
            # The profile degrades, but the machine time it burned is
            # real: keep the partial runner's executions, fault counts,
            # and retries in the outcome instead of dropping them.
            error = traceback.format_exc()
            error_kind = HARNESS_ERROR
            trace = self.config.trace
            if trace is not None:
                trace.emit("test-error", app=self.app,
                           test=profile.test.full_name, error=error)
        stats = tester.stats
        stats.exec_cache_hits += runner.cache_hits
        stats.exec_cache_misses += runner.cache_misses
        stats.exec_cache_bypasses += runner.cache_bypasses
        if obs is not None:
            self._fill_profile_metrics(obs.metrics, runner, stats)
            kernel_after = kernel_stats_snapshot()
            for delta, metric in zip(
                    (after - before for after, before
                     in zip(kernel_after, kernel_before)),
                    ("zc_runtime_sim_timers_cancelled_total",
                     "zc_runtime_sim_heap_compactions_total",
                     "zc_runtime_sim_timers_compacted_total")):
                if delta:
                    obs.metrics.counter_inc(metric, delta)
        return ProfileOutcome(results=results, stats=stats,
                              executions=runner.executions,
                              fault_counts=dict(runner.fault_counts),
                              retries=runner.retries_performed,
                              error=error, error_kind=error_kind)

    # ------------------------------------------------------------------
    def _stage_counts(self, profiles: Sequence[TestProfile],
                      usable: Sequence[TestProfile]) -> StageCounts:
        node_types = NODE_TYPES.get(self.app, []) or [UNIT_TEST]
        counts = StageCounts()
        counts.original = self.generator.count_original_instances(
            len(profiles), node_types)
        for profile in usable:
            for group, size in profile.groups.items():
                strategies = len(self.generator.strategies_for_group(size))
                for name in profile.params_by_group.get(group, set()):
                    param = self.registry.maybe_get(name)
                    if param is None or not self.config.param_allowed(name):
                        continue
                    instances = len(self.generator.value_pairs(param)) * strategies
                    counts.after_prerun += instances
                    if name not in profile.uncertain_params:
                        counts.after_uncertainty += instances
        return counts


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _merge_stats(into: PoolStats, other: PoolStats) -> None:
    # Field-generic so new PoolStats counters can never be silently
    # dropped from the campaign roll-up again (already_confirmed_skips
    # was, before this).
    for spec in fields(PoolStats):
        setattr(into, spec.name,
                getattr(into, spec.name) + getattr(other, spec.name))


def _hypothesis_stats(results: Sequence[InstanceResult]) -> HypothesisTestingStats:
    stats = HypothesisTestingStats()
    for result in results:
        if result.verdict == CONFIRMED_UNSAFE:
            stats.suspicious_first_trial += 1
            stats.confirmed += 1
        elif result.verdict == FLAKY_DISMISSED:
            stats.suspicious_first_trial += 1
            stats.filtered_as_flaky += 1
    return stats


def _group_confirmed(results: Sequence[InstanceResult]
                     ) -> Dict[str, List[InstanceResult]]:
    grouped: Dict[str, List[InstanceResult]] = {}
    for result in results:
        if result.verdict != CONFIRMED_UNSAFE:
            continue
        for param in result.instance.params:
            grouped.setdefault(param, []).append(result)
    return grouped


# ---------------------------------------------------------------------------
# full evaluation over every target application
# ---------------------------------------------------------------------------
def application_campaigns(config: Optional[CampaignConfig] = None
                          ) -> List[Campaign]:
    """One configured campaign per target application (imports suites)."""
    from repro.apps import catalog
    config = config if config is not None else CampaignConfig()
    campaigns = []
    for app in catalog.APP_NAMES:
        spec = catalog.spec_for(app)
        campaigns.append(Campaign(app=app, registry=spec.registry,
                                  dependency_rules=spec.dependency_rules,
                                  config=config))
    return campaigns


def run_full_campaign(config: Optional[CampaignConfig] = None) -> CampaignReport:
    """Every application's campaign, in catalog order.  Applications run
    side by side in forked lanes when :func:`repro.core.lanes.lane_count`
    allows it; findings are identical either way."""
    from repro.core.lanes import lane_count, run_in_lanes
    campaigns = application_campaigns(config)
    lanes = lane_count(campaigns[0].config, len(campaigns))
    if lanes > 1:
        return CampaignReport(apps=run_in_lanes(campaigns, lanes))
    return CampaignReport(apps=[campaign.run() for campaign in campaigns])
