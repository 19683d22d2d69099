"""Campaign orchestration: pre-run -> generate -> pool -> run -> triage.

:class:`Campaign` drives ZebraConf end-to-end for one application, and
:func:`run_full_campaign` reproduces the paper's whole evaluation across
all target applications.  Both run through :func:`run_campaigns`, the
one scheduler: it prepares each campaign, decides where the pending
profiles run — the remote fleet, the supervised pool or this process —
and folds each campaign in catalog order.  Unit tests are independent,
so profiles may fan out across processes and hosts (the paper used up
to 100 machines; §4 "Test in parallel"); every front grants them in
catalog order, and each profile's blacklist reads start from the
confirmations of the profiles before it, so where a profile ran does
not change findings.
"""

from __future__ import annotations

import contextlib
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.common.faults import FaultPlan, plan_from_dict
from repro.common.node import NODE_TYPES
from repro.common.params import ParamRegistry
from repro.core import parallel
from repro.core.confagent import UNIT_TEST
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.execcache import ExecutionCache
from repro.core.observe import MetricsRegistry, Observation, ProgressReporter
from repro.core.plan import (PLAN_DECISIONS, PLAN_REUSE, SAMPLE_MODES,
                             CampaignPlan, build_plan, profile_keys,
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
from repro.core.triage import triage_report

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
    #: deterministic chaos schedule applied to every execution (None or an
    #: all-zero plan = clean runs).  See repro.common.faults.
    fault_plan: Optional[FaultPlan] = None
    #: JSONL journal for checkpoint/resume (None = no checkpointing).
    checkpoint_path: Optional[str] = None
    #: bounded retries for infrastructure errors per execution.
    infra_retries: int = 2
    #: simulated-seconds budget per execution before TEST_TIMEOUT.
    watchdog_sim_s: float = DEFAULT_WATCHDOG_SIM_S
    #: execution accounting (see repro.core.execcache).  False = the
    #: paper's: every execution is charged, including repeats the
    #: execution cache answers without simulating.  True = free hits: a
    #: repeat costs nothing, so reports count distinct executions.
    #: Verdicts are byte-identical either way.
    exec_cache: bool = False
    #: directory of the durable cross-campaign result store (see
    #: repro.core.store).  Implies free-hit accounting: lookups fall
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
    #: wall-clock seconds one profile may take wherever it runs (None =
    #: no deadline): the supervisor SIGKILLs a worker past it and
    #: quarantines the profile, and the distributed coordinator requeues
    #: a lease older than it.  This is *real* time — it catches
    #: CPU-bound hangs the simulated-time watchdog cannot see.
    profile_deadline_s: Optional[float] = None
    #: RLIMIT_AS applied inside each supervised worker, in MiB (None =
    #: unlimited).
    worker_rlimit_mem_mb: Optional[int] = None
    #: serve pending profiles to remote workers from this listen address
    #: ("[HOST:]PORT"; see repro.core.distrib).  None = single-host run.
    distributed: Optional[str] = None
    #: seconds the coordinator runs with no live worker — from the start
    #: until one joins, and from the last loss after that — before it
    #: degrades to the local pool.
    dist_join_grace_s: float = 20.0
    #: deterministic transport chaos on coordinator-side connections
    #: (repro.common.transport.NetFaultPlan; None = clean links).
    net_fault_plan: Optional[Any] = None
    #: collect spans + metrics (repro.core.observe), decision events
    #: included.  The campaign's Observation lands on
    #: AppReport.observation; the CLI's --trace-spans/--trace-chrome/
    #: --metrics-out flags export it.
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
    #: instead of starting the next profile.  The in-process front checks
    #: it before each profile; the supervised pool checks it on every tick
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

    def with_settings(self, settings: Mapping[str, Any]) -> "CampaignConfig":
        """This config with ``settings`` (a :meth:`checkpoint_settings`
        record) applied: its inverse, so a remote worker runs under every
        setting its coordinator journals.  ``store`` is the one key that
        is not a field: a coordinator with a store accounts repeats as
        free, so it turns on ``exec_cache``; one without charges them, so
        this config's own store goes unused.  Any other key that is not a
        field raises TypeError."""
        fields = dict(settings)
        if fields.pop("store"):
            fields["exec_cache"] = True
        else:
            fields["store_path"] = None
        if fields["only_params"] is not None:
            fields["only_params"] = frozenset(fields["only_params"])
        fields["fault_plan"] = plan_from_dict(FaultPlan, fields["fault_plan"])
        return replace(self, **fields)


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
    #: "restored" (checkpoint journal) or "reused" (plan REUSE) for a
    #: profile folded back without running; "" for one that ran.
    folded: str = ""

    @property
    def confirmed(self) -> List[str]:
        """The parameters this profile's results confirmed unsafe,
        sorted: what its commit replays into the blacklist."""
        return sorted({param for result in self.results
                       if result.verdict == CONFIRMED_UNSAFE
                       for param in result.instance.params})

    @property
    def status(self) -> str:
        """The ``zc_profiles_total`` label, also the ``status`` of a
        synthetic ``profile`` span."""
        if self.folded:
            return self.folded
        if self.error_kind == WORKER_CRASH:
            return "quarantined"
        return "degraded" if self.error else "completed"


@dataclass
class _Run:
    """A campaign run from :meth:`Campaign._prepare` to
    :meth:`Campaign._finish`, by when every usable profile has an
    outcome (by test full name)."""

    profiles: List[TestProfile]
    usable: List[TestProfile]
    checkpoint: Optional[CampaignCheckpoint]
    tests_by_name: Dict[str, UnitTest]
    outcomes: Dict[str, ProfileOutcome] = field(default_factory=dict)
    #: usable profiles left to run, in catalog order.
    pending: List[TestProfile] = field(default_factory=list)


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
        #: durable cross-campaign result store (opened once per run by
        #: _open_store when config.store_path; closed after each run).
        self._store: Optional[Any] = None
        #: per-run incremental plan (repro.core.plan.CampaignPlan; built
        #: in _prepare when config.incremental, else None).
        self._plan: Optional[CampaignPlan] = None
        #: per-run profile keys by test (see _profile_keys).
        self._keys: Optional[Dict[str, str]] = None
        #: supervised-pool counters for the current run (reset in
        #: _prepare; repro.core.supervise hands in its pool's).
        self.supervision = SupervisionStats()
        #: distributed-coordinator counters for the current run (filled
        #: by repro.core.distrib when --distributed is on).
        self.distribution = DistributionStats()
        #: campaign-level Observation for the current run (None when the
        #: observability layer is off).
        self.observation: Optional[Observation] = None
        self._progress: Optional[ProgressReporter] = None
        self._app_span: Optional[Any] = None

    # ------------------------------------------------------------------
    def run(self) -> AppReport:
        return run_campaigns([self])[0]

    def _observing(self) -> bool:
        return (self.config.observe
                or self.config.progress_stream is not None
                or self.config.progress_hook is not None)

    def _check_cancelled(self) -> None:
        """Raise CampaignCancelled if the config's cancel event is set."""
        event = self.config.cancel_event
        if event is not None and event.is_set():
            raise CampaignCancelled(self.app)

    @contextlib.contextmanager
    def _running(self) -> Iterator[None]:
        """One run's IPC-sharing switch, observation with its ``app``
        span, progress line and store, from :meth:`_prepare` through
        :meth:`_finish`."""
        from repro.common.ipc import set_ipc_sharing
        previous_sharing = set_ipc_sharing(not self.config.disable_ipc_sharing)
        try:
            if not self._observing():
                self.observation = None
                yield
                return
            self.observation = Observation(metrics=MetricsRegistry(
                constant_labels={"app": self.app}))
            if self.config.progress_stream is not None:
                self._progress = ProgressReporter(self.config.progress_stream,
                                                  self.app)
            try:
                with self.observation.span(self.app, kind="app") as root:
                    self._app_span = root
                    yield
            finally:
                self._app_span = None
                if self._progress is not None:
                    self._progress.close(self._progress_snapshot())
                    self._progress = None
        finally:
            set_ipc_sharing(previous_sharing)
            if self._store is not None:
                self._store.close()
                self._store = None

    def _prepare(self) -> "_Run":
        """The pre-run, the journal, the store, the plan, and the
        journal-restored and plan-REUSE folds, in catalog order; every
        other usable profile is left in ``pending`` for
        :func:`run_campaigns` to run."""
        self._check_cancelled()
        obs = self.observation
        if obs is not None:
            with obs.span("prerun", kind="prerun") as prerun_span:
                profiles = prerun_corpus(self.tests)
                prerun_span.attrs["tests"] = len(profiles)
                for profile in profiles:
                    # one instrumented execution per corpus test
                    obs.advance_sim(self.config.run_cost_s)
                    obs.event(profile.test.full_name, kind="prerun",
                              usable=profile.usable,
                              groups=dict(profile.groups),
                              uncertain_params=sorted(
                                  profile.uncertain_params),
                              baseline_error=profile.baseline_error)
            obs.metrics.counter_inc("zc_prerun_executions_total",
                                    len(profiles))
            obs.metrics.counter_inc("zc_machine_seconds_total",
                                    len(profiles) * self.config.run_cost_s)
        else:
            profiles = prerun_corpus(self.tests)
        usable = [p for p in profiles if p.usable]
        if self.config.sample is not None \
                and self.config.sample not in SAMPLE_MODES:
            raise ValueError("unknown sampling mode %r (expected one of %s)"
                             % (self.config.sample, ", ".join(SAMPLE_MODES)))
        checkpoint = self._open_checkpoint()
        # Opened here even when every profile is restored from the
        # journal: the report still carries the store's counters.
        self._open_store()
        # Built once per run: checkpoint restore and the supervised pool
        # both need it, and rebuilding it per restored profile made large
        # resumes quadratic.
        tests_by_name = {t.full_name: t for t in self.tests}
        self._keys = None
        self._plan = self._build_plan(usable, checkpoint)
        self.supervision = SupervisionStats()
        self.distribution = DistributionStats()
        run = _Run(profiles, usable, checkpoint, tests_by_name)

        # Partition tests into already-journaled (restored), plan-REUSE
        # (folded from the store with zero fresh executions) and
        # still-pending (run for real).  Every finished profile commits
        # through parallel.commit_outcome.  Outcomes are assembled keyed
        # by test and folded back in the original profile order so a
        # resumed campaign reproduces the interrupted one bit for bit,
        # and a pending profile's lease carries only the confirmations
        # of the profiles before it, however many folds commit first.
        if self._progress is not None:
            self._progress.total = len(usable)
        for profile in usable:
            self._check_cancelled()
            name = profile.test.full_name
            outcome = None
            if checkpoint is not None and checkpoint.has_test(name):
                outcome = self._restore_profile(checkpoint, name,
                                                tests_by_name)
            elif self._plan is not None \
                    and self._plan.decision(name) == PLAN_REUSE:
                outcome = self._fold_planned_profile(profile, checkpoint,
                                                     tests_by_name)
            if outcome is None:
                run.pending.append(profile)
            else:
                run.outcomes[name] = outcome
        return run

    def _finish(self, run: "_Run") -> AppReport:
        """Fold every profile in catalog order into the report, once each
        of ``run.usable`` has an outcome."""
        self._persist_profile_records(run.usable, run.outcomes)
        results: List[InstanceResult] = []
        pool_stats = PoolStats()
        executions = len(run.profiles)  # pre-run executions count as runs
        fault_counts: Dict[str, int] = {}
        retries = 0
        degraded: List[str] = []
        quarantined: List[str] = []
        degraded_errors: Dict[str, str] = {}
        for profile in run.usable:
            name = profile.test.full_name
            outcome = run.outcomes[name]
            results.extend(outcome.results)
            _merge_stats(pool_stats, outcome.stats)
            executions += outcome.executions
            for kind, count in outcome.fault_counts.items():
                fault_counts[kind] = fault_counts.get(kind, 0) + count
            retries += outcome.retries
            if outcome.error:
                degraded.append(name)
                degraded_errors[name] = outcome.error
                if outcome.error_kind == WORKER_CRASH:
                    quarantined.append(name)

        stage_counts = self._stage_counts(run.profiles, run.usable)
        stage_counts.after_pooling = pool_stats.total_instances_run
        hypothesis_stats = _hypothesis_stats(results)
        results_by_param = _group_confirmed(results)
        verdicts = triage_report(results_by_param, self.registry,
                                 blacklisted=self.tracker.blacklisted)
        cost_centers = self._cost_centers(run.usable, run.outcomes)
        audit_stats = self._run_audit(run.profiles)
        if self.observation is not None:
            self._app_span.attrs["blacklisted"] = {
                param: self.tracker.failure_count(param)
                for param in sorted(self.tracker.blacklisted)}
            self._assemble_spans(run.usable, run.outcomes)
            self._finalize_runtime_metrics()
        report = AppReport(
            app=self.app,
            stage_counts=stage_counts,
            prerun_summary=PreRunSummary.from_profiles(run.profiles),
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
        """A fresh per-profile cache keyed by everything that shapes a
        single execution's behaviour (so stale outcomes can never be
        served).  Keys include the unit-test name and one profile is one
        test, so no entry outlives the profile that made it.

        Without ``exec_cache`` or a store, hits are charged (paper
        accounting), and under a fault plan there is no cache at all: a
        replay could not re-emit the execution's faults and retries."""
        paper = not self.config.exec_cache and not self.config.store_path
        if paper and self.config.fault_plan is not None \
                and self.config.fault_plan.active:
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
        return ExecutionCache(context=context, charge_hits=paper)

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
            return None
        checkpoint = CampaignCheckpoint(self.config.checkpoint_path)
        checkpoint.load()
        checkpoint.check_header(self.app, self.config.checkpoint_settings())
        return checkpoint

    def _restore_profile(self, checkpoint: CampaignCheckpoint, name: str,
                         tests_by_name: Mapping[str, UnitTest]
                         ) -> ProfileOutcome:
        """Fold one journaled profile back.  Its confirmations count
        toward the frequent-failure threshold exactly as they did in the
        interrupted run, and it is not journaled a second time."""
        outcome = parallel.profile_outcome_from_dict(
            checkpoint.restore_test(name), tests_by_name)
        outcome.folded = "restored"
        parallel.commit_outcome(self, None, name, outcome)
        return outcome

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
                return CampaignPlan.from_dict(journaled)
        plan = build_plan(self, usable, store, self._profile_keys(usable))
        if checkpoint is not None:
            checkpoint.record_plan(self.app, plan.to_dict())
        return plan

    def _profile_keys(self, usable: Sequence[TestProfile]) -> Dict[str, str]:
        """Each usable profile's plan key, computed once per run: the
        plan and the store's profile records both need them."""
        if self._keys is None:
            self._keys = profile_keys(self, usable)
        return self._keys

    def _fold_planned_profile(self, profile: TestProfile,
                              checkpoint: Optional[CampaignCheckpoint],
                              tests_by_name: Mapping[str, UnitTest]
                              ) -> Optional[ProfileOutcome]:
        """Fold one plan-REUSE profile from its stored record.

        Returns None when the stored record has vanished since planning
        (store GC raced, disk fault ate the segment) — the caller then
        runs the profile for real, which is always correct, just slower.
        It commits like any finished profile: blacklist confirmations
        replay exactly as they did in the stored run, and the fold is
        journaled as a finished test so a crash + resume restores it
        identically.
        """
        name = profile.test.full_name
        stored = self._store.lookup_profile(self._plan.plan_for(name).key)
        if stored is None:
            return None
        try:
            outcome = parallel.profile_outcome_from_dict(stored["record"],
                                                         tests_by_name)
        except (KeyError, TypeError, ValueError):
            # damaged or schema-drifted record: fall back to running.
            return None
        # Zero fresh executions: the whole point of the plan.  The stored
        # pool statistics are preserved so the findings projection is
        # byte-identical to the campaign that produced them; its cache
        # traffic is that campaign's, not this one's.
        outcome.executions = 0
        outcome.stats.exec_cache_hits = 0
        outcome.stats.exec_cache_misses = 0
        outcome.stats.exec_cache_bypasses = 0
        outcome.folded = "reused"
        parallel.commit_outcome(self, checkpoint, name, outcome)
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
        execution count the planner prices — is already durable.  For the
        same reason a stored record that differs from the fresh one only
        in accounting (:func:`repro.core.parallel.without_accounting`) is
        kept: a warm rerun answered from the store spends no executions,
        and its record would tell the planner that reusing saves none.
        """
        if self._store is None:
            return
        keys = self._profile_keys(profiles)
        for profile in profiles:
            name = profile.test.full_name
            if self._plan is not None \
                    and self._plan.decision(name) == PLAN_REUSE:
                continue
            outcome = outcome_by_test.get(name)
            if outcome is None or outcome.error:
                continue
            key = keys[name]
            confirmed = outcome.confirmed
            record = parallel.profile_outcome_to_dict(outcome)
            stored = self._store.lookup_profile(key)
            if stored is not None \
                    and list(stored.get("confirmed", [])) == confirmed \
                    and parallel.without_accounting(
                        stored.get("record", {})) \
                    == parallel.without_accounting(record):
                continue  # the same findings are already durable
            self._store.append_profile(key, name, record,
                                       confirmed=confirmed)

    def _run_lease(self, profile: TestProfile,
                   confirmations: Iterable[Sequence[str]]
                   ) -> Tuple[ProfileOutcome, Optional[Dict[str, int]]]:
        """Run a leased profile on a private tracker started from exactly
        the lease's (parameter, test) ``confirmations``, whatever the
        campaign's tracker holds; return its outcome and the store
        traffic it made (None: no store)."""
        tracker = FrequentFailureTracker(self.config.blacklist_threshold)
        for param, test in confirmations:
            tracker.record_unsafe(param, test)
        before = None if self._store is None else self._store.traffic()
        outcome = self._run_profile_contained(profile, tracker)
        if before is None:
            return outcome, None
        return outcome, {name: count - before[name] for name, count
                         in self._store.traffic().items()
                         if count != before[name]}

    def _run_profile_contained(self, profile: TestProfile,
                               tracker: FrequentFailureTracker
                               ) -> ProfileOutcome:
        """Run one profile, containing harness crashes as a degraded
        outcome instead of letting them abort the campaign."""
        try:
            return self._run_test_profile(profile, tracker)
        except Exception:  # noqa: BLE001 - graceful degradation
            return ProfileOutcome(error=traceback.format_exc(),
                                  error_kind=HARNESS_ERROR)

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
        if runner.simulations:
            metrics.counter_inc("zc_runtime_simulations_total",
                                runner.simulations)
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

    def _profile_committed(self, outcome: ProfileOutcome) -> None:
        """Fold one finished profile into the live campaign observation.

        Called from ``parallel.commit_outcome`` — always on the
        parent's committing thread, in completion order.
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
            obs.metrics.counter_inc("zc_profiles_total",
                                    status=outcome.status)
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
                # restored from a checkpoint, reused from the plan, or
                # the worker died before shipping spans: account the
                # modelled time it burned
                attrs: Dict[str, Any] = {"synthetic": True,
                                         "status": outcome.status}
                if outcome.error_kind:
                    attrs["error_kind"] = outcome.error_kind
                with obs.span(name, kind="profile", **attrs):
                    obs.advance_sim(outcome.executions * run_cost)

    def _finalize_runtime_metrics(self) -> None:
        """End-of-run volatile metrics: supervision and distribution
        counters (they depend on how the campaign ran, not on what it
        found — hence the zc_runtime_*/zc_dist_* namespaces), plus the
        store and plan counters."""
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
                              instances=len(outcome.results))
                   for profile in usable
                   for outcome in (outcome_by_test[profile.test.full_name],)]
        centers.sort(key=lambda center: (-center.executions, center.test))
        return tuple(centers[:limit])

    # ------------------------------------------------------------------
    def _run_test_profile(self, profile: TestProfile,
                          tracker: FrequentFailureTracker) -> ProfileOutcome:
        """All pooled testing for one unit test (parallelism granule),
        its blacklist reads answered by ``tracker``.

        With observation on, the profile gets its *own* Observation —
        single-threaded by construction whether it runs in process or in
        a forked worker — serialised onto the outcome so the parent can
        merge it deterministically.
        """
        if not self._observing():
            return self._profile_body(profile, tracker, None)
        obs = Observation(metrics=MetricsRegistry(
            constant_labels={"app": self.app}))
        with obs.span(profile.test.full_name, kind="profile") as span:
            outcome = self._profile_body(profile, tracker, obs)
            if outcome.error_kind:
                span.attrs["error_kind"] = outcome.error_kind
        outcome.observation = obs.to_wire()
        return outcome

    def _profile_body(self, profile: TestProfile,
                      tracker: FrequentFailureTracker,
                      obs: Optional[Observation]) -> ProfileOutcome:
        runner = TestRunner(alpha=self.config.alpha,
                            max_trials=self.config.max_trials,
                            run_cost_s=self.config.run_cost_s,
                            fault_plan=self.config.fault_plan,
                            infra_retries=self.config.infra_retries,
                            watchdog_sim_s=self.config.watchdog_sim_s,
                            registry=self.registry,
                            cache=self._build_cache(),
                            collapse_exclude=profile.explicit_sets,
                            observe=obs)
        tester = PooledTester(runner, tracker=tracker,
                              max_pool_size=self.config.max_pool_size)
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
                # cells (--sample); None = exhaustive.
                kept = sample_cells(
                    self.config.sample, self.config.sample_seed,
                    self.config.sample_k, profile.test.full_name, group,
                    list(self.generator.strategies_for_group(group_size)),
                    {name: len(pairs_by_param[name]) for name in params})
                for strategy in self.generator.strategies_for_group(group_size):
                    generated = {name: self.generator.assignments(
                                     self.registry.get(name), group, strategy)
                                 for name in params}
                    for layer in range(layers):
                        units = [generated[name][layer]
                                 for name in params
                                 if layer < len(generated[name])
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
        stats = tester.stats
        stats.exec_cache_hits += runner.cache_hits
        stats.exec_cache_misses += runner.cache_misses
        stats.exec_cache_bypasses += runner.cache_bypasses
        if obs is not None:
            self._fill_profile_metrics(obs.metrics, runner, stats)
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
    """Every application's campaign, reported in catalog order."""
    return CampaignReport(apps=run_campaigns(application_campaigns(config)))


def run_campaigns(campaigns: Sequence[Campaign]) -> List[AppReport]:
    """Run ``campaigns``; reports come back in the order given.

    The one scheduler.  Each campaign is prepared here, in order (its
    journal-restored and plan-REUSE profiles fold there).  Under
    ``distributed`` each campaign's pending profiles are served to the
    remote fleet in turn.  Whatever is left runs on one local front: the
    supervised pool (:func:`repro.core.supervise.run_profiles_parallel`,
    the campaign with the most pending profiles first) where ``fork``
    exists and either ``workers > 1`` or, at ``workers == 1``, two or
    more campaigns have pending profiles on two or more usable CPUs;
    otherwise the in-process loop.  Every front grants in catalog order
    from a :class:`~repro.core.parallel.LeaseBook`, each profile running
    from its lease's confirmations.  Each campaign is then folded here,
    its audit included.  The campaigns share the first one's scheduling
    settings (``workers``, ``distributed``)."""
    with contextlib.ExitStack() as stack:
        runs = []
        for campaign in campaigns:
            stack.enter_context(campaign._running())
            runs.append(campaign._prepare())
        jobs = [parallel.Job(campaign, run.pending, run.checkpoint,
                             run.tests_by_name)
                for campaign, run in zip(campaigns, runs) if run.pending]
        config = campaigns[0].config
        outcomes: Dict[str, ProfileOutcome] = {}
        if config.distributed is not None:
            from repro.core.distrib import run_profiles_distributed
            left = []
            for job in jobs:
                done, remaining = run_profiles_distributed(job)
                outcomes.update(done)
                if remaining:
                    left.append(replace(job, profiles=remaining))
            jobs = left
        width = config.workers if config.workers > 1 \
            else parallel.usable_cpus()
        if jobs and parallel.fork_available() and (
                config.workers > 1 or (len(jobs) > 1 and width > 1)):
            from repro.core.supervise import run_profiles_parallel
            outcomes.update(run_profiles_parallel(
                sorted(jobs, key=lambda job: -len(job.profiles)), width))
        elif jobs:
            outcomes.update(_run_in_process(jobs))
        for run in runs:
            run.outcomes.update((p.test.full_name, outcomes[p.test.full_name])
                                for p in run.pending)
        return [campaign._finish(run)
                for campaign, run in zip(campaigns, runs)]


def _run_in_process(jobs: Sequence[parallel.Job]
                    ) -> Dict[str, ProfileOutcome]:
    """The in-process front: each job's profiles one at a time, in
    order, each run from its lease's confirmations as a pool worker
    runs it and committed before the next is granted."""
    book = parallel.LeaseBook(jobs)
    while not book.done():
        task = book.grant(None)
        job, profile = book.units[task["task"]]
        job.campaign._check_cancelled()
        outcome, _ = job.campaign._run_lease(profile, task["confirmations"])
        book.commit(task["task"], outcome)
    return book.outcomes
