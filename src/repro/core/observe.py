"""Campaign observability: spans, metrics, exporters, live progress.

ZebraConf campaigns run thousands of (test, parameter, assignment)
instances through pooling, bisection, caching, and a supervised worker
fleet.  This module is the window into a run:

* **Spans** — a hierarchical trace (app > prerun/profile > pool >
  bisection > instance > trial) where every span carries *two* clocks:

  - ``wall_*``   — real ``time.time()`` seconds, for humans and Perfetto;
  - ``sim_*``    — modelled machine seconds (executions x ``run_cost_s``
    plus retry backoff), which are **deterministic**: the same seeded
    campaign produces the same sim-timeline no matter the backend,
    scheduling, or host load.

* **Metrics** — a declared catalog of counters, gauges, and fixed-bucket
  histograms.  Merges are commutative (counters/histograms sum, gauges
  take max), so worker results folded in completion order still yield a
  byte-identical snapshot.  Metrics whose values depend on *how* the
  campaign ran rather than *what it computed* (worker spawns, wall-clock
  histograms, cache occupancy) are flagged ``volatile`` and excluded
  from the deterministic snapshot by default.

* **Exporters** — JSONL span dumps, a Chrome ``trace_event`` file
  loadable in Perfetto / ``chrome://tracing``, and a Prometheus-style
  text snapshot — plus validators for each format so CI can gate on
  schema-valid artifacts without external dependencies.

Worker-side collection: each profile gets its own :class:`Observation`
(single-threaded by construction), serialised via :meth:`Observation.
to_wire` into the ``ProfileOutcome`` that already crosses the
process/supervision boundary, and folded into the campaign-level
observation in the parent — metrics at commit time (so the live
progress line stays current), spans at the end of the run in
deterministic profile order (see ``orchestrator.Campaign``).
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    TextIO, Tuple)

__all__ = [
    "METRIC_CATALOG",
    "MetricSpec",
    "MetricsRegistry",
    "Span",
    "Observation",
    "ProgressReporter",
    "phase_costs",
    "write_spans_jsonl",
    "write_chrome_trace",
    "write_metrics_text",
    "validate_spans_jsonl",
    "validate_chrome_trace",
    "validate_metrics_text",
    "read_metrics_totals",
    "reconcile_with_report",
]

# --------------------------------------------------------------------------
# metric catalog
# --------------------------------------------------------------------------

#: Span kinds, outermost first.  "parameter" from the paper's hierarchy
#: does not exist as a span level — pooled testing deliberately runs
#: *many* parameters per execution — so parameters ride along as span
#: attributes instead (see docs/OBSERVABILITY.md).
SPAN_KINDS = ("app", "prerun", "audit", "profile", "pool", "bisection",
              "instance", "trial", "supervisor")

#: Modelled machine-seconds bucket boundaries.  Executions cost whole
#: multiples of ``run_cost_s`` (default 60s), so buckets are chosen in
#: execution-count terms: 1, 2, 4, ... executions at the default cost.
_MACHINE_SECONDS_BUCKETS = (60.0, 120.0, 240.0, 480.0, 960.0, 1920.0,
                            3840.0, 7680.0, 15360.0, 30720.0)
_EXECUTION_COUNT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                            256.0, 512.0)
_POOL_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_WALL_SECONDS_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0)


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: its kind, meaning, and merge semantics."""

    kind: str                          # "counter" | "gauge" | "histogram"
    help: str
    volatile: bool = False             # run-scoped; excluded from the
    #                                  # deterministic snapshot
    buckets: Tuple[float, ...] = ()    # histograms only; fixed boundaries


#: Every metric the campaign may emit.  Names outside this catalog are
#: rejected at emit time — the catalog IS the schema.
METRIC_CATALOG: Dict[str, MetricSpec] = {
    # -- deterministic: same seeded campaign => same values, any backend
    "zc_executions_total": MetricSpec(
        "counter", "Unit-test executions performed by profile runners "
        "(excludes prerun)."),
    "zc_prerun_executions_total": MetricSpec(
        "counter", "Instrumented pre-run executions used to learn node "
        "groups and parameter usage."),
    "zc_machine_seconds_total": MetricSpec(
        "counter", "Modelled machine time: executions x run_cost_s plus "
        "retry backoff."),
    "zc_backoff_seconds_total": MetricSpec(
        "counter", "Modelled machine time spent in infra-retry backoff."),
    "zc_infra_retries_total": MetricSpec(
        "counter", "Infrastructure-error retries performed by runners."),
    "zc_exec_cache_hits_total": MetricSpec(
        "counter", "Executions answered from the execution cache."),
    "zc_exec_cache_misses_total": MetricSpec(
        "counter", "Cacheable executions that ran and were stored."),
    "zc_exec_cache_bypasses_total": MetricSpec(
        "counter", "Executions that bypassed the cache (fault injection "
        "active, or caching disabled for the trial)."),
    "zc_pool_runs_total": MetricSpec(
        "counter", "Pooled executions at bisection depth 0."),
    "zc_bisection_runs_total": MetricSpec(
        "counter", "Pooled executions at bisection depth > 0."),
    "zc_singleton_instances_total": MetricSpec(
        "counter", "Instances that reached Definition-3.1 singleton "
        "evaluation."),
    "zc_pools_cleared_total": MetricSpec(
        "counter", "Pools whose every variant passed, clearing all "
        "members at once."),
    "zc_params_cleared_in_pools_total": MetricSpec(
        "counter", "Parameters cleared by a passing pool."),
    "zc_interference_events_total": MetricSpec(
        "counter", "Pools voided because a pooled parameter interfered "
        "with the others."),
    "zc_pool_voids_total": MetricSpec(
        "counter", "Pool runs voided (interference or repeated infra "
        "failure)."),
    "zc_pool_infra_giveups_total": MetricSpec(
        "counter", "Pool runs abandoned after exhausting infra retries."),
    "zc_blacklist_skips_total": MetricSpec(
        "counter", "Instances skipped because the parameter was "
        "blacklisted as a frequent failer."),
    "zc_already_confirmed_skips_total": MetricSpec(
        "counter", "Instances skipped because the parameter was already "
        "confirmed unsafe for the group."),
    "zc_faults_injected_total": MetricSpec(
        "counter", "Deterministic faults injected, by kind."),
    "zc_instance_verdicts_total": MetricSpec(
        "counter", "Singleton instances evaluated, by verdict."),
    "zc_profiles_total": MetricSpec(
        "counter", "Unit-test profiles finished, by status."),
    "zc_instance_executions": MetricSpec(
        "histogram", "Executions consumed per singleton instance "
        "(Definition 3.1 plus hypothesis-testing re-runs).",
        buckets=_EXECUTION_COUNT_BUCKETS),
    "zc_instance_machine_seconds": MetricSpec(
        "histogram", "Modelled machine seconds per singleton instance.",
        buckets=_MACHINE_SECONDS_BUCKETS),
    "zc_profile_machine_seconds": MetricSpec(
        "histogram", "Modelled machine seconds per unit-test profile.",
        buckets=_MACHINE_SECONDS_BUCKETS),
    "zc_pool_size": MetricSpec(
        "histogram", "Parameters per depth-0 pool run.",
        buckets=_POOL_SIZE_BUCKETS),
    "zc_pool_max_depth": MetricSpec(
        "gauge", "Deepest bisection recursion reached."),
    "zc_sched_predicted_executions_total": MetricSpec(
        "counter", "Cost-model predicted executions summed over usable "
        "profiles (analytic, emitted identically on every backend)."),
    "zc_sched_prediction_error_executions_total": MetricSpec(
        "counter", "Sum of |predicted - actual| executions over usable "
        "profiles: the cost model's absolute forecasting error."),
    "zc_audit_params_total": MetricSpec(
        "counter", "Registry parameters audited by the wiring audit, "
        "by verdict (WIRED / UNREAD / READ_BUT_INERT)."),
    "zc_audit_probe_executions_total": MetricSpec(
        "counter", "Differential probe executions performed by the "
        "wiring audit (accounted separately from campaign executions)."),
    "zc_audit_probe_cache_hits_total": MetricSpec(
        "counter", "Audit probes answered from the per-audit memo "
        "instead of executing."),
    "zc_audit_probes_collapsed_total": MetricSpec(
        "counter", "Audit probes skipped because their canonical form "
        "collapsed onto the original-configuration baseline."),
    "zc_audit_machine_seconds_total": MetricSpec(
        "counter", "Modelled machine time of audit probe executions "
        "(probe executions x run_cost_s; separate budget from "
        "zc_machine_seconds_total)."),
    # -- volatile: depends on backend/host, excluded from the
    # -- deterministic snapshot (rendered only with include_volatile)
    "zc_runtime_workers_spawned_total": MetricSpec(
        "counter", "Supervised worker processes spawned.", volatile=True),
    "zc_runtime_worker_crashes_total": MetricSpec(
        "counter", "Supervised workers that died mid-profile.",
        volatile=True),
    "zc_runtime_respawns_total": MetricSpec(
        "counter", "Replacement workers spawned after a death.",
        volatile=True),
    "zc_runtime_redeliveries_total": MetricSpec(
        "counter", "Profiles redelivered to a fresh worker after a "
        "crash.", volatile=True),
    "zc_runtime_deadline_kills_total": MetricSpec(
        "counter", "Workers SIGKILLed for exceeding the profile "
        "deadline.", volatile=True),
    "zc_runtime_heartbeat_kills_total": MetricSpec(
        "counter", "Workers SIGKILLed for missing heartbeats.",
        volatile=True),
    "zc_runtime_worker_recycles_total": MetricSpec(
        "counter", "Workers retired after reaching their per-worker "
        "profile budget.", volatile=True),
    "zc_runtime_quarantined_total": MetricSpec(
        "counter", "Profiles quarantined as WORKER_CRASH.", volatile=True),
    "zc_runtime_profile_wall_seconds": MetricSpec(
        "histogram", "Real wall-clock seconds per profile (host/load "
        "dependent).", volatile=True, buckets=_WALL_SECONDS_BUCKETS),
    "zc_runtime_exec_cache_entries": MetricSpec(
        "gauge", "Execution-cache entries at campaign end, by tier "
        "(cache sharing differs per backend).", volatile=True),
    "zc_runtime_sim_timers_cancelled_total": MetricSpec(
        "counter", "Simulation timers cancelled while still in a heap "
        "(kernel fast-path accounting; run-shape dependent).",
        volatile=True),
    "zc_runtime_sim_heap_compactions_total": MetricSpec(
        "counter", "Threshold-triggered simulation-heap compaction "
        "sweeps.", volatile=True),
    "zc_runtime_sim_timers_compacted_total": MetricSpec(
        "counter", "Cancelled heap entries removed by compaction sweeps.",
        volatile=True),
    "zc_dist_workers_joined_total": MetricSpec(
        "counter", "Remote worker connections that completed the "
        "hello/welcome handshake.", volatile=True),
    "zc_dist_workers_lost_total": MetricSpec(
        "counter", "Remote worker connections declared lost (EOF, "
        "reset, heartbeat silence).", volatile=True),
    "zc_dist_leases_granted_total": MetricSpec(
        "counter", "Profile leases granted to remote workers (includes "
        "stolen copies).", volatile=True),
    "zc_dist_redeliveries_total": MetricSpec(
        "counter", "Leases re-queued after their holder was lost or the "
        "lease deadline expired.", volatile=True),
    "zc_dist_lease_steals_total": MetricSpec(
        "counter", "Work-stealing copies granted of still-outstanding "
        "leases.", volatile=True),
    "zc_dist_duplicate_outcomes_total": MetricSpec(
        "counter", "Remote results acked but dropped because the profile "
        "was already committed.", volatile=True),
    "zc_dist_heartbeat_expiries_total": MetricSpec(
        "counter", "Remote workers declared lost for heartbeat silence.",
        volatile=True),
    "zc_dist_lease_expiries_total": MetricSpec(
        "counter", "Leases re-queued for exceeding the lease deadline.",
        volatile=True),
    "zc_dist_quarantined_total": MetricSpec(
        "counter", "Profiles quarantined by the coordinator after "
        "exhausting lease redelivery.", volatile=True),
    "zc_dist_remote_profiles_total": MetricSpec(
        "counter", "Profiles committed from remote worker outcomes.",
        volatile=True),
    "zc_dist_local_fallback_profiles_total": MetricSpec(
        "counter", "Profiles finished by the local pool after the "
        "coordinator degraded.", volatile=True),
    "zc_dist_net_faults_total": MetricSpec(
        "counter", "Injected transport faults on coordinator-side "
        "connections, by kind.", volatile=True),
    "zc_dist_auth_rejects_total": MetricSpec(
        "counter", "Connections refused by the HMAC handshake (bad or "
        "missing shared secret).", volatile=True),
    # Result-store counters live in their own zc_store_* budget and are
    # volatile by construction: what a store serves depends on the
    # campaigns that ran before this one, not on this one's findings.
    "zc_store_hits_total": MetricSpec(
        "counter", "Cache lookups served from the persistent store.",
        volatile=True),
    "zc_store_misses_total": MetricSpec(
        "counter", "Cache lookups that missed memory and the persistent "
        "store (true cold).", volatile=True),
    "zc_store_appends_total": MetricSpec(
        "counter", "Records durably appended to the store.", volatile=True),
    "zc_store_salvaged_records_total": MetricSpec(
        "counter", "Intact records recovered from damaged segments at "
        "open.", volatile=True),
    "zc_store_corrupt_records_total": MetricSpec(
        "counter", "Damage events (bad CRC/magic/length) skipped at "
        "open.", volatile=True),
    "zc_store_truncated_tails_total": MetricSpec(
        "counter", "Segments ending in an incomplete frame (interrupted "
        "final append).", volatile=True),
    "zc_store_stale_refused_total": MetricSpec(
        "counter", "Same-app entries refused for a mismatched corpus "
        "digest.", volatile=True),
    "zc_store_write_errors_total": MetricSpec(
        "counter", "Failed store appends (the writer degrades to "
        "read-only after the first).", volatile=True),
    "zc_store_entries_loaded": MetricSpec(
        "gauge", "Entries served from disk for this campaign's "
        "substrate at open.", volatile=True),
    # Incremental-plan counters (repro.core.plan) are volatile by
    # construction: the classification depends on what earlier campaigns
    # left in the store, not on what this one finds.
    "zc_plan_profiles_total": MetricSpec(
        "counter", "Profiles classified by the incremental planner, by "
        "decision (reuse/rerun/new).", volatile=True),
    "zc_plan_demoted_profiles_total": MetricSpec(
        "counter", "REUSE candidates demoted to RERUN by the blacklist-"
        "coupling closure.", volatile=True),
    "zc_plan_executions_saved_total": MetricSpec(
        "counter", "Stored executions the plan's REUSE folds avoided "
        "re-burning.", volatile=True),
}


def _fmt(value: float) -> str:
    """Prometheus-style number: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return "%d" % int(value)
    return repr(float(value))


class _Histogram:
    __slots__ = ("bucket_counts", "total")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)   # +Inf overflow last
        self.total = 0.0

    @property
    def count(self) -> int:
        return sum(self.bucket_counts)


class MetricsRegistry:
    """Catalog-checked metric store with deterministic merge semantics.

    One registry per :class:`Observation`; each observation is used from
    a single thread (one per profile, one in the campaign parent), so no
    locking is needed — "lock-free per worker" by construction.

    Merge rules (all commutative and associative, so fold order never
    matters): counters and histogram buckets **sum**; gauges take the
    **max**.  Counter values in this codebase are integers or exact
    binary multiples of ``run_cost_s``, so float summation is itself
    order-independent.
    """

    def __init__(self, constant_labels: Optional[Dict[str, str]] = None,
                 catalog: Optional[Dict[str, MetricSpec]] = None):
        self.catalog = METRIC_CATALOG if catalog is None else catalog
        self.constant_labels = tuple(sorted(
            (str(k), str(v)) for k, v in (constant_labels or {}).items()))
        # key: (name, ((label, value), ...)) -> float | _Histogram
        self._samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Any] = {}

    # -- emit ---------------------------------------------------------

    def _spec(self, name: str, kind: str) -> MetricSpec:
        spec = self.catalog.get(name)
        if spec is None:
            raise KeyError("metric %r is not in the catalog" % name)
        if spec.kind != kind:
            raise TypeError("metric %r is a %s, not a %s"
                            % (name, spec.kind, kind))
        return spec

    def _key(self, name: str,
             labels: Dict[str, Any]) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        merged = dict(self.constant_labels)
        merged.update((str(k), str(v)) for k, v in labels.items())
        return (name, tuple(sorted(merged.items())))

    def counter_inc(self, name: str, amount: float = 1.0,
                    **labels: Any) -> None:
        self._spec(name, "counter")
        if amount < 0:
            raise ValueError("counter %r cannot decrease" % name)
        key = self._key(name, labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def gauge_max(self, name: str, value: float, **labels: Any) -> None:
        self._spec(name, "gauge")
        key = self._key(name, labels)
        current = self._samples.get(key)
        if current is None or value > current:
            self._samples[key] = float(value)

    def hist_observe(self, name: str, value: float, **labels: Any) -> None:
        spec = self._spec(name, "histogram")
        key = self._key(name, labels)
        hist = self._samples.get(key)
        if hist is None:
            hist = self._samples[key] = _Histogram(len(spec.buckets))
        for i, bound in enumerate(spec.buckets):
            if value <= bound:
                hist.bucket_counts[i] += 1
                break
        else:
            hist.bucket_counts[-1] += 1
        hist.total += value

    # -- read ---------------------------------------------------------

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across all label sets (0 if unseen)."""
        return sum(value for (sample_name, _), value
                   in self._samples.items()
                   if sample_name == name and not isinstance(value,
                                                             _Histogram))

    # -- merge + wire -------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        scalars, hists = [], []
        for (name, labels), value in sorted(self._samples.items(),
                                            key=lambda item: item[0]):
            if isinstance(value, _Histogram):
                hists.append([name, list(map(list, labels)),
                              list(value.bucket_counts), value.total])
            else:
                scalars.append([name, list(map(list, labels)), value])
        return {"scalars": scalars, "hists": hists}

    def merge_wire(self, wire: Dict[str, Any]) -> None:
        for name, labels, value in wire.get("scalars", ()):
            key = (name, tuple((k, v) for k, v in labels))
            spec = self.catalog.get(name)
            if spec is not None and spec.kind == "gauge":
                current = self._samples.get(key)
                if current is None or value > current:
                    self._samples[key] = float(value)
            else:
                self._samples[key] = self._samples.get(key, 0.0) + value
        for name, labels, buckets, total in wire.get("hists", ()):
            key = (name, tuple((k, v) for k, v in labels))
            hist = self._samples.get(key)
            if hist is None:
                hist = self._samples[key] = _Histogram(len(buckets) - 1)
            for i, count in enumerate(buckets):
                hist.bucket_counts[i] += count
            hist.total += total

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_wire(other.to_wire())

    # -- render -------------------------------------------------------

    def render_prometheus(self, include_volatile: bool = False) -> str:
        """Prometheus text-format snapshot.

        The default (``include_volatile=False``) is the *deterministic*
        snapshot: byte-identical across serial and supervised-pool runs
        of the same seeded campaign.
        """
        lines: List[str] = []
        by_name: Dict[str, List[Tuple[Tuple[Tuple[str, str], ...], Any]]] = {}
        for (name, labels), value in self._samples.items():
            by_name.setdefault(name, []).append((labels, value))
        for name in sorted(by_name):
            spec = self.catalog[name]
            if spec.volatile and not include_volatile:
                continue
            lines.append("# HELP %s %s" % (name, spec.help))
            lines.append("# TYPE %s %s" % (name, spec.kind))
            for labels, value in sorted(by_name[name]):
                if isinstance(value, _Histogram):
                    cumulative = 0
                    for bound, count in zip(spec.buckets,
                                            value.bucket_counts):
                        cumulative += count
                        lines.append("%s_bucket%s %d" % (
                            name, _labelstr(labels + (("le", _fmt(bound)),)),
                            cumulative))
                    lines.append("%s_bucket%s %d" % (
                        name, _labelstr(labels + (("le", "+Inf"),)),
                        value.count))
                    lines.append("%s_sum%s %s"
                                 % (name, _labelstr(labels),
                                    _fmt(value.total)))
                    lines.append("%s_count%s %d"
                                 % (name, _labelstr(labels), value.count))
                else:
                    lines.append("%s%s %s"
                                 % (name, _labelstr(labels), _fmt(value)))
        return "\n".join(lines) + ("\n" if lines else "")


def _labelstr(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (k, v) for k, v in labels)


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------

@dataclass
class Span:
    """One timed region.  ``sim_*`` are modelled machine seconds since
    observation start (deterministic); ``wall_*`` are ``time.time()``."""

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    wall_start: float
    sim_start: float
    wall_end: float = 0.0
    sim_end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_duration_s(self) -> float:
        return max(self.wall_end - self.wall_start, 0.0)

    @property
    def sim_duration_s(self) -> float:
        return max(self.sim_end - self.sim_start, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {"span_id": self.span_id, "parent_id": self.parent_id,
                "name": self.name, "kind": self.kind,
                "wall_start": self.wall_start, "wall_end": self.wall_end,
                "sim_start": self.sim_start, "sim_end": self.sim_end,
                "attrs": dict(self.attrs)}


class _SpanContext:
    __slots__ = ("_obs", "span")

    def __init__(self, obs: "Observation", span: Span):
        self._obs = obs
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self._obs._close(self.span)


class Observation:
    """Span collector + metrics registry + modelled-time clock.

    Used from a single thread: the campaign parent owns one, and every
    profile runner (serial or forked worker) builds its own,
    shipped back as a wire dict and adopted by the parent.

    ``sim_now`` only advances via :meth:`advance_sim` — per execution
    (``run_cost_s``) and per retry backoff — so span sim-times are a
    pure function of campaign content.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 wall_clock: Callable[[], float] = time.time):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.wall_clock = wall_clock
        self.spans: List[Span] = []
        self.sim_now = 0.0
        self._next_id = 1
        self._stack: List[Span] = []

    # -- clock --------------------------------------------------------

    def advance_sim(self, seconds: float) -> None:
        self.sim_now += seconds

    # -- spans --------------------------------------------------------

    def span(self, name: str, kind: str, **attrs: Any) -> _SpanContext:
        if kind not in SPAN_KINDS:
            raise ValueError("unknown span kind %r" % kind)
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(span_id=self._next_id, parent_id=parent, name=name,
                    kind=kind, wall_start=self.wall_clock(),
                    sim_start=self.sim_now, attrs=dict(attrs))
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def event(self, name: str, kind: str, **attrs: Any) -> Span:
        """A zero-duration span (supervisor events: crash, kill, ...)."""
        with self.span(name, kind, **attrs) as span:
            pass
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError("span %r closed out of order" % span.name)
        self._stack.pop()
        span.wall_end = self.wall_clock()
        span.sim_end = self.sim_now

    # -- wire ---------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {"spans": [span.to_dict() for span in self.spans],
                "metrics": self.metrics.to_wire(),
                "sim_total_s": self.sim_now}

    def adopt_spans(self, wire: Dict[str, Any],
                    parent: Optional[Span] = None) -> None:
        """Graft a worker observation's span tree under ``parent``.

        Span ids are remapped into this observation's id space and sim
        times shifted by the current ``sim_now`` — adopting profiles in
        deterministic order lays them on a single modelled timeline, as
        if one machine had run them back to back (which is exactly the
        machine-time model the report uses).
        """
        records = wire.get("spans", ())
        id_map = {}
        for record in records:
            id_map[record["span_id"]] = self._next_id
            self._next_id += 1
        offset = self.sim_now
        fallback = parent.span_id if parent is not None else None
        for record in records:
            raw_parent = record["parent_id"]
            new_parent = (id_map.get(raw_parent, fallback)
                          if raw_parent is not None else fallback)
            self.spans.append(Span(
                span_id=id_map[record["span_id"]], parent_id=new_parent,
                name=record["name"], kind=record["kind"],
                wall_start=record["wall_start"],
                wall_end=record["wall_end"],
                sim_start=offset + record["sim_start"],
                sim_end=offset + record["sim_end"],
                attrs=dict(record.get("attrs", ()))))
        self.sim_now = offset + wire.get("sim_total_s", 0.0)


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

def phase_costs(observation: Observation) -> List[Tuple[str, int, float]]:
    """Modelled *self* time by span kind (child time excluded), so a
    pool span that spent all its time in bisection children attributes
    the cost to bisection, not to itself.

    Returns ``(kind, span_count, self_sim_seconds)`` rows sorted by
    self time descending, then kind.
    """
    child_sim: Dict[int, float] = {}
    for span in observation.spans:
        if span.parent_id is not None:
            child_sim[span.parent_id] = (child_sim.get(span.parent_id, 0.0)
                                         + span.sim_duration_s)
    counts: Dict[str, int] = {}
    self_time: Dict[str, float] = {}
    for span in observation.spans:
        counts[span.kind] = counts.get(span.kind, 0) + 1
        own = span.sim_duration_s - child_sim.get(span.span_id, 0.0)
        self_time[span.kind] = self_time.get(span.kind, 0.0) + max(own, 0.0)
    return sorted(((kind, counts[kind], self_time[kind])
                   for kind in counts),
                  key=lambda row: (-row[2], row[0]))


# --------------------------------------------------------------------------
# exporters
# --------------------------------------------------------------------------

Observations = Sequence[Tuple[str, Observation]]


def write_spans_jsonl(observations: Observations, path: str) -> int:
    """One JSON object per span, annotated with the owning app and both
    durations.  Returns the number of spans written."""
    written = 0
    with open(path, "w") as sink:
        for app, obs in observations:
            for span in obs.spans:
                record = span.to_dict()
                record["app"] = app
                record["wall_duration_s"] = span.wall_duration_s
                record["sim_duration_s"] = span.sim_duration_s
                sink.write(json.dumps(record, sort_keys=True) + "\n")
                written += 1
    return written


def _track_id(span: Span, by_id: Dict[int, Span]) -> int:
    """Chrome-trace thread id: the profile-level ancestor (the direct
    child of the app root), so each profile gets its own Perfetto
    track.  Root-level spans land on track 0."""
    current = span
    while current.parent_id is not None:
        parent = by_id.get(current.parent_id)
        if parent is None or parent.parent_id is None:
            return current.span_id
        current = parent
    return 0


def write_chrome_trace(observations: Observations, path: str) -> int:
    """Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``).

    Mapping: app -> process, profile -> thread, spans -> complete ("X")
    events on the wall clock; the modelled sim duration rides along in
    ``args`` so both clocks are visible in the UI.
    """
    starts = [span.wall_start
              for _, obs in observations for span in obs.spans]
    base = min(starts) if starts else 0.0
    events: List[Dict[str, Any]] = []
    for pid, (app, obs) in enumerate(observations):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": app}})
        by_id = {span.span_id: span for span in obs.spans}
        for span in obs.spans:
            args = dict(span.attrs)
            args["sim_duration_s"] = span.sim_duration_s
            events.append({
                "ph": "X", "name": span.name, "cat": span.kind,
                "pid": pid, "tid": _track_id(span, by_id),
                "ts": int(round((span.wall_start - base) * 1e6)),
                "dur": int(round(span.wall_duration_s * 1e6)),
                "args": args})
    with open(path, "w") as sink:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  sink, sort_keys=True)
    return sum(1 for event in events if event["ph"] == "X")


def write_metrics_text(observations: Observations, path: str,
                       include_volatile: bool = True) -> int:
    """Merged Prometheus-style snapshot across apps.  Returns the
    number of sample lines written (excluding comments)."""
    merged = MetricsRegistry()
    for _, obs in observations:
        merged.merge(obs.metrics)
    text = merged.render_prometheus(include_volatile=include_volatile)
    with open(path, "w") as sink:
        sink.write(text)
    return sum(1 for line in text.splitlines()
               if line and not line.startswith("#"))


# --------------------------------------------------------------------------
# validators (hand-rolled; no jsonschema dependency)
# --------------------------------------------------------------------------

_SPAN_FIELDS = {"span_id": int, "name": str, "kind": str,
                "wall_start": (int, float), "wall_end": (int, float),
                "sim_start": (int, float), "sim_end": (int, float),
                "attrs": dict, "app": str,
                "wall_duration_s": (int, float),
                "sim_duration_s": (int, float)}


def validate_spans_jsonl(path: str) -> int:
    """Schema-check a ``--trace-spans`` artifact; returns the span
    count or raises ``ValueError`` describing the first violation."""
    ids_by_app: Dict[str, set] = {}
    parents_by_app: Dict[str, List[Tuple[int, int]]] = {}
    count = 0
    with open(path) as source:
        for lineno, line in enumerate(source, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise ValueError("line %d: not valid JSON" % lineno)
            for key, types in _SPAN_FIELDS.items():
                if key not in record:
                    raise ValueError("line %d: missing %r" % (lineno, key))
                if not isinstance(record[key], types) or \
                        isinstance(record[key], bool):
                    raise ValueError("line %d: %r has wrong type"
                                     % (lineno, key))
            if "parent_id" not in record:
                raise ValueError("line %d: missing 'parent_id'" % lineno)
            if record["parent_id"] is not None and \
                    not isinstance(record["parent_id"], int):
                raise ValueError("line %d: parent_id must be int or null"
                                 % lineno)
            if record["kind"] not in SPAN_KINDS:
                raise ValueError("line %d: unknown kind %r"
                                 % (lineno, record["kind"]))
            if record["wall_end"] < record["wall_start"]:
                raise ValueError("line %d: wall_end < wall_start" % lineno)
            if record["sim_end"] < record["sim_start"]:
                raise ValueError("line %d: sim_end < sim_start" % lineno)
            app_ids = ids_by_app.setdefault(record["app"], set())
            if record["span_id"] in app_ids:
                raise ValueError("line %d: duplicate span_id %d"
                                 % (lineno, record["span_id"]))
            app_ids.add(record["span_id"])
            if record["parent_id"] is not None:
                parents_by_app.setdefault(record["app"], []).append(
                    (lineno, record["parent_id"]))
            count += 1
    for app, refs in parents_by_app.items():
        for lineno, parent in refs:
            if parent not in ids_by_app[app]:
                raise ValueError("line %d: parent_id %d not present"
                                 % (lineno, parent))
    return count


def validate_chrome_trace(path: str) -> int:
    """Schema-check a ``--trace-chrome`` artifact; returns the complete-
    event count or raises ``ValueError``."""
    with open(path) as source:
        try:
            document = json.load(source)
        except ValueError:
            raise ValueError("not valid JSON")
    if not isinstance(document, dict) or \
            not isinstance(document.get("traceEvents"), list):
        raise ValueError("top level must be {'traceEvents': [...]}")
    complete = 0
    for index, event in enumerate(document["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError("event %d: not an object" % index)
        if event.get("ph") == "M":
            continue
        for key, types in (("ph", str), ("name", str), ("cat", str),
                           ("pid", int), ("tid", int), ("ts", int),
                           ("dur", int), ("args", dict)):
            if not isinstance(event.get(key), types):
                raise ValueError("event %d: bad %r" % (index, key))
        if event["ph"] != "X":
            raise ValueError("event %d: expected complete event 'X'"
                             % index)
        if event["ts"] < 0 or event["dur"] < 0:
            raise ValueError("event %d: negative ts/dur" % index)
        complete += 1
    if complete == 0:
        raise ValueError("no complete events")
    return complete


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.+eEInf]+)$")


def read_metrics_totals(path: str) -> Dict[str, float]:
    """Parse a ``--metrics-out`` artifact into ``{name: total}`` sums
    across label sets (histograms contribute their ``_sum``/``_count``
    series under those suffixed names)."""
    totals: Dict[str, float] = {}
    with open(path) as source:
        for line in source:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            match = _SAMPLE_RE.match(line)
            if match is None:
                raise ValueError("unparseable sample line: %r" % line)
            name = match.group(1)
            totals[name] = totals.get(name, 0.0) + float(match.group(3))
    return totals


def validate_metrics_text(path: str) -> int:
    """Schema-check a ``--metrics-out`` artifact against the catalog;
    returns the sample-line count or raises ``ValueError``."""
    helped, typed = set(), set()
    count = 0
    hist_series: Dict[str, Dict[str, float]] = {}
    with open(path) as source:
        for lineno, line in enumerate(source, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if parts[3] not in ("counter", "gauge", "histogram"):
                    raise ValueError("line %d: bad TYPE %r"
                                     % (lineno, parts[3]))
                typed.add(parts[2])
                continue
            if line.startswith("#"):
                continue
            match = _SAMPLE_RE.match(line)
            if match is None:
                raise ValueError("line %d: unparseable sample" % lineno)
            name, labelstr, value = match.groups()
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and \
                        name[:-len(suffix)] in METRIC_CATALOG:
                    base = name[:-len(suffix)]
                    break
            spec = METRIC_CATALOG.get(base)
            if spec is None:
                raise ValueError("line %d: %r not in the metric catalog"
                                 % (lineno, name))
            if base not in helped or base not in typed:
                raise ValueError("line %d: %r missing HELP/TYPE header"
                                 % (lineno, base))
            if spec.kind == "histogram":
                seen = hist_series.setdefault(base, {})
                if name.endswith("_sum"):
                    seen["sum"] = seen.get("sum", 0) + 1
                elif name.endswith("_count"):
                    seen["count"] = seen.get("count", 0) + 1
                elif name.endswith("_bucket"):
                    seen["bucket"] = seen.get("bucket", 0) + 1
                else:
                    raise ValueError(
                        "line %d: histogram %r needs a _bucket/_sum/"
                        "_count suffix" % (lineno, base))
            count += 1
    for base, seen in hist_series.items():
        for suffix in ("bucket", "sum", "count"):
            if suffix not in seen:
                raise ValueError("histogram %r missing its _%s series"
                                 % (base, suffix))
    if count == 0:
        raise ValueError("no samples")
    return count


#: metrics-total expression -> report-dict path, checked by
#: :func:`reconcile_with_report`.
_RECONCILIATIONS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("executions", ("zc_executions_total", "zc_prerun_executions_total"),
     ("executions",)),
    ("cache hits", ("zc_exec_cache_hits_total",), ("exec_cache", "hits")),
    ("cache misses", ("zc_exec_cache_misses_total",),
     ("exec_cache", "misses")),
    ("pool voids", ("zc_pool_voids_total",), ("pool_stats", "pool_voids")),
    ("pool runs", ("zc_pool_runs_total",), ("pool_stats", "pool_runs")),
    ("worker respawns", ("zc_runtime_respawns_total",),
     ("supervision", "respawns")),
)


def reconcile_with_report(totals: Dict[str, float],
                          report: Dict[str, Any]) -> List[str]:
    """Cross-check a metrics snapshot against an ``app_report_to_dict``
    record (or a summed campaign of them).  Returns a list of mismatch
    descriptions — empty means the books balance exactly."""
    problems = []
    for label, metric_names, report_path in _RECONCILIATIONS:
        expected: Any = report
        for key in report_path:
            if not isinstance(expected, dict) or key not in expected:
                expected = None
                break
            expected = expected[key]
        if expected is None:
            continue
        measured = sum(totals.get(name, 0.0) for name in metric_names)
        if measured != expected:
            problems.append("%s: metrics say %s, report says %s"
                            % (label, _fmt(measured), _fmt(float(expected))))
    return problems


# --------------------------------------------------------------------------
# live progress
# --------------------------------------------------------------------------

class ProgressReporter:
    """A single ``\\r``-rewritten status line fed from the campaign
    metrics at every profile commit (throttled to ``min_interval_s``)."""

    def __init__(self, stream: TextIO, app: str, total: int = 0,
                 min_interval_s: float = 0.2,
                 clock: Callable[[], float] = time.monotonic):
        self.stream = stream
        self.app = app
        self.total = total
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._last_render = 0.0
        self._last_width = 0
        self._wrote = False

    def _render(self, snapshot: Dict[str, Any]) -> str:
        hits = snapshot.get("cache_hits", 0)
        misses = snapshot.get("cache_misses", 0)
        looked_up = hits + misses
        cache = ("cache %.1f%%" % (100.0 * hits / looked_up)
                 if looked_up else "cache -")
        parts = ["[%s] profiles %d/%d" % (self.app,
                                          snapshot.get("done", 0),
                                          self.total),
                 "exec %d" % snapshot.get("executions", 0), cache,
                 "voids %d" % snapshot.get("pool_voids", 0)]
        respawns = snapshot.get("respawns", 0)
        quarantined = snapshot.get("quarantined", 0)
        if respawns:
            parts.append("respawns %d" % respawns)
        if quarantined:
            parts.append("quarantined %d" % quarantined)
        return " | ".join(parts)

    def _write(self, snapshot: Dict[str, Any]) -> None:
        line = self._render(snapshot)
        pad = " " * max(self._last_width - len(line), 0)
        self.stream.write("\r" + line + pad)
        self.stream.flush()
        self._last_width = len(line)
        self._wrote = True

    def tick(self, snapshot: Dict[str, Any]) -> None:
        now = self._clock()
        done = snapshot.get("done", 0)
        if done < self.total and \
                now - self._last_render < self.min_interval_s:
            return
        self._last_render = now
        self._write(snapshot)

    def close(self, snapshot: Optional[Dict[str, Any]] = None) -> None:
        if snapshot is not None:
            self._write(snapshot)
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()
