"""Shared plumbing for running profiles across processes.

Campaigns run their unit-test profiles on this host one of two ways:
serially in the campaign process, or — at ``workers > 1`` where ``fork``
is available — on the supervised pool of forked workers in
:mod:`repro.core.supervise` (the remote fleet of
:mod:`repro.core.distrib` reuses that pool on every worker host).  The
simulation is pure Python, so only processes give real parallelism;
platforms without ``fork`` run serially.  This module holds what every
path shares:

* **The wire format.**  :func:`profile_outcome_to_dict` /
  :func:`profile_outcome_from_dict` carry a finished profile — results,
  counters, and the profile's own observation and trace events — across
  a pipe or socket as a JSON-able dict (the checkpoint record format).
* **The commit.**  :func:`commit_outcome` applies one finished profile's
  shared-state effects in the campaign process, **as each profile
  completes**: frequent-failure replay into the real tracker, the
  ``test-done`` journal record, measured scheduling cost, and the live
  observability fold.  A mid-campaign crash therefore loses only the
  in-flight profiles.  Blacklist propagation *between* concurrently
  running profiles follows completion order, so run-to-run
  byte-identity at ``workers > 1`` requires decoupled profiles.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import asdict
from typing import Any, Dict, Mapping, Optional

from repro.core.checkpoint import result_from_dict, result_to_dict
from repro.core.pooling import PoolStats
from repro.core.registry import UnitTest


# ---------------------------------------------------------------------------
# ProfileOutcome <-> JSON-able dict (the checkpoint wire format)
# ---------------------------------------------------------------------------
def profile_outcome_to_dict(outcome: Any) -> Dict[str, Any]:
    return {
        "results": [result_to_dict(r) for r in outcome.results],
        "pool_stats": asdict(outcome.stats),
        "executions": outcome.executions,
        "fault_counts": dict(outcome.fault_counts),
        "retries": outcome.retries,
        "error": outcome.error,
        "error_kind": outcome.error_kind,
        # Observation.to_wire() dict (spans + metrics + sim clock) when
        # the observability layer is on; already JSON-able.
        "observation": outcome.observation,
        # [kind, sim_at, data] TraceLog events of a forked profile.
        "trace_events": outcome.trace_events,
    }


def profile_outcome_from_dict(record: Mapping[str, Any],
                              tests_by_name: Mapping[str, UnitTest]) -> Any:
    from repro.core.orchestrator import ProfileOutcome
    return ProfileOutcome(
        results=[result_from_dict(r, tests_by_name)
                 for r in record["results"]],
        stats=PoolStats(**record["pool_stats"]),
        executions=int(record["executions"]),
        fault_counts={str(k): int(v)
                      for k, v in record["fault_counts"].items()},
        retries=int(record["retries"]),
        error=str(record["error"]),
        error_kind=str(record.get("error_kind", "")),
        observation=record.get("observation"),
        trace_events=record.get("trace_events"))


# ---------------------------------------------------------------------------
# host capabilities + the commit path
# ---------------------------------------------------------------------------
def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the platform
    has one (``taskset -c 0`` means one CPU), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def commit_outcome(campaign: Any, checkpoint: Optional[Any], name: str,
                   outcome: Any) -> None:
    """Apply one finished profile's shared-state effects in the parent.

    Frequent-failure bookkeeping feeds both future blacklisting and the
    final report's blacklist section.  A forked or remote worker's
    tracker is a private copy, so its confirmations are replayed here;
    for a serial profile the replay is a no-op, because the tracker
    counts distinct (parameter, test) pairs.  The ``test-done`` journal
    record is written immediately — the incremental-journaling
    invariant crash-resume relies on.
    """
    from repro.core.runner import CONFIRMED_UNSAFE
    for result in outcome.results:
        if result.verdict == CONFIRMED_UNSAFE:
            for param in result.instance.params:
                campaign.tracker.record_unsafe(param, name)
    if checkpoint is not None:
        checkpoint.record_test_done(
            name, outcome.results, outcome.stats, outcome.executions,
            fault_counts=outcome.fault_counts, retries=outcome.retries,
            error=outcome.error, error_kind=outcome.error_kind)
    # Measured scheduling weights (repro.core.costmodel.CostBook) are a
    # commit-time concern too: they must be durable beside the journal
    # before a crash, so a resume reschedules from measured costs.
    campaign._record_measured_cost(name, outcome)
    # Live observability fold (metrics merge + progress tick); span
    # adoption happens later in deterministic profile order.
    campaign._profile_committed(outcome)
