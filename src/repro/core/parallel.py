"""Shared plumbing for running profiles across processes.

Campaigns run their unit-test profiles on this host one of two ways:
serially in the campaign process, or — at ``workers > 1`` where ``fork``
is available — on the supervised pool of forked workers in
:mod:`repro.core.supervise` (the remote fleet of
:mod:`repro.core.distrib` reuses that pool on every worker host).  The
simulation is pure Python, so only processes give real parallelism;
platforms without ``fork`` run serially.  This module holds what every
path shares:

* **The record.**  :func:`profile_outcome_to_dict` /
  :func:`profile_outcome_from_dict` are the one JSON-able form of a
  finished profile: the journal's ``test-done`` line, the store's
  profile record and — with the profile's ``observation`` (its spans,
  decision events included, and metrics) added — the message a forked
  or remote worker sends home.
* **The commit.**  :func:`commit_outcome` is the one way a finished
  profile enters the campaign, whether it ran here, came back from a
  worker, was restored from the journal or was reused from the store:
  its confirmations replay into the real frequent-failure tracker, its
  ``test-done`` record is journaled (when a checkpoint is given) and the
  live observability fold runs, **as each profile completes**.  A
  mid-campaign crash therefore loses only the in-flight profiles.
  Blacklist propagation *between* concurrently running profiles follows
  completion order, so run-to-run byte-identity at ``workers > 1``
  requires decoupled profiles.
* **The dispatch order.**  :func:`dispatch_order` is the queue the
  supervised pool and the distributed coordinator hand profiles out
  from: longest first by measured pre-run weight.  Serial runs keep
  catalog order.
* **The redelivery bound.**  :data:`REDELIVERY` caps how often both of
  them hand out a profile again after losing its worker.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.checkpoint import result_from_dict, result_to_dict
from repro.core.plan import profile_testable_params
from repro.core.pooling import PoolStats
from repro.core.registry import UnitTest

#: times a profile whose worker died (a forked pool worker, or a remote
#: worker holding its lease) is delivered again before it is quarantined
#: as a WORKER_CRASH outcome.
REDELIVERY = 2


# ---------------------------------------------------------------------------
# ProfileOutcome <-> JSON-able record
# ---------------------------------------------------------------------------
def profile_outcome_to_dict(outcome: Any) -> Dict[str, Any]:
    """The record of one finished profile.  ``error`` and ``error_kind``
    appear only when the profile degraded or was quarantined, so a clean
    outcome's record carries exactly the five store keys."""
    record = {
        "results": [result_to_dict(r) for r in outcome.results],
        "pool_stats": asdict(outcome.stats),
        "executions": outcome.executions,
        "fault_counts": dict(outcome.fault_counts),
        "retries": outcome.retries,
    }
    if outcome.error:
        record["error"] = outcome.error
        record["error_kind"] = outcome.error_kind
    return record


def without_accounting(record: Mapping[str, Any]) -> Dict[str, Any]:
    """A record minus what the profile spent: ``executions``,
    ``fault_counts`` and ``retries``, each result's ``executions`` and the
    ``exec_cache_*`` pool counters.  Two runs that found the same thing
    agree here even when one was answered from the store for free."""
    body = {key: value for key, value in record.items()
            if key not in ("executions", "fault_counts", "retries")}
    body["results"] = [{key: value for key, value in result.items()
                        if key != "executions"}
                       for result in record.get("results", ())]
    body["pool_stats"] = {key: value for key, value
                          in record.get("pool_stats", {}).items()
                          if not key.startswith("exec_cache_")}
    return body


def profile_outcome_from_dict(record: Mapping[str, Any],
                              tests_by_name: Mapping[str, UnitTest]) -> Any:
    """Decode a record (journal line, store record or worker message);
    keys a record may lack take their clean-outcome defaults."""
    from repro.core.orchestrator import ProfileOutcome
    return ProfileOutcome(
        results=[result_from_dict(r, tests_by_name)
                 for r in record["results"]],
        stats=PoolStats(**record["pool_stats"]),
        executions=int(record["executions"]),
        fault_counts={str(k): int(v)
                      for k, v in record.get("fault_counts", {}).items()},
        retries=int(record.get("retries", 0)),
        error=str(record.get("error", "")),
        error_kind=str(record.get("error_kind", "")),
        observation=record.get("observation"))


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


def dispatch_order(campaign: Any, profiles: Sequence[Any]) -> List[Any]:
    """``profiles`` longest first, as a new list: the pre-run's measured
    wall time times the number of parameters the campaign will test on
    the profile, ties broken on test name.  Outcomes fold back in
    catalog order, so the order moves wall clock only, never findings."""
    def weight(profile: Any) -> float:
        return profile.prerun_wall_s * len(
            profile_testable_params(campaign, profile))
    return sorted(profiles, key=lambda p: (-weight(p), p.test.full_name))


def commit_outcome(campaign: Any, checkpoint: Optional[Any], name: str,
                   outcome: Any) -> None:
    """Fold one finished profile into the campaign, in the parent.

    Frequent-failure bookkeeping feeds both future blacklisting and the
    final report's blacklist section.  A forked or remote worker's
    tracker is a private copy, and a restored or reused profile never
    ran here, so its confirmations are replayed; for a serial profile
    the replay is a no-op, because the tracker counts distinct
    (parameter, test) pairs.  The ``test-done`` journal record is
    written immediately — the incremental-journaling invariant
    crash-resume relies on; a profile restored from the journal commits
    with no checkpoint.
    """
    for param in outcome.confirmed:
        campaign.tracker.record_unsafe(param, name)
    if checkpoint is not None:
        checkpoint.record_test_done(name, profile_outcome_to_dict(outcome))
    # Live observability fold (metrics merge + progress tick); span
    # adoption happens later in deterministic profile order.
    campaign._profile_committed(outcome)
