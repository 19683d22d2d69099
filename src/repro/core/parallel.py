"""Shared plumbing for running profiles across processes.

:func:`repro.core.orchestrator.run_campaigns` runs pending profiles on
one of three fronts over one :class:`LeaseBook`: the remote fleet of
:mod:`repro.core.distrib`, the supervised pool of forked workers in
:mod:`repro.core.supervise`, or an in-process loop.  The simulation is
pure Python, so only processes give real parallelism; platforms without
``fork`` run in process.  This module holds what every front shares:

* **The record.**  :func:`profile_outcome_to_dict` /
  :func:`profile_outcome_from_dict` are the one JSON-able form of a
  finished profile: the journal's ``test-done`` line, the store's
  profile record and — with the profile's ``observation`` (its spans,
  decision events included, and metrics) added — the message a forked
  or remote worker sends home.
* **The commit.**  :func:`commit_outcome` is the one way a finished
  profile enters the campaign, whether it ran here, came back from a
  worker, was restored from the journal or was reused from the store:
  its confirmations replay into the campaign's frequent-failure
  tracker, its ``test-done`` record is journaled (when a checkpoint is
  given) and the live observability fold runs, **as each profile
  completes**.  A mid-campaign crash therefore loses only the in-flight
  profiles.
* **The lease book.**  :class:`LeaseBook` is the queue every front
  grants from, in catalog order, and the failure policy the pool and
  the coordinator share, with the :data:`REDELIVERY` bound on lost
  leases.  Each lease carries the blacklist confirmations committed
  before it in catalog order, and the profile runs from exactly those.
  Profiles of one campaign that run side by side do not see each
  other's confirmations, so run-to-run byte-identity at ``workers > 1``
  requires decoupled profiles.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import Counter, deque
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.checkpoint import result_from_dict, result_to_dict
from repro.core.pooling import PoolStats
from repro.core.registry import UnitTest
from repro.core.runner import WORKER_CRASH

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


def commit_outcome(campaign: Any, checkpoint: Optional[Any], name: str,
                   outcome: Any) -> None:
    """Fold one finished profile into the campaign, in the parent.

    Frequent-failure bookkeeping feeds both future blacklisting and the
    final report's blacklist section.  Every profile runs on a private
    tracker started from its lease, and a restored or reused profile
    never ran here, so its confirmations are replayed into the
    campaign's tracker.  The ``test-done`` journal record is
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


# ---------------------------------------------------------------------------
# the lease book: every front's queue, the pool's and the fleet's policy
# ---------------------------------------------------------------------------
@dataclass(eq=False)
class Job:
    """One campaign's pending profiles for a lease book, in catalog
    order, with where their commits go."""

    campaign: Any
    profiles: Sequence[Any]
    checkpoint: Optional[Any]
    tests_by_name: Mapping[str, UnitTest]


@dataclass
class Lease:
    """A profile out for a run; two holders while a stolen copy runs."""

    delivery: int
    granted_at: float
    holders: Set[Any]


class LeaseBook:
    """The queue every front grants from, and the failure policy the
    supervised pool and the distributed coordinator share; each adds
    only its link and its liveness checks.

    Every job's profiles queue in the order given, as delivery 1, keyed
    by test full name (``app::test``, unique across apps).  With a
    ``limit``, at most that many profiles of one campaign are out at
    once: at 1 each campaign is a chain.  The first commit of a queued
    name wins (:func:`commit_outcome`).  A lease revoked from its last
    holder is queued again at the head, as the next delivery, or once it
    has had :data:`REDELIVERY` redeliveries it is committed as a
    WORKER_CRASH quarantine, counted in ``stats`` and announced as the
    ``announce`` (name, kind) span event.  It is journaled like any
    finished test, so a resume does not retry poison.  The in-process
    front never revokes, so it passes neither.
    """

    def __init__(self, jobs: Sequence[Job], stats: Any = None,
                 announce: Optional[Tuple[str, str]] = None,
                 limit: Optional[int] = None) -> None:
        self.stats = stats
        self.announce = announce
        self.limit = limit
        #: ``--profile-deadline`` (None: no lease is ever overdue).
        self.deadline = jobs[0].campaign.config.profile_deadline_s
        #: test full name -> (its job, its profile), in queue order.
        self.units: Dict[str, Tuple[Job, Any]] = {
            p.test.full_name: (job, p) for job in jobs for p in job.profiles}
        #: test full name -> catalog position within its campaign.
        self.position = {test.full_name: index for job in jobs
                         for index, test in enumerate(job.campaign.tests)}
        #: (test full name, delivery number), next grant first.
        self.queue = deque((name, 1) for name in self.units)
        self.leases: Dict[str, Lease] = {}
        self.outcomes: Dict[str, Any] = {}

    def done(self) -> bool:
        return len(self.outcomes) == len(self.units)

    def grant(self, holder: Any) -> Optional[Dict[str, Any]]:
        """Lease the first queued profile whose campaign is under the
        limit: its :meth:`task`, or None."""
        out = Counter(self.units[name][0] for name in self.leases)
        for entry in list(self.queue):
            name, delivery = entry
            if name in self.outcomes:  # a copy won meanwhile
                self.queue.remove(entry)
                continue
            if self.limit is not None \
                    and out[self.units[name][0]] >= self.limit:
                continue
            self.queue.remove(entry)
            self.leases[name] = Lease(delivery, time.monotonic(), {holder})
            return self.task(name)
        return None

    def task(self, name: str) -> Dict[str, Any]:
        """Lease ``name`` as its holder receives it: the delivery, and
        every (parameter, test) confirmation that profiles before it in
        its campaign's catalog order committed.  The holder's blacklist
        reads start from exactly these."""
        here = self.position[name]
        confirmations = [
            [param, test] for param, test
            in self.units[name][0].campaign.tracker.confirmations()
            if self.position.get(test, here) < here]
        return {"task": name, "delivery": self.leases[name].delivery,
                "confirmations": confirmations}

    def release(self, name: str) -> None:
        """Undo a grant that never reached its holder."""
        self.queue.appendleft((name, self.leases.pop(name).delivery))

    def copy(self, holder: Any, max_copies: int
             ) -> Optional[Dict[str, Any]]:
        """Work stealing: also lease the oldest lease ``holder`` does not
        hold yet that has fewer than ``max_copies`` holders."""
        oldest = min(((lease.granted_at, name)
                      for name, lease in self.leases.items()
                      if holder not in lease.holders
                      and len(lease.holders) < max_copies), default=None)
        if oldest is None:
            return None
        self.leases[oldest[1]].holders.add(holder)
        return self.task(oldest[1])

    def held_by(self, holder: Any) -> List[str]:
        return sorted(name for name, lease in self.leases.items()
                      if holder in lease.holders)

    def overdue(self, now: float) -> List[str]:
        """Leases out longer than the deadline, in grant order."""
        return [name for name, lease in self.leases.items()
                if self.deadline is not None
                and now - lease.granted_at > self.deadline]

    def commit(self, name: str, outcome: Any) -> bool:
        """True when this is the first commit of a queued name."""
        if name not in self.units or name in self.outcomes:
            return False
        job = self.units[name][0]
        commit_outcome(job.campaign, job.checkpoint, name, outcome)
        self.outcomes[name] = outcome
        self.leases.pop(name, None)
        return True

    def commit_record(self, name: str, record: Mapping[str, Any]) -> bool:
        """:meth:`commit` a worker's record, decoded only if it wins.  The
        store traffic the worker's run made (``store``) is counted on the
        campaign's store, as if the profile had run here."""
        if name not in self.units or name in self.outcomes:
            return False
        job = self.units[name][0]
        store = job.campaign._store
        if store is not None and record.get("store"):
            store.add_traffic(record["store"])
        return self.commit(name, profile_outcome_from_dict(
            record, job.tests_by_name))

    def revoke(self, name: str, reason: str, holder: Any = None) -> None:
        """Take ``name``'s lease from ``holder`` (from all when None)."""
        lease = self.leases.get(name)
        if lease is None:
            return
        lease.holders.discard(holder)
        if holder is not None and lease.holders:
            return  # a stolen copy is still running it
        del self.leases[name]
        if lease.delivery <= REDELIVERY:
            self.stats.redeliveries += 1
            self.queue.appendleft((name, lease.delivery + 1))
        else:
            self.quarantine(name, "%s; profile quarantined after %d "
                                  "deliveries" % (reason, lease.delivery))

    def quarantine(self, name: str, reason: str) -> None:
        from repro.core.orchestrator import ProfileOutcome
        if self.commit(name, ProfileOutcome(error=reason,
                                            error_kind=WORKER_CRASH)):
            self.stats.quarantined += 1
            obs = self.units[name][0].campaign.observation
            if obs is not None:
                event, kind = self.announce
                obs.event(event, kind=kind, test=name, reason=reason)

    def drain(self) -> List[str]:
        """Empty the queue; the names it held that are still open."""
        names = [name for name, _ in self.queue if name not in self.outcomes]
        self.queue.clear()
        return names
