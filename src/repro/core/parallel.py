"""Process-backed profile scheduler: true parallelism for campaigns.

``CampaignConfig.workers`` originally fanned profiles over a
``ThreadPoolExecutor``, which models the paper's testbed but speeds
nothing up: the simulation is pure Python, so the GIL serializes the
actual work.  This module fans the same parallelism granule — one unit
test's whole profile — over *processes* instead.

This is the **bare** backend (``--no-supervise``): a plain
``ProcessPoolExecutor`` with no crash containment — one child that
segfaults or ``os._exit``s still kills the whole pool with
``BrokenProcessPool``.  The default path is the supervised pool in
:mod:`repro.core.supervise`, which owns its workers over explicit pipes
and survives child death; the wire format below is shared by both.

Design constraints and how they are met:

* **No pickling of live campaign state.**  The pool uses the ``fork``
  start method, and workers find the campaign through the module-global
  :data:`_WORKER_STATE` set just before the pool is created, so children
  inherit registries, corpora, and profiles by copy-on-write instead of
  serialization.  Only unit-test *names* cross the pipe going in, and
  JSON-able result dicts (the checkpoint wire format) cross coming back.
* **Shared-state writes happen in the parent.**  A forked child's
  :class:`FrequentFailureTracker` and checkpoint journal are private
  copies, so the parent replays each returned profile's confirmed-unsafe
  results into the real tracker and writes the authoritative
  ``test-done`` journal records itself — **as each profile completes**,
  not after the pool drains, so a mid-campaign crash loses only the
  in-flight profiles.  Blacklist propagation *between* concurrently
  running profiles is therefore backend-dependent — exactly as it
  already is for threads, where it depends on scheduling order.
* **Trace logs stay parent-only.**  A forked TraceLog would interleave
  half-written lines from many processes into one file descriptor, so
  the worker initializer disables tracing in the child; per-profile
  counters still flow back through :class:`ProfileOutcome`.
* **Graceful fallback.**  Platforms without ``fork`` (Windows, some
  sandboxes) silently degrade to the thread backend rather than failing
  the campaign.

Each child inherits a fork-time snapshot of the execution cache
(normally empty) and keeps a private cache across the profiles it owns;
cache keys include the unit-test name, so per-child caches lose no
cross-profile sharing the thread backend would have had for the same
profile set.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.checkpoint import result_from_dict, result_to_dict
from repro.core.pooling import PoolStats
from repro.core.registry import UnitTest

#: Set by the parent immediately before forking the pool:
#: ``{"campaign": Campaign, "profiles": {test name: TestProfile}}``.
_WORKER_STATE: Dict[str, Any] = {}


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
        observation=record.get("observation"))


# ---------------------------------------------------------------------------
# child-side entry points
# ---------------------------------------------------------------------------
def _worker_init() -> None:
    """Runs once per forked child: detach shared output channels."""
    campaign = _WORKER_STATE.get("campaign")
    if campaign is not None:
        campaign.config.trace = None


def _run_profile_worker(test_name: str) -> Dict[str, Any]:
    campaign = _WORKER_STATE["campaign"]
    profile = _WORKER_STATE["profiles"][test_name]
    try:
        # checkpoint=None: journaling is the parent's job (the child's
        # journal object is a useless fork copy and concurrent appends
        # from many processes would tear the file).
        outcome = campaign._run_test_profile(profile, checkpoint=None)
    except Exception:  # noqa: BLE001 - degrade, never kill the pool
        from repro.core.orchestrator import HARNESS_ERROR, ProfileOutcome
        # The full traceback crosses the wire: the parent process cannot
        # reconstruct a child stack after the fact, and the markdown
        # report's infra section renders it for triage.
        outcome = ProfileOutcome(error=traceback.format_exc(),
                                 error_kind=HARNESS_ERROR)
    return profile_outcome_to_dict(outcome)


# ---------------------------------------------------------------------------
# parent-side scheduler
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
                   outcome: Any, replay_tracker: bool = True) -> None:
    """Apply one finished profile's shared-state effects in the parent.

    Frequent-failure bookkeeping feeds both future blacklisting and the
    final report's blacklist section; it is replayed only for process
    workers (a thread worker shares the live tracker and already
    recorded its confirmations).  The ``test-done`` journal record is
    written immediately — the incremental-journaling invariant both
    backends rely on for crash-resume.
    """
    if replay_tracker:
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


def run_profiles_in_processes(campaign: Any, profiles: Sequence[Any],
                              checkpoint: Optional[Any],
                              tests_by_name: Mapping[str, UnitTest]
                              ) -> List[Any]:
    """Run ``profiles`` across ``campaign.config.workers`` bare processes.

    Returns outcomes aligned with ``profiles``; tracker replay and
    checkpoint journaling happen here, in the parent, as each profile
    completes.
    """
    if not fork_available():
        from repro.core.supervise import run_profiles_in_threads
        return run_profiles_in_threads(campaign, profiles, checkpoint)

    names = [p.test.full_name for p in profiles]
    _WORKER_STATE["campaign"] = campaign
    _WORKER_STATE["profiles"] = {p.test.full_name: p for p in profiles}
    outcomes_by_name: Dict[str, Any] = {}
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=campaign.config.workers,
                                 mp_context=context,
                                 initializer=_worker_init) as pool:
            futures = {pool.submit(_run_profile_worker, name): name
                       for name in names}
            for future in as_completed(futures):
                name = futures[future]
                # BrokenProcessPool propagates here: the bare backend
                # cannot survive a hard-dead child.  Profiles journaled
                # before the crash are already durable.
                record = future.result()
                outcome = profile_outcome_from_dict(record, tests_by_name)
                commit_outcome(campaign, checkpoint, name, outcome)
                outcomes_by_name[name] = outcome
    finally:
        _WORKER_STATE.clear()
    return [outcomes_by_name[name] for name in names]
