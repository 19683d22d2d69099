"""Supervised worker pool: how campaigns run profiles in parallel.

Where ``fork`` is available, :func:`repro.core.orchestrator.run_campaigns`
runs pending profiles here at ``workers > 1``, and at ``workers 1``
when two or more campaigns (the full evaluation's applications) have
pending profiles and two or more CPUs are usable; otherwise they run in
process.  :func:`run_profiles_parallel` runs every campaign's profiles
on one pool, in catalog order, at most ``workers`` of one campaign at a
time.  A plain executor dies with the first
worker that segfaults, OOMs, or ``os._exit``s, and a CPU-bound hung
child blocks it forever, because the simulated-time watchdog cannot see
*real-time* hangs.  A campaign over thousands of flaky unit-test
executions (§5, §7.2) needs the harness itself to tolerate worker
failure, so this module owns its workers directly:

* each worker is a **forked lease client** on one end of a
  ``socket.socketpair()``: it runs :func:`repro.core.distrib.serve_leases`,
  the loop a ``repro worker`` runs against a coordinator — fetch one
  lease, run the profile from the blacklist confirmations it carries,
  ship the outcome, wait for the ack.  The parent holds each fetch until
  a lease is free and journals every
  ``test-done`` checkpoint record **as results arrive** — a crash
  (parent or child) loses at most the in-flight profiles;
* the client's side thread **heartbeats** every
  :data:`repro.core.distrib.HEARTBEAT_S`; plain CPU-bound work keeps
  beating (the GIL preempts), so silence past
  :data:`repro.core.distrib.HEARTBEAT_TIMEOUT_S` means the process is
  genuinely frozen (SIGSTOP, stuck syscall) and it is killed and its
  profile redelivered.  A beat that finds the parent gone ends the
  worker, so none outlives a killed campaign;
* the parent enforces a per-profile **wall-clock deadline**
  (``--profile-deadline``): on expiry the worker is SIGKILLed, reaped,
  and the profile quarantined — redelivering a deterministic infinite
  loop would only burn another deadline;
* a worker that **dies while running a profile** is reaped (exit signal
  captured) and respawned, and the profile is redelivered to a fresh
  worker at most :data:`repro.core.parallel.REDELIVERY` times before it
  is quarantined as a WORKER_CRASH infra outcome instead of aborting;
* ``worker_rlimit_mem_mb`` applies an RLIMIT_AS cap inside each child;
* :data:`CRASH_LOOP_THRESHOLD` consecutive worker deaths (no completed
  profile in between) trip a **circuit breaker**: something is wrong
  with the environment, not one profile, so the supervisor stops
  dispatching, kills the in-flight workers, and salvages a partial
  report rather than respawning forever.

Worker lifecycle::

    spawn ──> IDLE ──fetch, lease──> BUSY ──result, ack──> IDLE
                │                      │
                │                      ├─ crash / rlimit kill ──> DEAD ─respawn─> IDLE
                │                      ├─ deadline expiry  (SIGKILL) ──> DEAD ...
                │                      └─ heartbeat silence (SIGKILL) ──> DEAD ...
                └─ crash while idle ──> DEAD

The queue, the leases, first-commit-wins, redelivery and quarantine are
the :class:`~repro.core.parallel.LeaseBook` the distributed coordinator
runs on too; this module owns the processes.  Quarantined profiles are
journaled like any finished test: a resume does not retry poison —
delete the journal line to force a re-run.

The parent checks ``CampaignConfig.cancel_event`` on every tick: once
it is set, nothing more is dispatched, the workers are shut down (busy
ones SIGKILLed), and :class:`~repro.core.orchestrator.CampaignCancelled`
propagates — profiles committed before the cancel are already journaled.

An observed campaign's forked profiles record their spans — the
runner's ``retry``/``fault`` events included — into their own
:class:`~repro.core.observe.Observation` and ship it back on the
outcome; the campaign adopts them in catalog order, so the span trace
matches an in-process run's.

A lease carries the confirmations the profiles before it in catalog
order have committed, so at one profile per campaign at a time (the
full evaluation at ``workers 1``) every blacklist read is an in-process
run's.  With more of a campaign's profiles out at once, a profile does
not see the confirmations of those still running: run-to-run
byte-identity at ``workers > 1`` requires decoupled profiles (a
``blacklist_threshold`` no run reaches).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import time
from multiprocessing import connection
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.common import transport as net
from repro.core import distrib, parallel

#: consecutive worker deaths (without a completed profile in between)
#: that trip the crash-loop circuit breaker.
CRASH_LOOP_THRESHOLD = 5
#: parent poll tick: deadline/heartbeat checks happen at this resolution.
_POLL_INTERVAL_S = 0.05

#: worker states (the lifecycle diagram in the module docstring).
IDLE, BUSY, DEAD = "idle", "busy", "dead"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def run_profiles_parallel(jobs: Sequence[parallel.Job],
                          width: int) -> Dict[str, Any]:
    """Run every job's profiles on one pool of up to ``width`` workers,
    at most ``workers`` of one campaign at a time; outcomes come back
    keyed by test name.  Each campaign the pool serves reports its
    counters."""
    supervisor = Supervisor(jobs, width)
    for job in jobs:
        job.campaign.supervision = supervisor.stats
    return supervisor.run()


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------
def _child_main(sock: socket.socket, inherited: List[socket.socket],
                units: Mapping[str, Any], crash_plan: Optional[Any],
                rlimit_mem: Optional[int]) -> None:
    """Forked worker: the lease client over ``sock``, running the
    ``(campaign, profile)`` units (by test name).  They arrive as
    fork-inherited arguments, never through module state: a daemon
    running two campaigns' pools at once must not hand one campaign's
    workers the other's."""
    # Close fork-inherited copies of the parent's ends, our own and our
    # elder siblings': only the parent may hold them, so that its death
    # is every worker's EOF.  close(), never shutdown(): the parent still
    # uses those sockets.
    for other in inherited:
        other.close()
    try:
        distrib.limit_memory(rlimit_mem)
        distrib.serve_leases(
            distrib.OutcomeShipper(net.FrameTransport(sock), None),
            units, distrib.HEARTBEAT_S, crash_plan=crash_plan,
            exit_on_loss=True)
    finally:
        os._exit(0)


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
def _describe_exit(code: Optional[int]) -> str:
    if code is None:
        return "unknown exit status"
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:  # pragma: no cover - exotic signal number
            name = "signal %d" % -code
        return "killed by %s" % name
    if code == distrib.INJECTED_CRASH_EXIT:
        return "exit status %d (injected worker_crash fault)" % code
    return "exit status %d" % code


class _Worker:
    """One supervised child process and its link."""

    def __init__(self, worker_id: int) -> None:
        self.id = worker_id
        self.state = DEAD
        self.link: Any = None
        self.proc: Any = None
        #: test full name in flight (None when idle), leased to ``id``.
        self.task: Optional[str] = None
        #: an IDLE worker's fetch waits here for a free lease.
        self.fetching = False
        self.last_seen = 0.0


class Supervisor:
    """Runs campaigns' pending profiles over supervised workers."""

    def __init__(self, jobs: Sequence[parallel.Job], width: int) -> None:
        from repro.core.report import SupervisionStats
        #: the campaign whose config the pool runs under (the full
        #: evaluation's campaigns share one config).
        self.campaign = jobs[0].campaign
        config = self.campaign.config
        self.campaigns = [job.campaign for job in jobs]
        self.stats = SupervisionStats(enabled=True)
        self.book = parallel.LeaseBook(
            jobs, self.stats, announce=("quarantine", "supervisor"),
            limit=config.workers)
        self.units = {name: (job.campaign, profile)
                      for name, (job, profile) in self.book.units.items()}
        self.crash_plan = config.fault_plan
        self.rlimit_mem = config.worker_rlimit_mem_mb
        # no more workers than profiles the limit lets out at once
        self.slots = max(min(width, sum(min(config.workers, len(job.profiles))
                                        for job in jobs)), 1)

        self.context = multiprocessing.get_context("fork")
        self.workers: List[_Worker] = []
        self.consecutive_crashes = 0
        self._next_worker_id = 0

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        try:
            for _ in range(self.slots):
                self.workers.append(self._spawn())
            while True:
                # Only the parent's copy of the cancel event is ever set.
                self.campaign._check_cancelled()
                self._dispatch()
                if self.book.done():
                    break
                self._poll()
                self._enforce_timeouts()
        finally:
            self._shutdown()
        return self.book.outcomes

    # -- worker lifecycle ----------------------------------------------
    def _spawn(self) -> _Worker:
        worker = _Worker(self._next_worker_id)
        self._next_worker_id += 1
        parent_end, child_end = socket.socketpair()
        inherited = [w.link.sock for w in self.workers if w.state != DEAD]
        inherited.append(parent_end)
        proc = self.context.Process(
            target=_child_main,
            args=(child_end, inherited, self.units, self.crash_plan,
                  self.rlimit_mem),
            name="repro-worker-%d" % worker.id, daemon=True)
        proc.start()
        child_end.close()  # the child's end lives only in the child now
        worker.link, worker.proc = net.FrameTransport(parent_end), proc
        worker.state = IDLE
        worker.last_seen = time.monotonic()
        self.stats.workers_spawned += 1
        return worker

    def _respawn(self) -> None:
        if self.book.done():  # the breaker, too, leaves nothing open
            return
        self.stats.respawns += 1
        self.workers.append(self._spawn())

    def _retire(self, worker: _Worker) -> None:
        worker.state = DEAD
        worker.link.close()
        if worker in self.workers:
            self.workers.remove(worker)

    def _kill(self, worker: _Worker) -> None:
        """SIGKILL + reap: the only safe way off a wedged child."""
        try:
            os.kill(worker.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):  # pragma: no cover - raced
            pass
        worker.proc.join(timeout=5.0)
        self._retire(worker)

    # -- the lease protocol --------------------------------------------
    def _dispatch(self) -> None:
        """Answer held fetches with leases, in worker order."""
        for worker in list(self.workers):
            if worker.state != IDLE or not worker.fetching:
                continue
            task = self.book.grant(worker.id)
            if task is None:
                break
            name = task["task"]
            try:
                worker.link.send({"kind": "lease", "tasks": [task]})
            except net.TransportError:
                self.book.release(name)
                self._worker_died(worker)
                continue
            worker.task = name
            worker.fetching = False
            worker.state = BUSY
            worker.last_seen = time.monotonic()

    def _poll(self) -> None:
        links = {w.link.sock: w for w in self.workers if w.state != DEAD}
        if not links:
            return
        for sock in connection.wait(list(links), timeout=_POLL_INTERVAL_S):
            worker = links[sock]
            if not self._read(worker):
                self._worker_died(worker)
        # A worker can die without a word on its link (a crash between
        # frames) — ask the kernel.
        for worker in list(self.workers):
            if worker.state != DEAD and not worker.proc.is_alive():
                self._worker_died(worker)

    def _read(self, worker: _Worker) -> bool:
        """Handle every frame waiting on ``worker``'s link; False once the
        link is lost."""
        try:
            while worker.state != DEAD \
                    and connection.wait([worker.link.sock], 0):
                self._handle(worker,
                             worker.link.recv(timeout=_POLL_INTERVAL_S))
        except net.TransportTimeout:
            pass  # a frame still arriving: its rest is read next tick
        except net.TransportError:
            return False
        return True

    def _handle(self, worker: _Worker, msg: Mapping[str, Any]) -> None:
        worker.last_seen = time.monotonic()
        kind = msg.get("kind")
        if kind == "fetch":
            worker.fetching = True
        elif kind == "result":
            name = str(msg["task"])
            self.book.commit_record(name, msg["outcome"])
            self.consecutive_crashes = 0
            worker.task = None
            worker.state = IDLE
            worker.link.send({"kind": "ack", "task": name})

    # -- failure handling ----------------------------------------------
    def _worker_died(self, worker: _Worker) -> None:
        if worker.state == DEAD:
            return
        # Last-gasp drain: a result already on the link completes the
        # task even though its worker is gone.
        self._read(worker)
        worker.proc.join(timeout=5.0)
        reason = _describe_exit(worker.proc.exitcode)
        self._retire(worker)
        self.stats.crashes += 1
        self.consecutive_crashes += 1
        # Instant span on the timeline of the campaign whose profile died
        # (of every campaign the pool serves, for an idle worker); only
        # emitted on a death, so healthy-run span trees stay
        # backend-identical.
        for campaign in ([self.units[worker.task][0]] if worker.task
                         else self.campaigns):
            if campaign.observation is not None:
                campaign.observation.event("worker-death", kind="supervisor",
                                           exit=reason, task=worker.task)
        if worker.task is not None:
            name, worker.task = worker.task, None
            self.book.revoke(
                name, "worker process died while running the profile (%s)"
                % reason, worker.id)
        if self.consecutive_crashes >= CRASH_LOOP_THRESHOLD:
            self._trip_breaker(reason)
        else:
            self._respawn()

    def _enforce_timeouts(self) -> None:
        now = time.monotonic()
        overdue = self.book.overdue(now)
        for worker in list(self.workers):
            if worker.state != BUSY:
                continue
            over_deadline = worker.task in overdue
            silent = now - worker.last_seen > distrib.HEARTBEAT_TIMEOUT_S
            if not (over_deadline or silent):
                continue
            # The result may have landed just under the wire.
            if not self._read(worker):
                self._worker_died(worker)
                continue
            if worker.state != BUSY:
                continue
            name, worker.task = worker.task, None
            self._kill(worker)
            if over_deadline:
                # A deterministic runaway loop would just burn another
                # full deadline on redelivery: quarantine immediately.
                self.stats.deadline_kills += 1
                self.book.quarantine(
                    name,
                    "profile exceeded the %.1fs wall-clock deadline "
                    "(--profile-deadline); worker SIGKILLed and reaped"
                    % self.book.deadline)
                self._respawn()
            else:
                # Heartbeat silence means *frozen*, which is plausibly
                # environmental — redeliver within the usual bound.
                self.stats.heartbeat_kills += 1
                self.consecutive_crashes += 1
                self.book.revoke(
                    name, "worker sent no heartbeat for %.1fs; killed as "
                    "frozen" % distrib.HEARTBEAT_TIMEOUT_S, worker.id)
                if self.consecutive_crashes >= CRASH_LOOP_THRESHOLD:
                    self._trip_breaker("repeated heartbeat silence")
                else:
                    self._respawn()

    def _trip_breaker(self, reason: str) -> None:
        if self.stats.circuit_breaker_tripped:
            return
        self.stats.circuit_breaker_tripped = True
        halt = ("campaign halted by the supervisor's crash-loop circuit "
                "breaker (%d consecutive worker deaths; last: %s)"
                % (self.consecutive_crashes, reason))
        for worker in list(self.workers):
            if worker.state != BUSY:
                continue
            name, worker.task = worker.task, None
            self._kill(worker)
            self.book.quarantine(name, halt)
        for name in self.book.drain():
            self.book.quarantine(name, halt)

    # -- teardown ------------------------------------------------------
    def _shutdown(self) -> None:
        for worker in list(self.workers):
            if worker.state == DEAD:
                continue
            try:
                worker.link.send({"kind": "done"})
            except net.TransportError:
                pass
        for worker in list(self.workers):
            if worker.state == DEAD:
                continue
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                self._kill(worker)
            else:
                self._retire(worker)
