"""Supervised worker pool: how a campaign runs profiles in parallel.

At ``workers > 1`` (where ``fork`` is available) a campaign runs its
profiles here; otherwise it runs them serially (see
``Campaign._run_locally``).  A plain executor dies with the first
worker that segfaults, OOMs, or ``os._exit``s, and a CPU-bound hung
child blocks it forever, because the simulated-time watchdog cannot see
*real-time* hangs.  A campaign over thousands of flaky unit-test
executions (§5, §7.2) needs the harness itself to tolerate worker
failure, so this module owns its workers directly:

* each worker is a **forked child on an explicit duplex pipe**; the
  parent sends ``{"task", "delivery"}`` messages and consumes results
  **as they complete**, journaling every ``test-done`` checkpoint record
  immediately — a crash (parent or child) loses at most the in-flight
  profiles;
* a side thread in every child sends **heartbeats**; plain CPU-bound
  work keeps beating (the GIL preempts), so silence means the process is
  genuinely frozen (SIGSTOP, stuck syscall) and it is killed and its
  profile redelivered;
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

    spawn ──> IDLE ──deliver──> BUSY ──result──> IDLE
                │                 │
                │                 ├─ crash / rlimit kill ──> DEAD ─respawn─> IDLE
                │                 ├─ deadline expiry  (SIGKILL) ──> DEAD ...
                │                 └─ heartbeat silence (SIGKILL) ──> DEAD ...
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
matches a serial run's.

Cross-profile blacklist propagation follows completion order, which is
timing-dependent: run-to-run byte-identity at ``workers > 1`` requires
decoupled profiles (a ``blacklist_threshold`` no run reaches).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from multiprocessing import connection
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core import parallel
from repro.core.registry import UnitTest

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

#: cadence of the child-side heartbeat thread.
HEARTBEAT_INTERVAL_S = 0.5
#: seconds of heartbeat silence from a BUSY worker before the supervisor
#: declares it frozen and kills it.  Heartbeats come from a side thread,
#: so plain CPU-bound work keeps beating; only a genuinely stopped
#: process (SIGSTOP, stuck syscall) goes silent.
HEARTBEAT_TIMEOUT_S = 30.0
#: consecutive worker deaths (without a completed profile in between)
#: that trip the crash-loop circuit breaker.
CRASH_LOOP_THRESHOLD = 5
#: parent poll tick: deadline/heartbeat checks happen at this resolution.
_POLL_INTERVAL_S = 0.05
#: exit status used by the injected worker_crash chaos hook.
INJECTED_CRASH_EXIT = 70

#: worker states (the lifecycle diagram in the module docstring).
IDLE, BUSY, DEAD = "idle", "busy", "dead"


# ---------------------------------------------------------------------------
# entry point (Campaign._run_locally at workers > 1 with fork)
# ---------------------------------------------------------------------------
def run_profiles_parallel(campaign: Any, profiles: Sequence[Any],
                          checkpoint: Optional[Any],
                          tests_by_name: Mapping[str, UnitTest],
                          outcome_sink: Optional[Any] = None
                          ) -> Dict[str, Any]:
    """Fan ``profiles`` over ``campaign.config.workers`` supervised
    workers; outcomes come back keyed by test name."""
    supervisor = Supervisor(campaign, profiles, checkpoint, tests_by_name,
                            outcome_sink=outcome_sink)
    campaign.supervision = supervisor.stats
    return supervisor.run()


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------
def _child_main(conn: Any, inherited: List[Any], campaign: Any,
                profiles: Mapping[str, Any], rlimit_mem: Optional[int],
                heartbeat_every: float) -> None:
    """Forked worker: recv task names, run ``profiles`` (by test name)
    of ``campaign``, send result dicts.  Both arrive as fork-inherited
    arguments, never through module state: a daemon running two
    campaigns' pools at once must not hand one campaign's workers the
    other's."""
    # Close fork-inherited copies of other pipes (and our own parent
    # end): a sibling's EOF must become visible to the parent the moment
    # that sibling dies, not when we do too.
    for other in inherited:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed
            pass
    if rlimit_mem and resource is not None:
        cap = rlimit_mem * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def _beat() -> None:
        while not stop_beating.wait(heartbeat_every):
            try:
                with send_lock:
                    conn.send({"kind": "heartbeat"})
            except OSError:  # parent is gone; no reason to live
                os._exit(0)

    threading.Thread(target=_beat, name="heartbeat", daemon=True).start()

    plan = campaign.config.fault_plan
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if msg is None:  # orderly shutdown
            break
        name, delivery = msg["task"], msg["delivery"]
        if plan is not None and plan.worker_crash_decision(name, delivery):
            os._exit(INJECTED_CRASH_EXIT)
        try:
            outcome = campaign._run_profile_contained(profiles[name])
        except BaseException:  # noqa: BLE001 - the wire carries the stack
            from repro.core.orchestrator import HARNESS_ERROR, ProfileOutcome
            outcome = ProfileOutcome(error=traceback.format_exc(),
                                     error_kind=HARNESS_ERROR)
        record = dict(parallel.profile_outcome_to_dict(outcome),
                      observation=outcome.observation)
        try:
            with send_lock:
                conn.send({"kind": "result", "task": name,
                           "delivery": delivery, "outcome": record})
        except OSError:
            os._exit(0)
    stop_beating.set()
    conn.close()
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
    if code == INJECTED_CRASH_EXIT:
        return "exit status %d (injected worker_crash fault)" % code
    return "exit status %d" % code


class _Worker:
    """One supervised child process and its pipe."""

    def __init__(self, worker_id: int) -> None:
        self.id = worker_id
        self.state = DEAD
        self.conn: Any = None
        self.proc: Any = None
        #: test full name in flight (None when idle), leased to ``id``.
        self.task: Optional[str] = None
        self.last_seen = 0.0


class Supervisor:
    """Runs one campaign's pending profiles over supervised workers."""

    def __init__(self, campaign: Any, profiles: Sequence[Any],
                 checkpoint: Optional[Any],
                 tests_by_name: Mapping[str, UnitTest],
                 outcome_sink: Optional[Any] = None) -> None:
        from repro.core.report import SupervisionStats
        config = campaign.config
        self.campaign = campaign
        self.profiles_by_name = {p.test.full_name: p for p in profiles}
        self.stats = SupervisionStats(enabled=True)
        # ``outcome_sink(name, outcome)`` fires after each commit; the
        # distributed worker uses it to ship results upstream while the
        # pool keeps running.
        self.book = parallel.LeaseBook(
            campaign, profiles, checkpoint, tests_by_name, self.stats,
            announce=("quarantine", "supervisor"), sink=outcome_sink)
        self.rlimit_mem = config.worker_rlimit_mem_mb
        self.slots = max(min(config.workers, len(profiles)), 1)

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
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        inherited = [w.conn for w in self.workers if w.state != DEAD]
        inherited.append(parent_conn)
        proc = self.context.Process(
            target=_child_main,
            args=(child_conn, inherited, self.campaign,
                  self.profiles_by_name, self.rlimit_mem,
                  HEARTBEAT_INTERVAL_S),
            name="repro-worker-%d" % worker.id, daemon=True)
        proc.start()
        child_conn.close()  # the child's end lives only in the child now
        worker.conn, worker.proc = parent_conn, proc
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
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
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

    # -- scheduling ----------------------------------------------------
    def _dispatch(self) -> None:
        for worker in list(self.workers):
            if worker.state != IDLE:
                continue
            lease = self.book.grant(worker.id)
            if lease is None:
                break
            name, delivery = lease
            try:
                worker.conn.send({"task": name, "delivery": delivery})
            except OSError:
                self.book.release(name)
                self._worker_died(worker)
                continue
            worker.task = name
            worker.state = BUSY
            worker.last_seen = time.monotonic()

    def _poll(self) -> None:
        conns = {w.conn: w for w in self.workers if w.state != DEAD}
        if not conns:
            return
        ready = connection.wait(list(conns), timeout=_POLL_INTERVAL_S)
        for conn in ready:
            worker = conns[conn]
            try:
                while worker.state != DEAD and conn.poll():
                    self._handle(worker, conn.recv())
            except (EOFError, OSError):
                self._worker_died(worker)
        # Forked siblings hold copies of each other's pipe ends, so EOF
        # alone cannot be trusted to announce a death — ask the kernel.
        for worker in list(self.workers):
            if worker.state != DEAD and not worker.proc.is_alive():
                self._worker_died(worker)

    def _handle(self, worker: _Worker, msg: Mapping[str, Any]) -> None:
        worker.last_seen = time.monotonic()
        if msg.get("kind") != "result":
            return  # heartbeat
        self.book.commit_record(msg["task"], msg["outcome"])
        self.consecutive_crashes = 0
        worker.task = None
        worker.state = IDLE

    # -- failure handling ----------------------------------------------
    def _worker_died(self, worker: _Worker) -> None:
        if worker.state == DEAD:
            return
        # Last-gasp drain: a result already in the pipe completes the
        # task even though its worker is gone.
        try:
            while worker.task is not None and worker.conn.poll():
                self._handle(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass
        worker.proc.join(timeout=5.0)
        reason = _describe_exit(worker.proc.exitcode)
        self._retire(worker)
        self.stats.crashes += 1
        self.consecutive_crashes += 1
        obs = self.campaign.observation
        if obs is not None:
            # Instant span on the campaign timeline; only emitted on a
            # death, so healthy-run span trees stay backend-identical.
            obs.event("worker-death", kind="supervisor", exit=reason,
                      task=worker.task)
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
            silent = now - worker.last_seen > HEARTBEAT_TIMEOUT_S
            if not (over_deadline or silent):
                continue
            # The result may have landed just under the wire.
            try:
                while worker.state == BUSY and worker.conn.poll():
                    self._handle(worker, worker.conn.recv())
            except (EOFError, OSError):
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
                    "frozen" % HEARTBEAT_TIMEOUT_S, worker.id)
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
                worker.conn.send(None)
            except OSError:
                pass
        for worker in list(self.workers):
            if worker.state == DEAD:
                continue
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                self._kill(worker)
            else:
                self._retire(worker)
