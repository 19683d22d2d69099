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
  worker at most ``worker_redelivery`` times before it is quarantined as
  a :data:`~repro.core.runner.WORKER_CRASH` infra outcome instead of
  aborting the run;
* ``worker_rlimit_cpu_s`` / ``worker_rlimit_mem_mb`` apply
  ``resource.setrlimit`` caps inside each child.  RLIMIT_CPU accrues per
  *process*, so with a CPU cap set, workers are **recycled** after every
  completed profile — each profile gets a fresh budget;
* ``crash_loop_threshold`` consecutive worker deaths (no completed
  profile in between) trip a **circuit breaker**: something is wrong
  with the environment, not one profile, so the supervisor stops
  dispatching, kills the in-flight workers, and salvages a partial
  report rather than respawning forever.

Worker lifecycle::

    spawn ──> IDLE ──deliver──> BUSY ──result──> IDLE (or recycled)
                │                 │
                │                 ├─ crash / rlimit kill ──> DEAD ─respawn─> IDLE
                │                 ├─ deadline expiry  (SIGKILL) ──> DEAD ...
                │                 └─ heartbeat silence (SIGKILL) ──> DEAD ...
                └─ crash while idle ──> DEAD

Quarantined profiles are journaled like any finished test: a resume
does not retry poison — delete the journal line to force a re-run.

The parent checks ``CampaignConfig.cancel_event`` on every tick: once
it is set, nothing more is dispatched, the workers are shut down (busy
ones SIGKILLed), and :class:`~repro.core.orchestrator.CampaignCancelled`
propagates — profiles committed before the cancel are already journaled.

Each forked profile records ``--trace`` events into a fresh
:class:`~repro.core.tracelog.TraceLog` and ships them back with its
outcome; the campaign appends them in catalog order when it folds the
outcomes, so the runner's ``retry``/``fault`` events match a serial run.

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
from collections import deque
from multiprocessing import connection
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core import parallel
from repro.core.registry import UnitTest
from repro.core.runner import WORKER_CRASH
from repro.core.tracelog import TraceLog

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

#: cadence of the child-side heartbeat thread.
HEARTBEAT_INTERVAL_S = 0.5
#: parent poll tick: deadline/heartbeat checks happen at this resolution.
_POLL_INTERVAL_S = 0.05
#: exit status used by the injected worker_crash chaos hook.
INJECTED_CRASH_EXIT = 70

#: worker states (the lifecycle diagram in the module docstring).
IDLE, BUSY, DEAD = "idle", "busy", "dead"

#: Set for the supervisor's lifetime, inherited by forked children:
#: ``{"campaign": Campaign, "profiles": {test name: TestProfile}}``.
_CHILD_STATE: Dict[str, Any] = {}


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
def _apply_rlimits(cpu_s: Optional[int], mem_mb: Optional[int]) -> None:
    if resource is None:  # pragma: no cover - non-POSIX
        return
    if cpu_s:
        # SIGXCPU at the soft limit (default action: terminate); the
        # kernel escalates to SIGKILL at the hard limit if ignored.
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 1))
    if mem_mb:
        cap = mem_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _child_main(conn: Any, inherited: List[Any], rlimit_cpu: Optional[int],
                rlimit_mem: Optional[int], heartbeat_every: float) -> None:
    """Forked worker: recv task names, run profiles, send result dicts."""
    # Close fork-inherited copies of other pipes (and our own parent
    # end): a sibling's EOF must become visible to the parent the moment
    # that sibling dies, not when we do too.
    for other in inherited:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed
            pass
    campaign = _CHILD_STATE["campaign"]
    profiles = _CHILD_STATE["profiles"]
    tracing = campaign.config.trace is not None
    _apply_rlimits(rlimit_cpu, rlimit_mem)

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
        if msg is None:  # orderly shutdown / recycle sentinel
            break
        name, delivery = msg["task"], msg["delivery"]
        if plan is not None and plan.worker_crash_decision(name, delivery):
            os._exit(INJECTED_CRASH_EXIT)
        if tracing:
            # One log per profile; the parent folds it in catalog order.
            campaign.config.trace = TraceLog()
        try:
            outcome = campaign._run_profile_contained(profiles[name], None)
        except BaseException:  # noqa: BLE001 - the wire carries the stack
            from repro.core.orchestrator import HARNESS_ERROR, ProfileOutcome
            outcome = ProfileOutcome(error=traceback.format_exc(),
                                     error_kind=HARNESS_ERROR)
        if tracing:
            outcome.trace_events = [[event.kind, event.sim_at, event.data]
                                    for event in campaign.config.trace]
        record = parallel.profile_outcome_to_dict(outcome)
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
        #: test full name in flight (None when idle) + its delivery number.
        self.task: Optional[str] = None
        self.delivery = 0
        self.started_at = 0.0
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
        self.profiles = list(profiles)
        self.checkpoint = checkpoint
        self.tests_by_name = tests_by_name
        # Optional callback fired with (name, outcome) after each commit;
        # the distributed worker uses it to ship results upstream while
        # the pool keeps running.
        self.outcome_sink = outcome_sink
        self.stats = SupervisionStats(enabled=True)
        self.deadline = config.profile_deadline_s
        self.heartbeat_timeout = max(config.heartbeat_timeout_s,
                                     2 * HEARTBEAT_INTERVAL_S)
        self.redelivery = max(config.worker_redelivery, 0)
        self.breaker_threshold = max(config.crash_loop_threshold, 1)
        self.rlimit_cpu = config.worker_rlimit_cpu_s
        self.rlimit_mem = config.worker_rlimit_mem_mb
        #: RLIMIT_CPU accrues per process: recycle workers between
        #: profiles so every profile starts with the full budget.
        self.recycle_after_profile = self.rlimit_cpu is not None
        self.slots = max(min(config.workers, len(self.profiles)), 1)

        self.context = multiprocessing.get_context("fork")
        self.workers: List[_Worker] = []
        self.queue: deque = deque()  # (test full name, delivery number)
        self.outcomes: Dict[str, Any] = {}
        self.deliveries: Dict[str, int] = {}
        self.consecutive_crashes = 0
        self.halted = False
        self._next_worker_id = 0

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        _CHILD_STATE["campaign"] = self.campaign
        _CHILD_STATE["profiles"] = {p.test.full_name: p
                                    for p in self.profiles}
        self.queue.extend((p.test.full_name, 1) for p in self.profiles)
        try:
            for _ in range(self.slots):
                self.workers.append(self._spawn())
            while True:
                # Only the parent's copy of the cancel event is ever set.
                self.campaign._check_cancelled()
                self._dispatch()
                if not self._busy() and (not self.queue or self.halted):
                    break
                self._poll()
                self._enforce_timeouts()
        finally:
            self._shutdown()
            _CHILD_STATE.clear()
        return self.outcomes

    # -- worker lifecycle ----------------------------------------------
    def _spawn(self) -> _Worker:
        worker = _Worker(self._next_worker_id)
        self._next_worker_id += 1
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        inherited = [w.conn for w in self.workers if w.state != DEAD]
        inherited.append(parent_conn)
        proc = self.context.Process(
            target=_child_main,
            args=(child_conn, inherited, self.rlimit_cpu, self.rlimit_mem,
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
        if self.halted or not (self.queue or self._busy()):
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

    def _recycle(self, worker: _Worker) -> None:
        """Retire a healthy worker (fresh rlimit budget) and replace it."""
        self.stats.recycles += 1
        try:
            worker.conn.send(None)
        except OSError:
            pass
        worker.proc.join(timeout=1.0)
        if worker.proc.is_alive():  # pragma: no cover - stuck in shutdown
            self._kill(worker)
        else:
            self._retire(worker)
        if self.queue:
            self.workers.append(self._spawn())

    # -- scheduling ----------------------------------------------------
    def _busy(self) -> bool:
        return any(w.state == BUSY for w in self.workers)

    def _dispatch(self) -> None:
        if self.halted:
            return
        for worker in list(self.workers):
            if not self.queue:
                break
            if worker.state != IDLE:
                continue
            name, delivery = self.queue.popleft()
            try:
                worker.conn.send({"task": name, "delivery": delivery})
            except OSError:
                self.queue.appendleft((name, delivery))
                self._worker_died(worker)
                continue
            worker.task, worker.delivery = name, delivery
            worker.state = BUSY
            worker.started_at = worker.last_seen = time.monotonic()

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
        name = msg["task"]
        outcome = parallel.profile_outcome_from_dict(msg["outcome"],
                                                     self.tests_by_name)
        parallel.commit_outcome(self.campaign, self.checkpoint, name, outcome)
        self.outcomes[name] = outcome
        if self.outcome_sink is not None:
            self.outcome_sink(name, outcome)
        self.consecutive_crashes = 0
        worker.task = None
        worker.state = IDLE
        if self.recycle_after_profile:
            self._recycle(worker)

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
            name, delivery = worker.task, worker.delivery
            worker.task = None
            self._requeue_or_quarantine(
                name, delivery,
                "worker process died while running the profile (%s)" % reason)
        if self.consecutive_crashes >= self.breaker_threshold:
            self._trip_breaker(reason)
        else:
            self._respawn()

    def _enforce_timeouts(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.state != BUSY:
                continue
            over_deadline = (self.deadline is not None
                             and now - worker.started_at > self.deadline)
            silent = now - worker.last_seen > self.heartbeat_timeout
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
            name, delivery = worker.task, worker.delivery
            worker.task = None
            self._kill(worker)
            if over_deadline:
                # A deterministic runaway loop would just burn another
                # full deadline on redelivery: quarantine immediately.
                self.stats.deadline_kills += 1
                self._quarantine(
                    name,
                    "profile exceeded the %.1fs wall-clock deadline "
                    "(--profile-deadline); worker SIGKILLed and reaped"
                    % self.deadline)
                self._respawn()
            else:
                # Heartbeat silence means *frozen*, which is plausibly
                # environmental — redeliver within the usual bound.
                self.stats.heartbeat_kills += 1
                self.consecutive_crashes += 1
                self._requeue_or_quarantine(
                    name, delivery,
                    "worker sent no heartbeat for %.1fs; killed as frozen"
                    % self.heartbeat_timeout)
                if self.consecutive_crashes >= self.breaker_threshold:
                    self._trip_breaker("repeated heartbeat silence")
                else:
                    self._respawn()

    def _requeue_or_quarantine(self, name: str, delivery: int,
                               reason: str) -> None:
        if delivery <= self.redelivery:
            self.stats.redeliveries += 1
            self.queue.append((name, delivery + 1))
        else:
            self._quarantine(
                name, "%s; profile quarantined after %d deliveries"
                % (reason, delivery))

    def _quarantine(self, name: str, reason: str) -> None:
        """Record a WORKER_CRASH infra outcome instead of aborting.

        Journaled like any finished test: a resume does not retry
        poison — delete the journal record to force a re-run.
        """
        from repro.core.orchestrator import ProfileOutcome
        outcome = ProfileOutcome(error=reason, error_kind=WORKER_CRASH)
        parallel.commit_outcome(self.campaign, self.checkpoint, name, outcome)
        self.outcomes[name] = outcome
        if self.outcome_sink is not None:
            self.outcome_sink(name, outcome)
        self.stats.quarantined += 1
        obs = self.campaign.observation
        if obs is not None:
            obs.event("quarantine", kind="supervisor", test=name,
                      reason=reason)
        trace = self.campaign.config.trace
        if trace is not None:
            trace.emit("worker-quarantine", app=self.campaign.app,
                       test=name, error=reason)

    def _trip_breaker(self, reason: str) -> None:
        if self.halted:
            return
        self.halted = True
        self.stats.circuit_breaker_tripped = True
        halt = ("campaign halted by the supervisor's crash-loop circuit "
                "breaker (%d consecutive worker deaths; last: %s)"
                % (self.consecutive_crashes, reason))
        for worker in list(self.workers):
            if worker.state != BUSY:
                continue
            name = worker.task
            worker.task = None
            self._kill(worker)
            self._quarantine(name, halt)
        while self.queue:
            name, _ = self.queue.popleft()
            self._quarantine(name, halt)

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
