"""Distributed campaign execution: coordinator + remote-worker protocol.

The paper ran its campaigns across ~100 CloudLab machines; this module
grows the harness past one host.  A **coordinator** (the campaign
parent) serves unit-test profiles over the length-prefixed JSON TCP
protocol in :mod:`repro.common.transport`, and any number of **workers**
(``repro worker --connect HOST:PORT``) pull leases, run the profiles
with the existing supervised pool, and stream outcomes back in the
checkpoint wire format (:func:`repro.core.parallel.profile_outcome_to_dict`).

Robustness is the design driver — a worker that disconnects, hangs,
crashes, or answers late must never corrupt findings:

* **Liveness.**  Workers heartbeat on a side thread; a worker silent
  past ``dist_heartbeat_timeout_s`` is declared lost and its leases are
  redelivered.  An optional per-lease deadline (``dist_lease_deadline_s``)
  bounds a lease even while its holder keeps beating.
* **At-least-once + idempotent.**  A worker treats a result as delivered
  only when the coordinator acks it; unacked results are resent after
  reconnect.  The coordinator commits each profile exactly once — a
  duplicate (resend, or a stolen copy finishing second) is acked and
  dropped, never double-counted.
* **Bounded reconnect.**  Workers reconnect with exponential backoff and
  jitter, at most ``--reconnect-attempts`` consecutive failures.
* **Redelivery with quarantine.**  A lease lost to a dead worker is
  re-queued at most ``worker_redelivery`` times (the supervised pool's
  own bound) before the profile is quarantined as a
  :data:`~repro.core.runner.WORKER_CRASH` outcome — poison cannot starve
  the fleet.
* **Work stealing.**  When the queue drains, an idle worker is granted a
  *copy* of the oldest outstanding lease (at most ``dist_max_copies``
  holders): a straggler or silently-dead holder cannot stall campaign
  completion; the first copy to finish wins, the rest are suppressed.
* **Graceful degradation.**  If no worker joins within
  ``dist_join_grace_s``, or the whole fleet is lost and nobody rejoins
  within ``dist_fleet_grace_s``, the coordinator closes shop and the
  campaign finishes the remaining profiles on the local pool — a lost
  fleet degrades, it never aborts.

Findings stay byte-identical to serial runs because the coordinator
commits outcomes through the same :func:`repro.core.parallel.commit_outcome`
path every backend uses, and the campaign folds them back in catalog
order (:meth:`Campaign._run_inner`).  The lease queue is LPT-ordered
(:mod:`repro.core.costmodel`), which — like every dispatch-order choice
— affects wall-clock makespan only.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import random
import socket
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.common import transport as net
from repro.common.faults import fault_seed
from repro.core import parallel
from repro.core.prerun import prerun_corpus
from repro.core.registry import UnitTest
from repro.core.runner import WORKER_CRASH

#: read deadline for a control reply (welcome, lease, ack) before the
#: worker declares the connection wedged and reconnects.
CONTROL_TIMEOUT_S = 30.0
#: delay a worker is told to idle before re-fetching when the queue is
#: momentarily empty but the campaign is not finished.
WAIT_DELAY_S = 0.2
#: how long a finished coordinator keeps answering ``fetch`` with
#: ``done`` so workers exit cleanly instead of hitting a closed port.
LINGER_S = 1.5

#: worker exit codes.
EXIT_OK = 0
EXIT_RECONNECTS_EXHAUSTED = 1
EXIT_REJECTED = 2


def _auth_mac(secret: str, role: str, nonce: str) -> str:
    """HMAC-SHA256 proof of secret knowledge over the *other* side's
    nonce.  The role string domain-separates the two directions so a
    coordinator's proof can never be replayed back as a worker's."""
    return hmac.new(secret.encode("utf-8"),
                    ("%s:%s" % (role, nonce)).encode("utf-8"),
                    hashlib.sha256).hexdigest()


def corpus_digest(campaign: Any) -> int:
    """Fingerprint of (app, corpus, registry): a worker whose checkout
    disagrees with the coordinator's must be refused, not trusted to
    produce mergeable outcomes."""
    return fault_seed(campaign.app,
                      *sorted(t.full_name for t in campaign.tests),
                      *sorted(campaign.registry.names()))


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------
class _RemoteWorker:
    """One live worker connection, as the coordinator sees it."""

    _sequence = 0

    def __init__(self, name: str, slots: int) -> None:
        _RemoteWorker._sequence += 1
        #: unique per connection; a reconnect gets a fresh key, so a
        #: stale connection's lease cleanup can never hit the new one.
        self.key = _RemoteWorker._sequence
        self.name = name
        self.slots = max(slots, 1)
        self.alive = True
        self.last_seen = time.monotonic()
        #: test full names currently leased to this connection.
        self.tasks: Set[str] = set()


class _Conn:
    """Per-connection handler state (transport + registered worker)."""

    def __init__(self, transport_: Optional[net.FrameTransport]) -> None:
        self.transport = transport_
        self.worker: Optional[_RemoteWorker] = None
        #: server nonce issued with this connection's auth challenge.
        self.auth_nonce: str = ""
        #: the hello stashed while its sender proves secret knowledge.
        self.pending_hello: Optional[Dict[str, Any]] = None


class Coordinator:
    """Serves one campaign's pending profiles to remote workers.

    All shared state (queue, leases, outcomes, fleet bookkeeping) is
    guarded by one lock; message handling is funnelled through
    :meth:`_handle_message`, which takes and returns plain dicts so the
    protocol is unit-testable without sockets.
    """

    def __init__(self, campaign: Any, profiles: Sequence[Any],
                 checkpoint: Optional[Any],
                 tests_by_name: Mapping[str, UnitTest],
                 host: str = "127.0.0.1", port: int = 0) -> None:
        config = campaign.config
        self.campaign = campaign
        self.profiles = list(profiles)
        self.checkpoint = checkpoint
        self.tests_by_name = tests_by_name
        self.host, self.port = host, port
        self.stats = campaign.distribution
        self.digest = corpus_digest(campaign)
        self.heartbeat_s = config.dist_heartbeat_s
        self.heartbeat_timeout = max(config.dist_heartbeat_timeout_s,
                                     2 * config.dist_heartbeat_s)
        self.lease_deadline = config.dist_lease_deadline_s
        self.max_copies = max(config.dist_max_copies, 1)
        self.join_grace = config.dist_join_grace_s
        self.fleet_grace = config.dist_fleet_grace_s
        self.redelivery = max(config.worker_redelivery, 0)
        self.net_plan = config.net_fault_plan
        #: shared secret for the HMAC challenge-response handshake
        #: (None/"" = open coordinator, legacy hello/welcome).
        self.secret = config.dist_secret

        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        #: (test full name, delivery number), grant order = LPT order.
        self.queue: List[Tuple[str, int]] = [
            (p.test.full_name, 1) for p in self.profiles]
        #: test name -> {"delivery", "holders": {worker keys}, "granted_at"}.
        self.leases: Dict[str, Dict[str, Any]] = {}
        self.outcomes: Dict[str, Any] = {}
        self.workers: List[_RemoteWorker] = []
        from repro.core.report import FleetWorker
        self._fleet: Dict[str, FleetWorker] = {}
        self.halted = False  # degradation tripped: stop granting
        self.closed = False  # serve() is tearing down
        self._fleet_lost_at: Optional[float] = None
        self.address: Tuple[str, int] = (host, port)
        self._listener: Optional[socket.socket] = None
        self._transports: List[net.FrameTransport] = []
        self._conn_seq = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve(self) -> Tuple[Dict[str, Any], List[Any]]:
        """Serve until every profile has an outcome or degradation trips.

        Returns ``(outcomes by test name, remaining profiles)`` —
        ``remaining`` is non-empty exactly when the campaign must finish
        the rest on the local pool.
        """
        self._listen()
        accept_thread = threading.Thread(target=self._accept_loop,
                                         name="dist-accept", daemon=True)
        accept_thread.start()
        started = time.monotonic()
        try:
            with self.cond:
                while True:
                    if len(self.outcomes) == len(self.profiles):
                        break
                    self._police_locked(time.monotonic(), started)
                    if self.halted:
                        break
                    self.cond.wait(timeout=0.05)
            if not self.halted:
                self._linger()
        finally:
            self._teardown()
        remaining = [p for p in self.profiles
                     if p.test.full_name not in self.outcomes]
        self.stats.fleet = [self._fleet[name] for name in sorted(self._fleet)]
        return dict(self.outcomes), remaining

    def _listen(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self.stats.listen = "%s:%d" % self.address

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # listener closed: teardown
                return
            with self.lock:
                if self.closed:
                    sock.close()
                    return
                self._conn_seq += 1
                conn_id = "srv-%d" % self._conn_seq
            transport_ = net.FrameTransport(sock, conn_id=conn_id,
                                            plan=self.net_plan,
                                            on_fault=self._count_net_fault)
            with self.lock:
                self._transports.append(transport_)
            threading.Thread(target=self._serve_connection,
                             args=(transport_,),
                             name="dist-%s" % conn_id, daemon=True).start()

    def _serve_connection(self, transport_: net.FrameTransport) -> None:
        conn = _Conn(transport_)
        try:
            while True:
                # A healthy worker heartbeats well inside this window,
                # so a silent read here means the link itself is gone.
                message = transport_.recv(timeout=self.heartbeat_timeout * 2)
                if message.get("kind") == "bye":
                    self._departed(conn, "worker said goodbye",
                                   graceful=True)
                    return
                with self.lock:
                    reply = self._handle_message(conn, message)
                if reply is not None:
                    transport_.send(reply)
        except net.TransportError as exc:
            self._departed(conn, "connection lost: %s" % exc)
        finally:
            transport_.close()

    def _departed(self, conn: _Conn, reason: str,
                  graceful: bool = False) -> None:
        with self.cond:
            if conn.worker is not None and not self.closed:
                self._worker_lost_locked(conn.worker, reason,
                                         graceful=graceful)

    def _linger(self) -> None:
        """Keep answering ``fetch`` with ``done`` briefly so workers
        learn the campaign finished and exit 0 instead of dying on a
        closed port."""
        deadline = time.monotonic() + LINGER_S
        while time.monotonic() < deadline:
            with self.lock:
                if not any(w.alive for w in self.workers):
                    return
            time.sleep(0.02)

    def _teardown(self) -> None:
        with self.lock:
            self.closed = True
            transports = list(self._transports)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for transport_ in transports:
            transport_.close()

    def _count_net_fault(self, kind: str) -> None:
        with self.lock:
            self.stats.net_faults[kind] = \
                self.stats.net_faults.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # protocol (all under self.lock; sockets never touched here)
    # ------------------------------------------------------------------
    def _handle_message(self, conn: _Conn, message: Mapping[str, Any]
                        ) -> Optional[Dict[str, Any]]:
        kind = message.get("kind")
        if kind == "hello":
            if self.secret:
                # Challenge-response folded into the hello/welcome
                # exchange: stash the hello, prove *our* knowledge of the
                # secret over the worker's nonce (mutual auth), and make
                # the worker prove its own over ours before the welcome.
                conn.auth_nonce = os.urandom(16).hex()
                conn.pending_hello = dict(message)
                return {"kind": "challenge", "nonce": conn.auth_nonce,
                        "mac": _auth_mac(self.secret, "coordinator",
                                         str(message.get("nonce") or ""))}
            return self._hello_locked(conn, message)
        if kind == "auth":
            if not self.secret or conn.pending_hello is None:
                return {"kind": "reject", "reason": "unexpected auth"}
            hello, conn.pending_hello = conn.pending_hello, None
            expected = _auth_mac(self.secret, "worker", conn.auth_nonce)
            if not hmac.compare_digest(expected,
                                       str(message.get("mac") or "")):
                self.stats.auth_rejects += 1
                return {"kind": "reject",
                        "reason": "authentication failed (shared secret "
                                  "mismatch)"}
            return self._hello_locked(conn, hello)
        if conn.worker is not None:
            conn.worker.last_seen = time.monotonic()
        if kind == "heartbeat":
            return None
        if conn.worker is None:
            return {"kind": "reject", "reason": "hello first"}
        if kind == "fetch":
            return self._fetch_locked(conn.worker,
                                      int(message.get("max", 1)))
        if kind == "result":
            return self._result_locked(conn.worker, message)
        return {"kind": "reject", "reason": "unknown message %r" % kind}

    def _hello_locked(self, conn: _Conn,
                      message: Mapping[str, Any]) -> Dict[str, Any]:
        # A first-time worker has no campaign yet and sends digest=None;
        # the welcome carries our digest and the worker refuses locally
        # on mismatch.  A reconnecting worker knows its digest, so a
        # skewed checkout is rejected here before it can hold a lease.
        digest = message.get("digest")
        if digest is not None and int(digest) != self.digest:
            return {"kind": "reject",
                    "reason": "corpus digest mismatch: worker %r vs "
                              "coordinator %r — same checkout required"
                              % (digest, self.digest)}
        if self.closed or self.halted:
            return {"kind": "reject", "reason": "coordinator is shutting down"}
        worker = _RemoteWorker(str(message.get("worker") or "worker"),
                               int(message.get("slots", 1)))
        conn.worker = worker
        self.workers.append(worker)
        self.stats.workers_joined += 1
        self._fleet_lost_at = None
        from repro.core.report import FleetWorker
        fleet = self._fleet.setdefault(worker.name,
                                       FleetWorker(worker=worker.name))
        fleet.connects += 1
        campaign = self.campaign
        self.cond.notify_all()
        return {
            "kind": "welcome",
            "app": campaign.app,
            "digest": self.digest,
            "settings": campaign.config.checkpoint_settings(),
            "run_cost_s": campaign.config.run_cost_s,
            "observe": campaign._observing(),
            "heartbeat_s": self.heartbeat_s,
            "heartbeat_timeout_s": self.heartbeat_timeout,
        }

    def _fetch_locked(self, worker: _RemoteWorker,
                      max_tasks: int) -> Dict[str, Any]:
        if not worker.alive:
            return {"kind": "reject", "reason": "connection declared lost"}
        if self.halted or self.closed:
            return {"kind": "done"}
        tasks = []
        while len(tasks) < max(max_tasks, 1):
            lease = self._next_lease_locked(worker)
            if lease is None:
                break
            tasks.append(lease)
        if tasks:
            return {"kind": "lease", "tasks": tasks}
        if len(self.outcomes) == len(self.profiles):
            return {"kind": "done"}
        return {"kind": "wait", "delay": WAIT_DELAY_S}

    def _next_lease_locked(self, worker: _RemoteWorker
                           ) -> Optional[Dict[str, Any]]:
        while self.queue:
            name, delivery = self.queue.pop(0)
            if name in self.outcomes:
                continue  # finished while a redelivery/copy sat queued
            lease = self.leases.get(name)
            if lease is None:
                lease = self.leases[name] = {
                    "delivery": delivery, "holders": set(),
                    "granted_at": time.monotonic()}
            else:
                lease["delivery"] = max(lease["delivery"], delivery)
            if worker.key in lease["holders"]:
                continue  # never hand a worker its own lease again
            lease["holders"].add(worker.key)
            worker.tasks.add(name)
            self.stats.leases_granted += 1
            return {"task": name, "delivery": lease["delivery"]}
        # Queue drained: steal a copy of the oldest outstanding lease so
        # a straggler (or a silent death not yet detected) cannot stall
        # the campaign.  First finisher wins; the rest get suppressed.
        candidates = sorted(
            (lease["granted_at"], name)
            for name, lease in self.leases.items()
            if name not in self.outcomes
            and worker.key not in lease["holders"]
            and len(lease["holders"]) < self.max_copies)
        if not candidates:
            return None
        _, name = candidates[0]
        lease = self.leases[name]
        lease["holders"].add(worker.key)
        worker.tasks.add(name)
        self.stats.leases_granted += 1
        self.stats.steals += 1
        return {"task": name, "delivery": lease["delivery"]}

    def _result_locked(self, worker: _RemoteWorker,
                       message: Mapping[str, Any]) -> Dict[str, Any]:
        name = str(message["task"])
        ack = {"kind": "ack", "task": name}
        worker.tasks.discard(name)
        lease = self.leases.get(name)
        if lease is not None:
            lease["holders"].discard(worker.key)
        if name in self.outcomes:
            # A resend after a lost ack, or a stolen copy finishing
            # second: ack it (the worker must stop resending) but the
            # committed outcome stands — no double counting, ever.
            self.stats.duplicates_suppressed += 1
            return ack
        if name not in self.tests_by_name and not any(
                p.test.full_name == name for p in self.profiles):
            return ack  # not ours; ack to stop the resend loop
        outcome = parallel.profile_outcome_from_dict(message["outcome"],
                                                     self.tests_by_name)
        # The same commit path every backend uses: tracker replay,
        # immediate test-done journaling, live observability fold.
        parallel.commit_outcome(self.campaign, self.checkpoint, name, outcome)
        self.outcomes[name] = outcome
        self.leases.pop(name, None)
        self.stats.remote_profiles += 1
        self._fleet[worker.name].profiles += 1
        self.cond.notify_all()
        return ack

    # ------------------------------------------------------------------
    # failure policy (heartbeats, lease deadlines, degradation)
    # ------------------------------------------------------------------
    def _police_locked(self, now: float, started: float) -> None:
        for worker in list(self.workers):
            if (worker.alive
                    and now - worker.last_seen > self.heartbeat_timeout):
                self.stats.heartbeat_expiries += 1
                self._worker_lost_locked(
                    worker, "no heartbeat for %.1fs" % self.heartbeat_timeout)
        if self.lease_deadline is not None:
            for name, lease in list(self.leases.items()):
                if now - lease["granted_at"] <= self.lease_deadline:
                    continue
                # The holders may be alive-but-stuck; their late result
                # is still accepted (idempotently) if it ever arrives.
                self.stats.lease_expiries += 1
                for worker in self.workers:
                    worker.tasks.discard(name)
                del self.leases[name]
                self._requeue_or_quarantine_locked(
                    name, lease["delivery"],
                    "lease exceeded the %.1fs deadline" % self.lease_deadline)
        alive = any(w.alive for w in self.workers)
        if self.stats.workers_joined == 0:
            if now - started > self.join_grace:
                self._degrade_locked("no remote worker joined within %.1fs"
                                     % self.join_grace)
        elif not alive:
            if self._fleet_lost_at is None:
                self._fleet_lost_at = now
            elif now - self._fleet_lost_at > self.fleet_grace:
                self._degrade_locked(
                    "fleet lost: no live worker for %.1fs" % self.fleet_grace)
        else:
            self._fleet_lost_at = None

    def _worker_lost_locked(self, worker: _RemoteWorker, reason: str,
                            graceful: bool = False) -> None:
        if not worker.alive:
            return
        worker.alive = False
        self.workers.remove(worker)
        if not graceful:
            self.stats.workers_lost += 1
            self._fleet[worker.name].leases_lost += len(worker.tasks)
            obs = self.campaign.observation
            if obs is not None:
                # Failure-only event, like the supervisor's worker-death:
                # healthy-run span trees stay backend-identical.
                obs.event("dist-worker-lost", kind="coordinator",
                          worker=worker.name, reason=reason,
                          leases=len(worker.tasks))
        for name in sorted(worker.tasks):
            lease = self.leases.get(name)
            if lease is None:
                continue
            lease["holders"].discard(worker.key)
            if lease["holders"] or name in self.outcomes:
                continue  # a stolen copy is still running it
            del self.leases[name]
            self._requeue_or_quarantine_locked(
                name, lease["delivery"],
                "worker %r lost while holding the lease (%s)"
                % (worker.name, reason))
        worker.tasks.clear()
        self.cond.notify_all()

    def _requeue_or_quarantine_locked(self, name: str, delivery: int,
                                      reason: str) -> None:
        if delivery <= self.redelivery:
            self.stats.redeliveries += 1
            self.queue.append((name, delivery + 1))
            return
        # Same poison escalation as the supervised pool: record a
        # WORKER_CRASH outcome (journaled — a resume does not retry it).
        from repro.core.orchestrator import ProfileOutcome
        outcome = ProfileOutcome(
            error="%s; profile quarantined after %d deliveries"
                  % (reason, delivery),
            error_kind=WORKER_CRASH)
        parallel.commit_outcome(self.campaign, self.checkpoint, name, outcome)
        self.outcomes[name] = outcome
        self.stats.quarantined += 1
        obs = self.campaign.observation
        if obs is not None:
            obs.event("dist-quarantine", kind="coordinator", test=name,
                      reason=reason)
        self.cond.notify_all()

    def _degrade_locked(self, reason: str) -> None:
        if self.halted:
            return
        self.halted = True
        self.stats.degraded_to_local = True
        obs = self.campaign.observation
        if obs is not None:
            obs.event("dist-degraded", kind="coordinator", reason=reason)
        trace = self.campaign.config.trace
        if trace is not None:
            trace.emit("dist-degraded", app=self.campaign.app, reason=reason)
        self.cond.notify_all()


# ---------------------------------------------------------------------------
# orchestrator entry point
# ---------------------------------------------------------------------------
def run_profiles_distributed(campaign: Any, profiles: Sequence[Any],
                             checkpoint: Optional[Any],
                             tests_by_name: Mapping[str, UnitTest]
                             ) -> Dict[str, Any]:
    """Run ``profiles`` over the remote fleet, locally finishing whatever
    the fleet could not.  Outcomes come back keyed by test name."""
    config = campaign.config
    host, port = net.parse_address(config.distributed)
    campaign.distribution.enabled = True
    # LPT grant order: pure makespan, the fold stays catalog-ordered.
    order = (campaign.cost_model.lpt_order(profiles)
             if config.schedule == "lpt" else list(profiles))
    coordinator = Coordinator(campaign, order, checkpoint, tests_by_name,
                              host=host, port=port)
    outcomes, remaining = coordinator.serve()
    if remaining:
        # Graceful degradation: the local machine finishes the campaign.
        campaign.distribution.local_profiles = len(remaining)
        outcomes.update(campaign._run_locally(remaining, checkpoint,
                                              tests_by_name))
    return outcomes


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _config_from_settings(settings: Mapping[str, Any], run_cost_s: float,
                          observe: bool, base: Any) -> Any:
    """Coordinator-sent findings-shaping settings + local execution shape
    (worker count, supervision knobs) -> the worker's config."""
    from repro.common.faults import FaultPlan
    from repro.core.orchestrator import CampaignConfig
    plan_record = settings.get("fault_plan")
    fault_plan = None
    if plan_record is not None:
        data = dict(plan_record)
        for key in ("delay_range_s", "crash_window_s", "restart_delay_s"):
            if key in data:
                data[key] = tuple(data[key])
        fault_plan = FaultPlan(**data)
    only = settings.get("only_params")
    return CampaignConfig(
        alpha=settings["alpha"],
        max_trials=settings["max_trials"],
        blacklist_threshold=settings["blacklist_threshold"],
        max_value_pairs=settings["max_value_pairs"],
        max_pool_size=settings["max_pool_size"],
        disable_ipc_sharing=settings["disable_ipc_sharing"],
        only_params=None if only is None else frozenset(only),
        fault_plan=fault_plan,
        infra_retries=settings["infra_retries"],
        watchdog_sim_s=settings["watchdog_sim_s"],
        exec_cache=settings["exec_cache"],
        run_cost_s=run_cost_s,
        observe=observe,
        # Local-execution shape (never findings-bearing): the worker's
        # own durable store and its disk chaos come from its own flags,
        # not the coordinator's — store paths do not travel between
        # hosts, and the content-addressed keys make sharing safe.
        store_path=base.store_path,
        disk_fault_plan=base.disk_fault_plan,
        dist_secret=base.dist_secret,
        workers=base.workers,
        schedule=base.schedule,
        profile_deadline_s=base.profile_deadline_s,
        worker_rlimit_cpu_s=base.worker_rlimit_cpu_s,
        worker_rlimit_mem_mb=base.worker_rlimit_mem_mb,
        worker_redelivery=base.worker_redelivery,
        crash_loop_threshold=base.crash_loop_threshold,
        heartbeat_timeout_s=base.heartbeat_timeout_s)


def catalog_campaign_factory(app: str, config: Any) -> Any:
    """Default factory: build the worker's campaign from the app catalog
    (both sides must share the checkout; the corpus digest enforces it)."""
    from repro.apps import catalog
    from repro.core.orchestrator import Campaign
    spec = catalog.spec_for(app)
    return Campaign(app=app, registry=spec.registry,
                    dependency_rules=spec.dependency_rules, config=config)


class _OutcomeShipper:
    """Ships outcomes with acks; stashes what the wire loses for resend.

    At-least-once delivery lives here: every outcome enters ``unacked``
    before the send, and leaves only on a matching ack.  A transport
    failure (or a dropped/partitioned ack) marks the shipper broken; the
    batch finishes locally and the reconnect loop resends everything
    still unacked — the coordinator's duplicate suppression makes the
    resend safe.
    """

    def __init__(self, control_timeout: float) -> None:
        self.transport: Optional[net.FrameTransport] = None
        self.control_timeout = control_timeout
        self.deliveries: Dict[str, int] = {}
        self.unacked: Dict[str, Dict[str, Any]] = {}
        self.broken = False

    def ship(self, name: str, outcome: Any) -> None:
        """Send one profile outcome and wait for its ack (stash first)."""
        message = {"kind": "result", "task": name,
                   "delivery": self.deliveries.get(name, 1),
                   "outcome": parallel.profile_outcome_to_dict(outcome)}
        self.unacked[name] = message
        if not self.broken:
            self._send_one(name, message)

    def _send_one(self, name: str, message: Dict[str, Any]) -> None:
        try:
            self.transport.send(message)
            reply = self.transport.recv(timeout=self.control_timeout)
        except net.TransportError:
            self.broken = True
            return
        if reply.get("kind") == "ack" and reply.get("task") == name:
            self.unacked.pop(name, None)
        else:
            self.broken = True

    def resend_unacked(self) -> None:
        """After a reconnect: replay every stashed outcome, oldest first.

        Stops at the first failure and leaves the rest stashed for the
        next reconnect; duplicates are suppressed coordinator-side.
        """
        for name in sorted(self.unacked):
            if self.broken:
                return
            self._send_one(name, self.unacked[name])


def run_worker(connect: str, worker_config: Optional[Any] = None,
               campaign_factory: Any = catalog_campaign_factory,
               name: str = "", net_fault_plan: Optional[net.NetFaultPlan] = None,
               max_reconnects: int = 8, backoff_base_s: float = 0.2,
               backoff_cap_s: float = 5.0,
               log: Any = None) -> int:
    """The ``repro worker --connect`` process: pull leases, run profiles
    on the local (supervised) pool, stream outcomes back.  Returns a
    process exit code."""
    from repro.core.orchestrator import CampaignConfig
    host, port = net.parse_address(connect)
    base = worker_config if worker_config is not None else CampaignConfig()
    worker_name = name or "%s-%d" % (socket.gethostname(), id(base) % 10000)
    if log is None:
        def say(text: str) -> None:
            pass
    elif callable(log):
        say = log
    else:  # a stream (the CLI passes sys.stderr)
        def say(text: str) -> None:
            print(text, file=log, flush=True)

    campaign = None
    campaign_app = None
    profiles_by_name: Dict[str, Any] = {}
    tests_by_name: Dict[str, UnitTest] = {}
    shipper: Optional[_OutcomeShipper] = None
    previous_sharing = None
    failures = 0
    attempt = 0
    try:
        while True:
            if failures > max_reconnects:
                say("worker %s: giving up after %d failed reconnect "
                    "attempts" % (worker_name, failures))
                return EXIT_RECONNECTS_EXHAUSTED
            if failures:
                # Exponential backoff with jitter: a rebooting fleet must
                # not reconnect in lockstep and stampede the coordinator.
                delay = min(backoff_cap_s,
                            backoff_base_s * (2 ** (failures - 1)))
                time.sleep(delay * (0.5 + random.random() * 0.5))
            attempt += 1
            stop_beating = threading.Event()
            transport_ = None
            try:
                transport_ = net.connect(
                    host, port, timeout=5.0,
                    conn_id="%s#%d" % (worker_name, attempt),
                    plan=net_fault_plan)
                worker_nonce = os.urandom(16).hex()
                transport_.send({"kind": "hello", "worker": worker_name,
                                 "slots": max(base.workers, 1),
                                 "nonce": worker_nonce,
                                 "digest": (corpus_digest(campaign)
                                            if campaign is not None else None)})
                welcome = transport_.recv(timeout=CONTROL_TIMEOUT_S)
                if welcome.get("kind") == "challenge":
                    secret = base.dist_secret
                    if not secret:
                        say("worker %s: coordinator requires a shared "
                            "secret (--dist-secret / REPRO_DIST_SECRET)"
                            % worker_name)
                        return EXIT_REJECTED
                    coordinator_proof = _auth_mac(secret, "coordinator",
                                                  worker_nonce)
                    if not hmac.compare_digest(
                            coordinator_proof,
                            str(welcome.get("mac") or "")):
                        say("worker %s: coordinator failed mutual "
                            "authentication; refusing to join"
                            % worker_name)
                        return EXIT_REJECTED
                    transport_.send({"kind": "auth", "mac": _auth_mac(
                        secret, "worker", str(welcome.get("nonce") or ""))})
                    welcome = transport_.recv(timeout=CONTROL_TIMEOUT_S)
                elif base.dist_secret and welcome.get("kind") == "welcome":
                    # Mutual requirement: a worker carrying a secret must
                    # not hand results to a coordinator that never proved
                    # it holds the same one.
                    say("worker %s: coordinator did not authenticate; "
                        "refusing to join" % worker_name)
                    return EXIT_REJECTED
                if welcome.get("kind") == "reject":
                    say("worker %s: rejected: %s"
                        % (worker_name, welcome.get("reason")))
                    return EXIT_REJECTED
                if welcome.get("kind") != "welcome":
                    raise net.TransportError("expected welcome, got %r"
                                             % welcome.get("kind"))
                if campaign is None or campaign_app != welcome["app"]:
                    config = _config_from_settings(
                        welcome["settings"], welcome["run_cost_s"],
                        bool(welcome.get("observe")), base)
                    campaign = campaign_factory(welcome["app"], config)
                    campaign.config.trace = None  # parent-only channel
                    campaign_app = welcome["app"]
                    if corpus_digest(campaign) != welcome["digest"]:
                        say("worker %s: local corpus for %r does not match "
                            "the coordinator's" % (worker_name, campaign_app))
                        transport_.send({"kind": "bye"})
                        return EXIT_REJECTED
                    from repro.common.ipc import set_ipc_sharing
                    previous_sharing = set_ipc_sharing(
                        not config.disable_ipc_sharing)
                    campaign._cache = campaign._build_cache()
                    profiles = prerun_corpus(campaign.tests)
                    profiles_by_name = {p.test.full_name: p
                                        for p in profiles if p.usable}
                    tests_by_name = {t.full_name: t for t in campaign.tests}
                    shipper = _OutcomeShipper(
                        max(welcome.get("heartbeat_timeout_s",
                                        CONTROL_TIMEOUT_S), 1.0))
                shipper.transport = transport_
                shipper.broken = False
                failures = 0

                heartbeat_every = max(welcome.get("heartbeat_s", 1.0), 0.01)
                _start_heartbeat(transport_, stop_beating, heartbeat_every)
                shipper.resend_unacked()
                if shipper.broken:
                    raise net.TransportError("resend of unacked results "
                                             "failed")
                verdict = _serve_leases(campaign, transport_, shipper,
                                        profiles_by_name, tests_by_name,
                                        base)
                if verdict == "done":
                    try:
                        transport_.send({"kind": "bye"})
                    except net.TransportError:
                        pass
                    say("worker %s: campaign complete" % worker_name)
                    return EXIT_OK
                raise net.TransportError("connection must be rebuilt")
            except net.TransportError as exc:
                failures += 1
                say("worker %s: %s (reconnect %d/%d)"
                    % (worker_name, exc, failures, max_reconnects))
            finally:
                stop_beating.set()
                if transport_ is not None:
                    transport_.close()
    finally:
        if previous_sharing is not None:
            from repro.common.ipc import set_ipc_sharing
            set_ipc_sharing(previous_sharing)


def _start_heartbeat(transport_: net.FrameTransport, stop: threading.Event,
                     every: float) -> None:
    """One-way heartbeats from a side thread (send is thread-safe); a
    transport failure just stops the thread — the request loop hits the
    same failure and owns the reconnect."""
    def _beat() -> None:
        while not stop.wait(every):
            try:
                transport_.send({"kind": "heartbeat"})
            except net.TransportError:
                return

    threading.Thread(target=_beat, name="dist-heartbeat",
                     daemon=True).start()


def _serve_leases(campaign: Any, transport_: net.FrameTransport,
                  shipper: _OutcomeShipper,
                  profiles_by_name: Mapping[str, Any],
                  tests_by_name: Mapping[str, UnitTest],
                  base: Any) -> str:
    """Fetch/run/ship until the coordinator says done.  Returns "done" on
    a clean finish; raises TransportError when the link must be rebuilt."""
    while True:
        transport_.send({"kind": "fetch",
                         "max": max(campaign.config.workers, 1)})
        reply = transport_.recv(timeout=shipper.control_timeout)
        kind = reply.get("kind")
        if kind == "done":
            return "done"
        if kind == "wait":
            time.sleep(min(float(reply.get("delay", WAIT_DELAY_S)), 5.0))
            continue
        if kind == "reject":
            raise net.TransportError("coordinator rejected the fetch: %s"
                                     % reply.get("reason"))
        if kind != "lease":
            raise net.TransportError("expected a lease, got %r" % kind)
        batch = [(str(t["task"]), int(t.get("delivery", 1)))
                 for t in reply.get("tasks", ())]
        shipper.deliveries.update(dict(batch))
        _run_batch(campaign, batch, shipper, profiles_by_name, tests_by_name)
        if shipper.broken:
            raise net.TransportError("lost the link while shipping results")


def _run_batch(campaign: Any, batch: Sequence[Tuple[str, int]],
               shipper: _OutcomeShipper,
               profiles_by_name: Mapping[str, Any],
               tests_by_name: Mapping[str, UnitTest]) -> None:
    """Run one lease batch on the local pool, shipping each outcome as it
    commits.  At ``--workers > 1`` the whole supervised-pool failure
    story (crash containment, redelivery, deadlines, rlimits, its own
    quarantine) applies to each remote batch."""
    from repro.core.orchestrator import HARNESS_ERROR, ProfileOutcome
    runnable = []
    for task, _ in batch:
        profile = profiles_by_name.get(task)
        if profile is None:
            # Digest-matched corpora cannot disagree on usability, but a
            # confused lease must still produce *an* outcome or the
            # coordinator waits forever.
            shipper.ship(task, ProfileOutcome(
                error="worker has no usable profile %r" % task,
                error_kind=HARNESS_ERROR))
            continue
        runnable.append(profile)
    if runnable:
        campaign._run_locally(runnable, None, tests_by_name,
                              outcome_sink=shipper.ship)
