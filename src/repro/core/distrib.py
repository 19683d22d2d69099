"""Distributed campaign execution: coordinator + the lease client.

The paper ran its campaigns across ~100 CloudLab machines; this module
grows the harness past one host.  A **coordinator** (the campaign
parent) serves unit-test profiles over the length-prefixed JSON TCP
protocol in :mod:`repro.common.transport`, and any number of **workers**
(``repro worker --connect HOST:PORT``) run :func:`serve_leases`: fetch
one lease, run the profile on a blacklist tracker started from the
confirmations it carries, ship the outcome — the profile
record (:func:`repro.core.parallel.profile_outcome_to_dict`) plus the
profile's observation and store traffic — and wait for the ack.  The
supervised pool's forked workers run the same loop over a
``socketpair()`` (:mod:`repro.core.supervise`).  ``repro worker
--workers N`` forks N such clients, each its own fleet member.

Robustness is the design driver — a worker that disconnects, hangs,
crashes, or answers late must never corrupt findings:

* **Liveness.**  Workers heartbeat every :data:`HEARTBEAT_S` on a side
  thread; a worker silent past :data:`HEARTBEAT_TIMEOUT_S` is declared
  lost and its leases are redelivered.  A lease older than the
  campaign's ``profile_deadline_s`` (``--profile-deadline``, the same
  per-profile budget the supervised pool enforces) is requeued even
  while its holder keeps beating.
* **At-least-once + idempotent.**  A worker treats a result as delivered
  only when the coordinator acks it; unacked results are resent after
  reconnect.  The coordinator commits each profile exactly once — a
  duplicate (resend, or a stolen copy finishing second) is acked and
  dropped, never double-counted.
* **Bounded reconnect.**  Workers reconnect with exponential backoff and
  jitter, at most ``--reconnect-attempts`` consecutive failures.
* **Redelivery with quarantine.**  A lease lost to a dead worker is
  re-queued at most :data:`repro.core.parallel.REDELIVERY` times before
  the profile is quarantined — poison cannot starve the fleet.  The
  :class:`~repro.core.parallel.LeaseBook` holds this policy for the
  supervised pool too; this module is its socket front.
* **Work stealing.**  When the queue drains, an idle worker is granted a
  *copy* of the oldest outstanding lease (at most :data:`MAX_COPIES`
  holders): a straggler or silently-dead holder cannot stall campaign
  completion; the first copy to finish wins, the rest are suppressed.
* **Graceful degradation.**  If no worker is live for
  ``dist_join_grace_s`` — from the start until the first one joins, and
  from the last loss after that — the coordinator closes shop and
  :func:`repro.core.orchestrator.run_campaigns` runs the remaining
  profiles on its local front, each from its lease's confirmations: a
  lost fleet degrades, it never aborts.

Findings stay byte-identical to serial runs because the coordinator
leases profiles in catalog order, each with the confirmations of the
profiles before it, commits outcomes through the same
:func:`repro.core.parallel.commit_outcome` path every front uses, and
the campaign folds them back in catalog order (:meth:`Campaign._finish`).
"""

from __future__ import annotations

import hashlib
import hmac
import multiprocessing
import os
import random
import socket
import sys
import threading
import time
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common import transport as net
from repro.common.faults import fault_seed
from repro.core import parallel
from repro.core.prerun import prerun_corpus
from repro.core.registry import UnitTest

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

#: read deadline for a control reply (welcome, lease, ack) before the
#: worker declares the connection wedged and reconnects.
CONTROL_TIMEOUT_S = 30.0
#: work stealing: maximum concurrent holders of one lease.
MAX_COPIES = 2
#: cadence workers are told to heartbeat at.
HEARTBEAT_S = 1.0
#: seconds of heartbeat silence before a worker is declared lost and its
#: leases redelivered.
HEARTBEAT_TIMEOUT_S = 10.0
#: delay a worker is told to idle before re-fetching when the queue is
#: momentarily empty but the campaign is not finished (the supervised
#: pool holds the fetch instead).
WAIT_DELAY_S = 0.2
#: how long a finished coordinator keeps answering ``fetch`` with
#: ``done`` so workers exit cleanly instead of hitting a closed port.
LINGER_S = 1.5

#: worker exit codes.
EXIT_OK = 0
EXIT_RECONNECTS_EXHAUSTED = 1
EXIT_REJECTED = 2
#: exit status of a pool worker the injected worker_crash fault ends.
INJECTED_CRASH_EXIT = 70


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

    def __init__(self, name: str) -> None:
        _RemoteWorker._sequence += 1
        #: unique per connection; a reconnect gets a fresh key, so a
        #: stale connection's lease cleanup can never hit the new one.
        self.key = _RemoteWorker._sequence
        self.name = name
        self.alive = True
        self.last_seen = time.monotonic()


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

    All shared state (the lease book, whose holders are connection
    keys, and fleet bookkeeping) is guarded by one lock; message handling
    is funnelled through :meth:`_handle_message`, which takes and returns
    plain dicts so the protocol is unit-testable without sockets.
    """

    def __init__(self, campaign: Any, profiles: Sequence[Any],
                 checkpoint: Optional[Any],
                 tests_by_name: Mapping[str, UnitTest],
                 host: str = "127.0.0.1", port: int = 0) -> None:
        config = campaign.config
        self.campaign = campaign
        self.profiles = list(profiles)
        self.host, self.port = host, port
        self.stats = campaign.distribution
        #: grants in the order given: catalog order.
        self.book = parallel.LeaseBook(
            [parallel.Job(campaign, self.profiles, checkpoint, tests_by_name)],
            self.stats, announce=("dist-quarantine", "coordinator"))
        self.digest = corpus_digest(campaign)
        self.join_grace = config.dist_join_grace_s
        self.net_plan = config.net_fault_plan
        #: shared secret for the HMAC challenge-response handshake
        #: (None/"" = open coordinator, legacy hello/welcome).
        self.secret = config.dist_secret

        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.workers: List[_RemoteWorker] = []
        from repro.core.report import FleetWorker
        self._fleet: Dict[str, FleetWorker] = {}
        self.halted = False  # degradation tripped: stop granting
        self.closed = False  # serve() is tearing down
        #: start of the current stretch with no live worker (None while
        #: one is live); degradation trips once it outlasts join_grace.
        self._idle_since: Optional[float] = time.monotonic()
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
        the rest here.
        """
        self._listen()
        accept_thread = threading.Thread(target=self._accept_loop,
                                         name="dist-accept", daemon=True)
        accept_thread.start()
        try:
            with self.cond:
                while not self.book.done():
                    self._police_locked(time.monotonic())
                    if self.halted:
                        break
                    self.cond.wait(timeout=0.05)
            if not self.halted:
                self._linger()
        finally:
            self._teardown()
        remaining = [p for p in self.profiles
                     if p.test.full_name not in self.book.outcomes]
        self.stats.fleet = [self._fleet[name] for name in sorted(self._fleet)]
        return dict(self.book.outcomes), remaining

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
                message = transport_.recv(timeout=HEARTBEAT_TIMEOUT_S * 2)
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
                # wakes the accept thread: closing alone leaves it blocked
                # in accept() and the port in LISTEN, so the next bind on
                # it fails
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
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
            return self._fetch_locked(conn.worker)
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
        worker = _RemoteWorker(str(message.get("worker") or "worker"))
        conn.worker = worker
        self.workers.append(worker)
        self.stats.workers_joined += 1
        self._idle_since = None
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
            "heartbeat_s": HEARTBEAT_S,
            "heartbeat_timeout_s": HEARTBEAT_TIMEOUT_S,
        }

    def _fetch_locked(self, worker: _RemoteWorker) -> Dict[str, Any]:
        if not worker.alive:
            return {"kind": "reject", "reason": "connection declared lost"}
        if self.halted or self.closed:
            return {"kind": "done"}
        task = self.book.grant(worker.key)
        if task is None:
            # Queue drained: steal a copy of the oldest outstanding lease
            # so a straggler (or a silent death not yet detected) cannot
            # stall the campaign.  First finisher wins; the rest get
            # suppressed.
            task = self.book.copy(worker.key, MAX_COPIES)
            if task is not None:
                self.stats.steals += 1
        if task is not None:
            self.stats.leases_granted += 1
            return {"kind": "lease", "tasks": [task]}
        if self.book.done():
            return {"kind": "done"}
        return {"kind": "wait", "delay": WAIT_DELAY_S}

    def _result_locked(self, worker: _RemoteWorker,
                       message: Mapping[str, Any]) -> Dict[str, Any]:
        name = str(message["task"])
        # The same commit path every backend uses: tracker replay,
        # immediate test-done journaling, live observability fold.
        if self.book.commit_record(name, message["outcome"]):
            self.stats.remote_profiles += 1
            self._fleet[worker.name].profiles += 1
            self.cond.notify_all()
        elif name in self.book.outcomes:
            # A resend after a lost ack, or a stolen copy finishing
            # second: the committed outcome stands — no double counting.
            self.stats.duplicates_suppressed += 1
        # Acked either way, so the worker stops resending.  A name never
        # queued here is dropped: a coordinator restarted on its journal
        # restored that profile and does not serve it.
        return {"kind": "ack", "task": name}

    # ------------------------------------------------------------------
    # failure policy (heartbeats, lease deadlines, degradation)
    # ------------------------------------------------------------------
    def _police_locked(self, now: float) -> None:
        for worker in list(self.workers):
            if (worker.alive
                    and now - worker.last_seen > HEARTBEAT_TIMEOUT_S):
                self.stats.heartbeat_expiries += 1
                self._worker_lost_locked(
                    worker, "no heartbeat for %.1fs" % HEARTBEAT_TIMEOUT_S)
        for name in self.book.overdue(now):
            # The holders may be alive-but-stuck; their late result is
            # still accepted (idempotently) if it ever arrives.
            self.stats.lease_expiries += 1
            self.book.revoke(name, "lease exceeded the %.1fs profile "
                                   "deadline" % self.book.deadline)
        if (self._idle_since is not None
                and now - self._idle_since > self.join_grace):
            self._degrade_locked(
                ("no remote worker joined within %.1fs"
                 if self.stats.workers_joined == 0
                 else "fleet lost: no live worker for %.1fs")
                % self.join_grace)

    def _worker_lost_locked(self, worker: _RemoteWorker, reason: str,
                            graceful: bool = False) -> None:
        if not worker.alive:
            return
        worker.alive = False
        self.workers.remove(worker)
        if not self.workers:
            self._idle_since = time.monotonic()
        held = self.book.held_by(worker.key)
        if not graceful:
            self.stats.workers_lost += 1
            self._fleet[worker.name].leases_lost += len(held)
            obs = self.campaign.observation
            if obs is not None:
                # Failure-only event, like the supervisor's worker-death:
                # healthy-run span trees stay backend-identical.
                obs.event("dist-worker-lost", kind="coordinator",
                          worker=worker.name, reason=reason,
                          leases=len(held))
        for name in held:
            self.book.revoke(name, "worker %r lost while holding the lease "
                                   "(%s)" % (worker.name, reason), worker.key)
        self.cond.notify_all()

    def _degrade_locked(self, reason: str) -> None:
        if self.halted:
            return
        self.halted = True
        self.stats.degraded_to_local = True
        obs = self.campaign.observation
        if obs is not None:
            obs.event("dist-degraded", kind="coordinator", reason=reason)
        self.cond.notify_all()


# ---------------------------------------------------------------------------
# orchestrator entry point
# ---------------------------------------------------------------------------
def run_profiles_distributed(job: parallel.Job
                             ) -> Tuple[Dict[str, Any], List[Any]]:
    """Serve ``job``'s profiles to the remote fleet, in order: the
    outcomes of those it finished, by test name, and the profiles it
    left (none unless it degraded), which the caller runs here."""
    campaign = job.campaign
    host, port = net.parse_address(campaign.config.distributed)
    campaign.distribution.enabled = True
    outcomes, remaining = Coordinator(
        campaign, job.profiles, job.checkpoint, job.tests_by_name,
        host=host, port=port).serve()
    campaign.distribution.local_profiles = len(remaining)
    return outcomes, remaining


# ---------------------------------------------------------------------------
# worker side: the one lease client
# ---------------------------------------------------------------------------
def catalog_campaign_factory(app: str, config: Any) -> Any:
    """Default factory: build the worker's campaign from the app catalog
    (both sides must share the checkout; the corpus digest enforces it)."""
    from repro.apps import catalog
    from repro.core.orchestrator import Campaign
    spec = catalog.spec_for(app)
    return Campaign(app=app, registry=spec.registry,
                    dependency_rules=spec.dependency_rules, config=config)


def limit_memory(mb: Optional[int]) -> None:
    """``--worker-rlimit-mem``: cap this process's address space."""
    if mb and resource is not None:
        cap = mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


class OutcomeShipper:
    """Ships outcomes with acks; stashes what the wire loses for resend.

    At-least-once delivery lives here: every outcome enters ``unacked``
    before the send, and leaves only on a matching ack.  A transport
    failure (or a dropped/partitioned ack) marks the shipper broken; the
    reconnect loop resends everything still unacked — the coordinator's
    duplicate suppression makes the resend safe.  ``control_timeout``
    bounds the wait for a reply (None: wait until the link fails, as a
    pool worker does for its parent's held fetch).
    """

    def __init__(self, transport_: Optional[net.FrameTransport],
                 control_timeout: Optional[float]) -> None:
        self.transport = transport_
        self.control_timeout = control_timeout
        self.unacked: Dict[str, Dict[str, Any]] = {}
        self.broken = False

    def ship(self, name: str, outcome: Any,
             store: Optional[Mapping[str, int]] = None) -> None:
        """Send one profile outcome, with the store traffic its run made,
        and wait for its ack (stash first)."""
        message = {"kind": "result", "task": name,
                   "outcome": dict(parallel.profile_outcome_to_dict(outcome),
                                   observation=outcome.observation,
                                   store=store)}
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


def serve_leases(shipper: OutcomeShipper,
                 units: Mapping[str, Tuple[Any, Any]], heartbeat_s: float,
                 crash_plan: Optional[Any] = None,
                 exit_on_loss: bool = False) -> None:
    """The lease client, run by a ``repro worker`` against a coordinator
    and by every forked pool worker against its supervisor.

    Resend what is unacked, then fetch one lease, run its profile (the
    ``(campaign, profile)`` of ``units`` under the lease's name) from
    the lease's confirmations, ship the outcome and wait for the ack,
    until the server says done.  A side thread heartbeats every
    ``heartbeat_s``.  A lost link raises
    TransportError, which a remote client answers by reconnecting; with
    ``exit_on_loss`` a beat that finds the link gone ends the process,
    so a pool worker stuck in a profile does not outlive its parent.
    ``crash_plan`` is the pool's injected worker_crash fault; a remote
    client passes none.
    """
    transport_ = shipper.transport
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                transport_.send({"kind": "heartbeat"})
            except net.TransportError:
                if exit_on_loss:
                    os._exit(0)
                return  # the request loop meets the same failure

    threading.Thread(target=beat, name="lease-heartbeat",
                     daemon=True).start()
    try:
        shipper.resend_unacked()
        while not shipper.broken:
            transport_.send({"kind": "fetch"})
            reply = transport_.recv(timeout=shipper.control_timeout)
            kind = reply.get("kind")
            if kind == "done":
                return
            if kind == "wait":
                time.sleep(min(float(reply.get("delay", WAIT_DELAY_S)), 5.0))
                continue
            if kind == "reject":
                raise net.TransportError("coordinator rejected the fetch: %s"
                                         % reply.get("reason"))
            if kind != "lease":
                raise net.TransportError("expected a lease, got %r" % kind)
            for task in reply.get("tasks", ()):
                name = str(task["task"])
                if crash_plan is not None and crash_plan.worker_crash_decision(
                        name, int(task.get("delivery", 1))):
                    os._exit(INJECTED_CRASH_EXIT)
                unit = units.get(name)
                if unit is None:
                    # Digest-matched corpora cannot disagree on usability,
                    # but a confused lease must still produce *an* outcome
                    # or the coordinator waits forever.
                    from repro.core.orchestrator import (HARNESS_ERROR,
                                                         ProfileOutcome)
                    shipper.ship(name, ProfileOutcome(
                        error="worker has no usable profile %r" % name,
                        error_kind=HARNESS_ERROR))
                    continue
                campaign, profile = unit
                shipper.ship(name, *campaign._run_lease(
                    profile, task.get("confirmations", ())))
        raise net.TransportError("lost the link while shipping results")
    finally:
        stop.set()


def run_worker(connect: str, worker_config: Optional[Any] = None,
               campaign_factory: Any = catalog_campaign_factory,
               name: str = "", net_fault_plan: Optional[net.NetFaultPlan] = None,
               max_reconnects: int = 8, backoff_base_s: float = 0.2,
               backoff_cap_s: float = 5.0,
               log: Any = None) -> int:
    """The ``repro worker --connect`` process: one lease client in this
    process, or at ``workers > 1`` (where fork is available) that many
    forked clients, each its own fleet member (``NAME/i``, else
    ``host#pid``).  Returns a process exit code, the worst client's."""
    from repro.core.orchestrator import CampaignConfig
    host, port = net.parse_address(connect)
    base = worker_config if worker_config is not None else CampaignConfig()
    if base.workers > 1 and parallel.fork_available():
        def client(index: int) -> None:
            sys.exit(run_worker(
                connect, replace(base, workers=1), campaign_factory,
                name and "%s/%d" % (name, index), net_fault_plan,
                max_reconnects, backoff_base_s, backoff_cap_s, log))

        context = multiprocessing.get_context("fork")
        clients = [context.Process(target=client, args=(index,),
                                   name="repro-client-%d" % index,
                                   daemon=True)
                   for index in range(base.workers)]
        for process in clients:
            process.start()
        for process in clients:
            process.join()
        # a client killed by signal N counts as exit status 128 + N
        return max(code if code >= 0 else 128 - code
                   for code in (process.exitcode for process in clients))
    limit_memory(base.worker_rlimit_mem_mb)
    worker_name = name or "%s#%d" % (socket.gethostname(), os.getpid())
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
    units: Dict[str, Tuple[Any, Any]] = {}
    shipper = OutcomeShipper(None, CONTROL_TIMEOUT_S)
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
            transport_ = None
            try:
                transport_ = net.connect(
                    host, port, timeout=5.0,
                    conn_id="%s#%d" % (worker_name, attempt),
                    plan=net_fault_plan)
                worker_nonce = os.urandom(16).hex()
                transport_.send({"kind": "hello", "worker": worker_name,
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
                    # the coordinator's settings over this worker's own
                    # store and secret
                    config = replace(base.with_settings(welcome["settings"]),
                                     run_cost_s=welcome["run_cost_s"],
                                     observe=bool(welcome.get("observe")))
                    campaign = campaign_factory(welcome["app"], config)
                    campaign_app = welcome["app"]
                    if corpus_digest(campaign) != welcome["digest"]:
                        say("worker %s: local corpus for %r does not match "
                            "the coordinator's" % (worker_name, campaign_app))
                        transport_.send({"kind": "bye"})
                        return EXIT_REJECTED
                    from repro.common.ipc import set_ipc_sharing
                    previous_sharing = set_ipc_sharing(
                        not config.disable_ipc_sharing)
                    campaign._open_store()  # once, as _prepare does
                    units = {p.test.full_name: (campaign, p)
                             for p in prerun_corpus(campaign.tests)
                             if p.usable}
                    shipper.control_timeout = max(
                        welcome.get("heartbeat_timeout_s",
                                    CONTROL_TIMEOUT_S), 1.0)
                shipper.transport = transport_
                shipper.broken = False
                failures = 0
                serve_leases(shipper, units,
                             max(welcome.get("heartbeat_s", HEARTBEAT_S),
                                 0.01))
                try:
                    transport_.send({"kind": "bye"})
                except net.TransportError:
                    pass
                say("worker %s: campaign complete" % worker_name)
                return EXIT_OK
            except net.TransportError as exc:
                failures += 1
                say("worker %s: %s (reconnect %d/%d)"
                    % (worker_name, exc, failures, max_reconnects))
            finally:
                if transport_ is not None:
                    transport_.close()
    finally:
        if previous_sharing is not None:
            from repro.common.ipc import set_ipc_sharing
            set_ipc_sharing(previous_sharing)
