"""Distributed campaign execution: transport, protocol, fault tolerance.

The headline invariant: **where a profile ran cannot change findings.**
Every end-to-end test compares a distributed report byte-for-byte
against the serial baseline — through worker kills, partitions, stolen
leases, duplicate results, and full degradation to the local pool.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict

import pytest

import repro
from repro.common import transport as net
from repro.common.faults import FaultPlan, plan_from_dict
from repro.core import distrib, parallel
from repro.core.distrib import (EXIT_OK, EXIT_RECONNECTS_EXHAUSTED,
                                EXIT_REJECTED, Coordinator, _Conn,
                                corpus_digest, run_worker)
from repro.core.orchestrator import Campaign, CampaignConfig, ProfileOutcome
from repro.core.prerun import prerun_corpus
from repro.core.report import app_report_to_dict, findings_projection
from repro.core.runner import WORKER_CRASH
from synthetic_app import SYNTH_REGISTRY, two_service_test
from test_orchestrator import synthetic_campaign

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def full_dict(report):
    record = app_report_to_dict(report)
    # Supervision and distribution counters are run-scoped operations
    # (workers joined, leases stolen...), not findings: execution
    # placement legitimately differs between backends.
    record.pop("supervision")
    record.pop("distribution")
    return json.dumps(record, sort_keys=True)


def decoupled_config(**kw):
    """Profiles fully independent (no cross-profile blacklist coupling),
    so any commit order must agree with serial byte for byte."""
    return CampaignConfig(blacklist_threshold=999, **kw)


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def synth_factory(app, config):
    return synthetic_campaign(config=config)


# ---------------------------------------------------------------------------
# transport framing
# ---------------------------------------------------------------------------
class TestFrameTransport:
    def _pair(self, **kw):
        left, right = socket.socketpair()
        return net.FrameTransport(left, **kw), net.FrameTransport(right)

    def test_round_trip(self):
        a, b = self._pair()
        a.send({"kind": "hello", "nested": {"x": [1, 2, 3]}})
        assert b.recv(timeout=2.0) == {"kind": "hello",
                                       "nested": {"x": [1, 2, 3]}}
        assert a.frames_sent == 1 and b.frames_received == 1

    def test_many_frames_in_order(self):
        a, b = self._pair()
        for i in range(50):
            a.send({"i": i})
        assert [b.recv(timeout=2.0)["i"] for i in range(50)] == list(range(50))

    def test_eof_is_transport_error(self):
        a, b = self._pair()
        a.close()
        with pytest.raises(net.TransportError):
            b.recv(timeout=2.0)

    def test_read_deadline_is_timeout(self):
        a, b = self._pair()
        with pytest.raises(net.TransportTimeout):
            b.recv(timeout=0.05)

    def test_oversized_frame_refused_on_send(self):
        a, b = self._pair()
        with pytest.raises(net.TransportError):
            a.send({"blob": "x" * (net.MAX_FRAME_BYTES + 1)})

    def test_hostile_length_prefix_refused(self):
        left, right = socket.socketpair()
        transport_ = net.FrameTransport(right)
        left.sendall(net._HEADER.pack(net.MAX_FRAME_BYTES + 1))
        with pytest.raises(net.TransportError):
            transport_.recv(timeout=2.0)

    def test_non_object_frame_refused(self):
        left, right = socket.socketpair()
        transport_ = net.FrameTransport(right)
        payload = json.dumps([1, 2]).encode()
        left.sendall(net._HEADER.pack(len(payload)) + payload)
        with pytest.raises(net.TransportError):
            transport_.recv(timeout=2.0)

    def test_send_after_close_fails(self):
        a, _ = self._pair()
        a.close()
        with pytest.raises(net.TransportError):
            a.send({"kind": "x"})

    def test_trickled_frame_survives_timeouts_in_sync(self):
        """Regression: a timeout mid-frame used to discard the bytes
        already read, so the retry parsed payload bytes as a header.
        The partial frame must be buffered and resumed across retries,
        and the *next* frame must still parse cleanly."""
        left, right = socket.socketpair()
        transport_ = net.FrameTransport(right)
        payload = json.dumps({"kind": "trickled"}).encode()
        header = net._HEADER.pack(len(payload))

        left.sendall(header[:2])  # half a header, then stall
        with pytest.raises(net.TransportTimeout):
            transport_.recv(timeout=0.05)
        left.sendall(header[2:] + payload[:3])  # rest of header + stall
        with pytest.raises(net.TransportTimeout):
            transport_.recv(timeout=0.05)
        left.sendall(payload[3:])
        assert transport_.recv(timeout=2.0) == {"kind": "trickled"}

        second = json.dumps({"kind": "next"}).encode()
        left.sendall(net._HEADER.pack(len(second)) + second)
        assert transport_.recv(timeout=2.0) == {"kind": "next"}

    @pytest.mark.chaos
    def test_close_unblocks_a_sender_stuck_in_sendall(self):
        """Regression: close() waited on _send_lock, which a sender
        blocked in sendall() on a full kernel buffer holds — so the
        supervisor's close hung too.  The shutdown must happen before
        the lock so the stuck sender errors out and close() returns."""
        left, right = socket.socketpair()
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        sender = net.FrameTransport(left)
        failed = threading.Event()

        def pump():
            try:
                while True:
                    sender.send({"blob": "x" * 65536})
            except net.TransportError:
                failed.set()

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        deadline = time.time() + 5.0
        while sender.frames_sent == 0 and time.time() < deadline:
            time.sleep(0.01)  # let the pump fill the kernel buffer
        time.sleep(0.2)
        started = time.time()
        sender.close()
        assert time.time() - started < 2.0, "close() blocked behind a sender"
        assert failed.wait(timeout=5.0), "stuck sender never unblocked"
        thread.join(timeout=5.0)
        right.close()


class TestNetFaultPlan:
    def test_inert_by_default(self):
        assert not net.NetFaultPlan().active

    def test_decisions_are_deterministic(self):
        plan = net.NetFaultPlan(seed=7, drop_prob=0.5, delay_prob=0.5)
        drops = [plan.drop_decision("c1", i) for i in range(64)]
        delays = [plan.delay_decision("c1", i) for i in range(64)]
        assert drops == [plan.drop_decision("c1", i) for i in range(64)]
        assert delays == [plan.delay_decision("c1", i) for i in range(64)]
        assert any(drops) and not all(drops)

    def test_decisions_differ_across_connections(self):
        plan = net.NetFaultPlan(seed=7, drop_prob=0.5)
        a = [plan.drop_decision("c1", i) for i in range(64)]
        b = [plan.drop_decision("c2", i) for i in range(64)]
        assert a != b

    def test_partition_severs_after_n_frames(self):
        a, b = self._pair_with_plan(net.NetFaultPlan(partition_after=3))
        for i in range(3):
            a.send({"i": i})
        with pytest.raises(net.TransportError):
            a.send({"i": 3})
        assert a.fault_counts == {"partition": 1}
        assert a.closed

    def test_dropped_frame_vanishes_silently(self):
        plan = net.NetFaultPlan(seed=1, drop_prob=1.0)
        a, b = self._pair_with_plan(plan)
        a.send({"kind": "gone"})
        assert a.fault_counts == {"drop": 1}
        with pytest.raises(net.TransportTimeout):
            b.recv(timeout=0.05)

    def test_round_trip_through_dict(self):
        plan = net.NetFaultPlan(seed=3, drop_prob=0.1, delay_prob=0.2,
                                delay_range_s=(0.5, 1.5), partition_after=9)
        rebuilt = plan_from_dict(net.NetFaultPlan,
                                 json.loads(json.dumps(asdict(plan))))
        assert rebuilt == plan
        assert plan_from_dict(net.NetFaultPlan, None) is None

    def _pair_with_plan(self, plan):
        left, right = socket.socketpair()
        return (net.FrameTransport(left, conn_id="t", plan=plan),
                net.FrameTransport(right))


class TestParseAddress:
    def test_forms(self):
        assert net.parse_address("1.2.3.4:99") == ("1.2.3.4", 99)
        assert net.parse_address(":99") == ("127.0.0.1", 99)
        assert net.parse_address("99") == ("127.0.0.1", 99)

    def test_garbage_refused(self):
        with pytest.raises(net.TransportError):
            net.parse_address("nope")
        with pytest.raises(net.TransportError):
            net.parse_address("host:70000")


# ---------------------------------------------------------------------------
# coordinator protocol (no sockets: straight through _handle_message)
# ---------------------------------------------------------------------------
def make_coordinator(**config_kwargs):
    config = decoupled_config(distributed="0", **config_kwargs)
    campaign = synthetic_campaign(config=config)
    profiles = [p for p in prerun_corpus(campaign.tests) if p.usable]
    tests_by_name = {t.full_name: t for t in campaign.tests}
    campaign.distribution.enabled = True
    coordinator = Coordinator(campaign, profiles, None, tests_by_name)
    return campaign, coordinator, profiles


def join(coordinator, name="w1", slots=1, digest=None):
    conn = _Conn(None)
    with coordinator.lock:
        reply = coordinator._handle_message(
            conn, {"kind": "hello", "worker": name, "slots": slots,
                   "digest": digest})
    return conn, reply


def fetch(coordinator, conn, max_tasks=1):
    """``max_tasks`` single fetches, their leases merged into one reply
    (the first reply when none was a lease)."""
    with coordinator.lock:
        replies = [coordinator._handle_message(conn, {"kind": "fetch"})
                   for _ in range(max_tasks)]
    tasks = [task for reply in replies if reply["kind"] == "lease"
             for task in reply["tasks"]]
    return {"kind": "lease", "tasks": tasks} if tasks else replies[0]


def deliver(coordinator, conn, task):
    with coordinator.lock:
        return coordinator._handle_message(conn, {
            "kind": "result", "task": task,
            "outcome": parallel.profile_outcome_to_dict(ProfileOutcome())})


class TestCoordinatorProtocol:
    def test_first_contact_hello_gets_welcome_with_settings(self):
        campaign, coordinator, _ = make_coordinator()
        _, welcome = join(coordinator, digest=None)
        assert welcome["kind"] == "welcome"
        assert welcome["app"] == "synth"
        assert welcome["digest"] == corpus_digest(campaign)
        assert welcome["settings"] == campaign.config.checkpoint_settings()
        assert coordinator.stats.workers_joined == 1

    def test_reconnect_with_skewed_digest_rejected(self):
        _, coordinator, _ = make_coordinator()
        _, reply = join(coordinator, digest=12345)
        assert reply["kind"] == "reject"
        assert "digest" in reply["reason"]

    def test_fetch_before_hello_rejected(self):
        _, coordinator, _ = make_coordinator()
        reply = fetch(coordinator, _Conn(None))
        assert reply["kind"] == "reject"

    def test_lease_then_result_commits_once(self):
        campaign, coordinator, profiles = make_coordinator()
        conn, _ = join(coordinator)
        lease = fetch(coordinator, conn)
        assert lease["kind"] == "lease" and len(lease["tasks"]) == 1
        task = lease["tasks"][0]["task"]
        assert deliver(coordinator, conn, task) == {"kind": "ack",
                                                    "task": task}
        assert task in coordinator.book.outcomes
        assert coordinator.stats.remote_profiles == 1
        # the resend of a lost ack is acked again but never recommitted
        assert deliver(coordinator, conn, task)["kind"] == "ack"
        assert coordinator.stats.duplicates_suppressed == 1
        assert coordinator.stats.remote_profiles == 1

    def test_result_for_a_profile_never_queued_is_dropped(self, tmp_path):
        # A coordinator restarted on its journal restored the last
        # profile and serves the other four; a worker that never got the
        # ack for the restored one resends its result.
        path = str(tmp_path / "ck.jsonl")
        campaign = synthetic_campaign(config=decoupled_config(
            distributed="0", checkpoint_path=path))
        profiles = [p for p in prerun_corpus(campaign.tests) if p.usable]
        assert len(profiles) == 5
        coordinator = Coordinator(
            campaign, profiles[:-1], campaign._open_checkpoint(),
            {t.full_name: t for t in campaign.tests})
        conn, _ = join(coordinator)
        restored = profiles[-1].test.full_name
        assert deliver(coordinator, conn, restored) == {"kind": "ack",
                                                        "task": restored}
        assert coordinator.stats.remote_profiles == 0
        with open(path) as handle:
            assert restored not in handle.read()
        # the four it serves still decide when it is done
        lease = fetch(coordinator, conn, max_tasks=len(profiles))
        assert len(lease["tasks"]) == 4
        for task in lease["tasks"]:
            deliver(coordinator, conn, task["task"])
        assert coordinator.stats.remote_profiles == 4
        assert fetch(coordinator, conn)["kind"] == "done"

    def test_queue_drained_then_wait(self):
        _, coordinator, profiles = make_coordinator()
        conn, _ = join(coordinator)
        lease = fetch(coordinator, conn, max_tasks=len(profiles))
        assert len(lease["tasks"]) == len(profiles)
        assert fetch(coordinator, conn)["kind"] == "wait"

    def test_idle_worker_steals_a_copy_of_a_straggler(self):
        _, coordinator, profiles = make_coordinator()
        straggler, _ = join(coordinator, name="slow")
        fetch(coordinator, straggler, max_tasks=len(profiles))
        thief, _ = join(coordinator, name="fast")
        stolen = fetch(coordinator, thief)
        assert stolen["kind"] == "lease"
        task = stolen["tasks"][0]["task"]
        assert coordinator.stats.steals == 1
        # first finisher wins; the straggler's copy is suppressed
        deliver(coordinator, thief, task)
        deliver(coordinator, straggler, task)
        assert coordinator.stats.remote_profiles == 1
        assert coordinator.stats.duplicates_suppressed == 1

    def test_steal_bounded_by_max_copies(self, monkeypatch):
        monkeypatch.setattr(distrib, "MAX_COPIES", 1)
        _, coordinator, profiles = make_coordinator()
        straggler, _ = join(coordinator, name="slow")
        fetch(coordinator, straggler, max_tasks=len(profiles))
        thief, _ = join(coordinator, name="fast")
        assert fetch(coordinator, thief)["kind"] == "wait"

    def test_lost_worker_leases_requeued(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        task = fetch(coordinator, conn)["tasks"][0]["task"]
        with coordinator.cond:
            coordinator._worker_lost_locked(conn.worker, "test kill")
        assert coordinator.stats.workers_lost == 1
        assert coordinator.stats.redeliveries == 1
        assert (task, 2) in coordinator.book.queue
        # the redelivered lease (queued behind the untouched profiles)
        # is granted to the next worker that drains the queue
        fresh, _ = join(coordinator, name="w2")
        lease = fetch(coordinator, fresh,
                      max_tasks=len(coordinator.book.queue))
        granted = {t["task"]: t["delivery"] for t in lease["tasks"]}
        assert granted[task] == 2

    def test_graceful_bye_is_not_a_loss(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        with coordinator.cond:
            coordinator._worker_lost_locked(conn.worker, "bye",
                                            graceful=True)
        assert coordinator.stats.workers_lost == 0

    def test_poison_quarantined_after_redelivery_exhausted(self,
                                                           monkeypatch):
        monkeypatch.setattr(parallel, "REDELIVERY", 0)
        campaign, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        task = fetch(coordinator, conn)["tasks"][0]["task"]
        with coordinator.cond:
            coordinator._worker_lost_locked(conn.worker, "crashed")
        assert coordinator.stats.quarantined == 1
        assert coordinator.book.outcomes[task].error_kind == WORKER_CRASH

    def test_heartbeat_expiry_declares_the_worker_dead(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        fetch(coordinator, conn)
        conn.worker.last_seen -= distrib.HEARTBEAT_TIMEOUT_S + 1
        with coordinator.cond:
            coordinator._police_locked(time.monotonic())
        assert coordinator.stats.heartbeat_expiries == 1
        assert coordinator.stats.redeliveries == 1

    def test_heartbeat_refreshes_liveness(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        conn.worker.last_seen -= distrib.HEARTBEAT_TIMEOUT_S + 1
        with coordinator.lock:
            assert coordinator._handle_message(
                conn, {"kind": "heartbeat"}) is None
        with coordinator.cond:
            coordinator._police_locked(time.monotonic())
        assert coordinator.stats.heartbeat_expiries == 0

    def test_lease_deadline_redelivers(self):
        # one wall-clock budget per profile: the pool's --profile-deadline
        _, coordinator, _ = make_coordinator(profile_deadline_s=5.0)
        conn, _ = join(coordinator)
        task = fetch(coordinator, conn)["tasks"][0]["task"]
        coordinator.book.leases[task].granted_at -= 10.0
        with coordinator.cond:
            coordinator._police_locked(time.monotonic())
        assert coordinator.stats.lease_expiries == 1
        assert coordinator.stats.redeliveries == 1

    def test_two_coordinators_bind_one_port_in_turn(self):
        """A finished coordinator releases its port and its accept
        thread, so the next campaign's coordinator binds the same one."""
        port = _free_port()
        for _ in range(2):
            campaign, _, profiles = make_coordinator(dist_join_grace_s=0.1)
            coordinator = Coordinator(
                campaign, profiles, None,
                {t.full_name: t for t in campaign.tests}, port=port)
            outcomes, remaining = coordinator.serve()
            assert coordinator.address[1] == port
            assert not outcomes and len(remaining) == len(profiles)
        deadline = time.monotonic() + 2.0
        while any(t.name == "dist-accept" for t in threading.enumerate()) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(t.name == "dist-accept"
                       for t in threading.enumerate())

    def test_join_grace_expiry_degrades(self):
        _, coordinator, _ = make_coordinator(dist_join_grace_s=0.1)
        with coordinator.cond:
            coordinator._police_locked(time.monotonic() + 1.0)
        assert coordinator.halted
        assert coordinator.stats.degraded_to_local

    def test_fleet_loss_degrades_after_grace(self):
        # the join grace is the one "no live worker" window: a live
        # worker stops its clock, and the last loss restarts it
        _, coordinator, _ = make_coordinator(dist_join_grace_s=0.1)
        conn, _ = join(coordinator)
        with coordinator.cond:
            coordinator._police_locked(time.monotonic() + 1.0)
            assert not coordinator.halted
            coordinator._worker_lost_locked(conn.worker, "gone")
            now = time.monotonic()
            coordinator._police_locked(now)
            assert not coordinator.halted
            coordinator._police_locked(now + 1.0)
        assert coordinator.halted
        assert coordinator.stats.degraded_to_local

    def test_fetch_after_halt_says_done(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        with coordinator.cond:
            coordinator._degrade_locked("test")
        assert fetch(coordinator, conn)["kind"] == "done"


# ---------------------------------------------------------------------------
# shared-secret HMAC handshake (protocol level)
# ---------------------------------------------------------------------------
def hello_message(name="w1", nonce="aabb"):
    return {"kind": "hello", "worker": name, "slots": 1, "digest": None,
            "nonce": nonce}


class TestAuthHandshake:
    def test_open_coordinator_ignores_nonce_and_welcomes(self):
        _, coordinator, _ = make_coordinator()
        conn = _Conn(None)
        with coordinator.lock:
            reply = coordinator._handle_message(conn, hello_message())
        assert reply["kind"] == "welcome"

    def test_hello_gets_challenge_with_coordinator_proof(self):
        from repro.core.distrib import _auth_mac
        _, coordinator, _ = make_coordinator(dist_secret="hunter2")
        conn = _Conn(None)
        with coordinator.lock:
            reply = coordinator._handle_message(conn, hello_message())
        assert reply["kind"] == "challenge"
        # mutual: the coordinator proves itself over the *worker's* nonce
        assert reply["mac"] == _auth_mac("hunter2", "coordinator", "aabb")
        assert reply["nonce"] != "aabb"
        assert coordinator.stats.workers_joined == 0  # not joined yet

    def test_correct_mac_joins(self):
        from repro.core.distrib import _auth_mac
        campaign, coordinator, _ = make_coordinator(dist_secret="hunter2")
        conn = _Conn(None)
        with coordinator.lock:
            challenge = coordinator._handle_message(conn, hello_message())
            welcome = coordinator._handle_message(conn, {
                "kind": "auth",
                "mac": _auth_mac("hunter2", "worker", challenge["nonce"])})
        assert welcome["kind"] == "welcome"
        assert welcome["digest"] == corpus_digest(campaign)
        assert coordinator.stats.workers_joined == 1
        assert coordinator.stats.auth_rejects == 0

    def test_wrong_mac_rejected_and_counted(self):
        _, coordinator, _ = make_coordinator(dist_secret="hunter2")
        conn = _Conn(None)
        with coordinator.lock:
            coordinator._handle_message(conn, hello_message())
            reply = coordinator._handle_message(
                conn, {"kind": "auth", "mac": "0" * 64})
        assert reply["kind"] == "reject"
        assert coordinator.stats.auth_rejects == 1
        assert coordinator.stats.workers_joined == 0
        # the stale challenge is spent: a retry cannot reuse it
        with coordinator.lock:
            again = coordinator._handle_message(
                conn, {"kind": "auth", "mac": "0" * 64})
        assert again["kind"] == "reject"

    def test_unsolicited_auth_rejected(self):
        _, coordinator, _ = make_coordinator()
        with coordinator.lock:
            reply = coordinator._handle_message(
                _Conn(None), {"kind": "auth", "mac": "whatever"})
        assert reply["kind"] == "reject"

    def test_fetch_without_completing_auth_rejected(self):
        _, coordinator, _ = make_coordinator(dist_secret="hunter2")
        conn = _Conn(None)
        with coordinator.lock:
            coordinator._handle_message(conn, hello_message())
        assert fetch(coordinator, conn)["kind"] == "reject"

    def test_secret_never_journaled(self):
        config = decoupled_config(dist_secret="hunter2")
        settings = config.checkpoint_settings()
        assert "hunter2" not in json.dumps(settings)


# ---------------------------------------------------------------------------
# the worker's config: the coordinator's journaled settings, all of them
# ---------------------------------------------------------------------------
#: checkpoint_settings() key -> coordinator config fields that move it
#: off its default.
OFF_DEFAULT_SETTINGS = {
    "alpha": {"alpha": 0.01},
    "max_trials": {"max_trials": 7},
    "blacklist_threshold": {"blacklist_threshold": 999},
    "max_value_pairs": {"max_value_pairs": 2},
    "max_pool_size": {"max_pool_size": 4},
    "disable_ipc_sharing": {"disable_ipc_sharing": True},
    "only_params": {"only_params": frozenset({"b", "a"})},
    "fault_plan": {"fault_plan": FaultPlan(seed=3, drop_prob=0.1)},
    "infra_retries": {"infra_retries": 5},
    "watchdog_sim_s": {"watchdog_sim_s": 99.0},
    "exec_cache": {"exec_cache": True},
    "store": {"store_path": "coordinator-only-store"},
    "incremental": {"incremental": True},
    "sample": {"sample": "pairwise"},
    "sample_k": {"sample_k": 3},
    "sample_seed": {"sample_seed": 5},
}


class TestWorkerSettings:
    def test_table_covers_every_journaled_setting(self):
        assert set(OFF_DEFAULT_SETTINGS) == \
            set(CampaignConfig().checkpoint_settings())

    @pytest.mark.parametrize("key", sorted(OFF_DEFAULT_SETTINGS))
    def test_each_setting_reaches_the_worker(self, key):
        coordinator = CampaignConfig(**OFF_DEFAULT_SETTINGS[key])
        # the settings travel as JSON in the welcome frame
        shipped = json.loads(json.dumps(coordinator.checkpoint_settings()))
        worker = CampaignConfig(workers=2).with_settings(shipped)
        default = CampaignConfig()
        if key == "store":
            # store paths stay on their host; the accounting travels
            assert worker.store_path is None
            assert worker.exec_cache and not default.exec_cache
        else:
            assert getattr(worker, key) == getattr(coordinator, key) \
                != getattr(default, key)
        assert worker.workers == 2  # the worker's own execution shape

    def test_storeless_coordinator_idles_the_workers_store(self):
        shipped = CampaignConfig().checkpoint_settings()
        worker = CampaignConfig(store_path="w").with_settings(shipped)
        assert worker.store_path is None and not worker.exec_cache

    def test_unknown_setting_fails_loudly(self):
        shipped = dict(CampaignConfig().checkpoint_settings(), bogus=1)
        with pytest.raises(TypeError):
            CampaignConfig().with_settings(shipped)


# ---------------------------------------------------------------------------
# end-to-end: coordinator + in-process workers over real TCP
# ---------------------------------------------------------------------------
def run_distributed(n_workers=2, worker_kwargs=None, config_kwargs=None,
                    factory=synth_factory):
    port = _free_port()
    address = "127.0.0.1:%d" % port
    config_kwargs = dict(config_kwargs or {})
    config_kwargs.setdefault("dist_join_grace_s", 20.0)
    config = decoupled_config(distributed=address, **config_kwargs)
    campaign = synthetic_campaign(config=config)
    box = {}

    def run_campaign():
        box["report"] = campaign.run()

    campaign_thread = threading.Thread(target=run_campaign, daemon=True)
    campaign_thread.start()
    # Start workers only once the coordinator is listening: the synth
    # campaign is so short that a worker still in connect-refused
    # backoff can otherwise miss it entirely.
    deadline = time.monotonic() + 30
    while not campaign.distribution.listen and time.monotonic() < deadline:
        time.sleep(0.002)
    assert campaign.distribution.listen
    exit_codes = {}
    threads = []
    for i in range(n_workers):
        kwargs = dict(worker_kwargs.get(i, {}) if worker_kwargs else {})
        kwargs.setdefault("name", "w%d" % i)

        def target(i=i, kwargs=kwargs):
            exit_codes[i] = run_worker(address, campaign_factory=factory,
                                       **kwargs)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        threads.append(thread)
    campaign_thread.join(timeout=120)
    assert "report" in box, "campaign did not finish"
    for thread in threads:
        thread.join(timeout=60)
    return box["report"], campaign.distribution, exit_codes


def coordinator_events(report, name):
    return sum(1 for span in report.observation.spans
               if span.kind == "coordinator" and span.name == name)


def runner_events(report):
    return [(span.kind, span.name, span.sim_start, span.attrs)
            for span in report.observation.spans
            if span.kind in ("retry", "fault")]


@pytest.fixture(scope="module")
def serial_baseline():
    return full_dict(synthetic_campaign(config=decoupled_config()).run())


class TestDistributedEndToEnd:
    def test_two_workers_byte_identical_to_serial(self, serial_baseline):
        report, stats, exit_codes = run_distributed(n_workers=2)
        assert full_dict(report) == serial_baseline
        assert exit_codes == {0: EXIT_OK, 1: EXIT_OK}
        assert stats.enabled
        assert stats.workers_joined == 2
        assert stats.remote_profiles + stats.local_profiles \
            + stats.quarantined >= 1
        assert not stats.degraded_to_local
        assert sum(w.profiles for w in stats.fleet) == stats.remote_profiles

    def test_unnamed_worker_is_named_host_pid(self, serial_baseline):
        # the coordinator keys its fleet table by worker name, so the
        # default must tell two hosts' processes apart (`--name` help)
        report, stats, exit_codes = run_distributed(
            n_workers=1, worker_kwargs={0: {"name": ""}})
        assert full_dict(report) == serial_baseline
        assert exit_codes == {0: EXIT_OK}
        assert [row.worker for row in stats.fleet] == [
            "%s#%d" % (socket.gethostname(), os.getpid())]

    def test_worker_forks_one_fleet_member_per_slot(self, serial_baseline):
        # `repro worker --workers 2` runs no pool of its own: it forks two
        # lease clients, and the coordinator sees two fleet members
        report, stats, exit_codes = run_distributed(
            n_workers=1, worker_kwargs={0: {
                "worker_config": CampaignConfig(workers=2), "name": "w0"}})
        assert full_dict(report) == serial_baseline
        assert exit_codes == {0: EXIT_OK}
        assert stats.workers_joined == 2
        assert [row.worker for row in stats.fleet] == ["w0/0", "w0/1"]

    @pytest.mark.parametrize("coordinator,worker", [
        ({"sample": "pairwise"}, {}),
        ({"store_path": "cold-store"}, {}),
        ({}, {"store_path": "worker-store"}),
    ], ids=["sample-pairwise", "cold-store", "worker-store-only"])
    def test_remote_run_reports_what_a_local_one_does(self, tmp_path,
                                                      coordinator, worker):
        # what the coordinator's settings decide must be decided the same
        # way on the worker, whatever store the worker has
        def rooted(kwargs, name):
            return {key: str(tmp_path / name) if key == "store_path"
                    else value for key, value in kwargs.items()}

        local = app_report_to_dict(synthetic_campaign(
            config=decoupled_config(**rooted(coordinator, "local"))).run())
        report, stats, exit_codes = run_distributed(
            n_workers=1, config_kwargs=rooted(coordinator, "coordinator"),
            worker_kwargs={0: {"worker_config": CampaignConfig(
                **rooted(worker, "worker"))}})
        remote = app_report_to_dict(report)
        assert stats.remote_profiles > 0 and exit_codes == {0: EXIT_OK}
        assert findings_projection(remote) == findings_projection(local)
        assert remote["executions"] == local["executions"]
        assert remote["exec_cache"] == local["exec_cache"]

    def fleet_never_joins(self, serial_baseline, observe):
        report, stats, _ = run_distributed(
            n_workers=0, config_kwargs={"dist_join_grace_s": 0.3,
                                        "observe": observe})
        assert full_dict(report) == serial_baseline
        assert stats.degraded_to_local
        assert stats.remote_profiles == 0
        assert stats.local_profiles > 0
        return report

    def test_fleet_never_joins_degrades_to_local(self, serial_baseline):
        self.fleet_never_joins(serial_baseline, observe=False)

    def test_fleet_never_joins_degrades_to_local_observed(self,
                                                          serial_baseline):
        # a coordinator event must not crash an observed campaign
        report = self.fleet_never_joins(serial_baseline, observe=True)
        assert coordinator_events(report, "dist-degraded") == 1

    def test_partitioned_worker_redelivers_to_survivor(self,
                                                       serial_baseline):
        # worker 0's link lets hello + one fetch through, then severs:
        # its first result is lost mid-lease and it never reconnects, so
        # the lease must be redelivered to worker 1.
        report, stats, exit_codes = run_distributed(
            n_workers=2,
            worker_kwargs={0: {"net_fault_plan":
                               net.NetFaultPlan(partition_after=2),
                               "max_reconnects": 0}})
        assert full_dict(report) == serial_baseline
        assert exit_codes[0] == EXIT_RECONNECTS_EXHAUSTED
        assert exit_codes[1] == EXIT_OK
        assert stats.workers_lost >= 1
        assert not stats.degraded_to_local

    def test_coordinator_side_partition_is_counted(self, serial_baseline):
        # the coordinator's own links sever after every 5 frames it
        # sends: the worker reconnects and finishes, and the coordinator
        # counts each injected fault in its report and its metrics
        report, stats, exit_codes = run_distributed(
            n_workers=1, worker_kwargs={0: {"max_reconnects": 10}},
            config_kwargs={"net_fault_plan":
                           net.NetFaultPlan(partition_after=5),
                           "observe": True, "dist_join_grace_s": 30.0})
        assert full_dict(report) == serial_baseline
        assert exit_codes == {0: EXIT_OK}
        assert stats.net_faults.get("partition", 0) >= 1
        assert report.observation.metrics.total("zc_dist_net_faults_total") \
            == sum(stats.net_faults.values())
        assert not stats.degraded_to_local

    def test_flapping_partition_single_worker_reconnects(self,
                                                         serial_baseline):
        # every connection dies after 5 frames; the worker reconnects
        # with backoff, resends unacked results, and still finishes.
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            worker_kwargs={0: {"net_fault_plan":
                               net.NetFaultPlan(partition_after=5),
                               "max_reconnects": 10}},
            config_kwargs={"dist_join_grace_s": 30.0})
        assert full_dict(report) == serial_baseline
        assert stats.workers_joined >= 2  # at least one reconnect
        assert not stats.degraded_to_local

    def whole_fleet_lost(self, serial_baseline, observe):
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            worker_kwargs={0: {"net_fault_plan":
                               net.NetFaultPlan(partition_after=8),
                               "max_reconnects": 0}},
            config_kwargs={"dist_join_grace_s": 1.0, "observe": observe})
        assert full_dict(report) == serial_baseline
        assert exit_codes[0] == EXIT_RECONNECTS_EXHAUSTED
        assert stats.degraded_to_local
        assert stats.local_profiles > 0
        return report

    def test_whole_fleet_lost_degrades_and_finishes(self, serial_baseline):
        self.whole_fleet_lost(serial_baseline, observe=False)

    def test_whole_fleet_lost_degrades_and_finishes_observed(
            self, serial_baseline):
        report = self.whole_fleet_lost(serial_baseline, observe=True)
        assert coordinator_events(report, "dist-worker-lost") >= 1
        assert coordinator_events(report, "dist-degraded") == 1

    def test_remote_workers_ship_runner_events(self):
        # the runner's retry/fault events reach the parent inside the
        # remote profiles' spans, exactly as a serial run records them
        settings = {"observe": True,
                    "fault_plan": FaultPlan(seed=5, infra_error_prob=0.3)}
        report, stats, _ = run_distributed(n_workers=1,
                                           config_kwargs=settings)
        serial = synthetic_campaign(config=decoupled_config(**settings)).run()
        assert stats.remote_profiles > 0
        events = runner_events(report)
        assert {kind for kind, _, _, _ in events} == {"retry", "fault"}
        assert events == runner_events(serial)

    def test_authenticated_fleet_byte_identical_to_serial(
            self, serial_baseline):
        secret = CampaignConfig(dist_secret="fleet-secret")
        report, stats, exit_codes = run_distributed(
            n_workers=2,
            worker_kwargs={0: {"worker_config": secret},
                           1: {"worker_config": secret}},
            config_kwargs={"dist_secret": "fleet-secret"})
        assert full_dict(report) == serial_baseline
        assert exit_codes == {0: EXIT_OK, 1: EXIT_OK}
        assert stats.workers_joined == 2
        assert stats.auth_rejects == 0

    def test_secretless_worker_refused_by_secret_coordinator(
            self, serial_baseline):
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            config_kwargs={"dist_secret": "fleet-secret",
                           "dist_join_grace_s": 1.0})
        # the worker walks away at the challenge (it has nothing to
        # prove with), so the coordinator never even counts a reject
        assert exit_codes[0] == EXIT_REJECTED
        assert stats.remote_profiles == 0
        assert full_dict(report) == serial_baseline

    def test_wrong_secret_worker_refused(self, serial_baseline):
        # mutual verification: the worker checks the coordinator's proof
        # first, sees a mac built from a different secret, and refuses
        # before ever answering the challenge.
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            worker_kwargs={0: {"worker_config":
                               CampaignConfig(dist_secret="wrong")}},
            config_kwargs={"dist_secret": "fleet-secret",
                           "dist_join_grace_s": 1.0})
        assert exit_codes[0] == EXIT_REJECTED
        assert stats.remote_profiles == 0
        assert full_dict(report) == serial_baseline

    def test_secret_worker_refuses_open_coordinator(self, serial_baseline):
        # mutual auth: the worker will not ship results to a coordinator
        # that cannot prove secret knowledge.
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            worker_kwargs={0: {"worker_config":
                               CampaignConfig(dist_secret="mine")}},
            config_kwargs={"dist_join_grace_s": 1.0})
        assert exit_codes[0] == EXIT_REJECTED
        assert stats.remote_profiles == 0
        assert full_dict(report) == serial_baseline

    def test_worker_with_skewed_corpus_refused(self, serial_baseline):
        def skewed(app, config):
            return Campaign("synth", SYNTH_REGISTRY,
                            tests=[two_service_test()], config=config)

        report, stats, exit_codes = run_distributed(
            n_workers=1, factory=skewed,
            config_kwargs={"dist_join_grace_s": 1.0})
        assert exit_codes[0] == EXIT_REJECTED
        # nothing the skewed worker did can have touched the findings
        assert full_dict(report) == serial_baseline
        assert stats.remote_profiles == 0

    def test_distributed_checkpoint_resumes_serially(self, tmp_path,
                                                     serial_baseline):
        journal = str(tmp_path / "dist.ckpt.jsonl")
        report, stats, _ = run_distributed(
            n_workers=2, config_kwargs={"checkpoint_path": journal})
        assert full_dict(report) == serial_baseline
        # the journal is the campaign's only durable state: nothing
        # (no scheduling weights, no lock file) is left beside it
        assert os.listdir(tmp_path) == ["dist.ckpt.jsonl"]
        resumed = synthetic_campaign(
            config=decoupled_config(checkpoint_path=journal)).run()
        assert full_dict(resumed) == serial_baseline

    def test_fleet_section_renders_in_markdown(self):
        from repro.core.reportmd import app_report_markdown
        report, _, _ = run_distributed(n_workers=2)
        text = app_report_markdown(report)
        assert "## Fleet" in text
        assert "workers joined" in text

    def test_dist_metrics_fold_into_snapshot(self):
        report, stats, _ = run_distributed(
            n_workers=2, config_kwargs={"observe": True})
        metrics = report.observation.metrics
        assert metrics.total("zc_dist_workers_joined_total") == \
            stats.workers_joined
        assert metrics.total("zc_dist_remote_profiles_total") == \
            stats.remote_profiles
        rendered = metrics.render_prometheus(include_volatile=True)
        assert "zc_dist_workers_joined_total" in rendered


# ---------------------------------------------------------------------------
# chaos: real app, subprocess workers, SIGKILL mid-lease
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosSubprocessFleet:
    def test_sigkill_mid_campaign_stays_byte_identical(self):
        app = "mapreduce"
        from repro.apps import catalog
        spec = catalog.spec_for(app)

        def fresh(**kw):
            return Campaign(app, spec.registry,
                            dependency_rules=spec.dependency_rules,
                            config=decoupled_config(**kw))

        serial = full_dict(fresh().run())

        port = _free_port()
        address = "127.0.0.1:%d" % port
        campaign = fresh(distributed=address, dist_join_grace_s=60.0)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", address, "--name", "w%d" % i, "--workers", "1"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for i in range(2)]

        def kill_when_working():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if campaign.distribution.remote_profiles >= 1:
                    workers[0].send_signal(signal.SIGKILL)
                    return
                time.sleep(0.005)

        killer = threading.Thread(target=kill_when_working, daemon=True)
        killer.start()
        try:
            report = campaign.run()
        finally:
            for proc in workers:
                proc.kill()
                proc.wait(timeout=30)
        killer.join(timeout=5)
        assert full_dict(report) == serial
        stats = campaign.distribution
        assert stats.workers_joined >= 2
        assert stats.workers_lost >= 1
        assert not stats.degraded_to_local
