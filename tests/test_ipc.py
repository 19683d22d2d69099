"""Unit tests for the RPC layer and the shared-IPC quirk."""

from __future__ import annotations

import enum
import threading

import pytest

from repro.common import ipc as ipc_module
from repro.common.configuration import Configuration
from repro.common.errors import RpcError, SaslError, SocketTimeout
from repro.common.faults import FaultInjector, FaultPlan, fault_scope
from repro.common.ipc import (IPC_SHARED_PARAMS, IpcComponent, RpcClient,
                              RpcServer, ipc_sharing_enabled, set_ipc_sharing)
from repro.common.params import DURATION_MS, ENUM, INT, ParamRegistry
from repro.common.simulation import Simulator
from repro.common.wire import decode_payload, encode_payload
from repro.core.confagent import ConfAgent


def make_conf_class():
    registry = ParamRegistry("ipctest")
    registry.define("hadoop.rpc.protection", ENUM, "authentication",
                    values=("authentication", "integrity", "privacy"))
    registry.define("ipc.client.rpc-timeout.ms", DURATION_MS, 0)
    for name in IPC_SHARED_PARAMS:
        registry.define(name, INT, 10)

    class IpcTestConfiguration(Configuration):
        pass

    IpcTestConfiguration.registry = registry
    return IpcTestConfiguration


@pytest.fixture()
def conf_class():
    return make_conf_class()


def make_endpoints(conf_class, client_overrides=None, server_overrides=None):
    client_conf = conf_class()
    server_conf = conf_class()
    for name, value in (client_overrides or {}).items():
        client_conf.set(name, value)
    for name, value in (server_overrides or {}).items():
        server_conf.set(name, value)
    server = RpcServer("TestServer", server_conf)
    server.register("echo", lambda value: value)
    server.register("add", lambda a, b: a + b)
    return RpcClient(client_conf), server


class TestRpcCall:
    def test_round_trip(self, conf_class):
        client, server = make_endpoints(conf_class)
        assert client.call(server, "echo", {"k": [1, 2]}) == {"k": [1, 2]}
        assert client.call(server, "add", 2, 3) == 5
        assert server.calls_served == 2

    def test_unknown_method(self, conf_class):
        client, server = make_endpoints(conf_class)
        with pytest.raises(RpcError):
            client.call(server, "nope")

    @pytest.mark.parametrize("level", ("authentication", "integrity",
                                       "privacy"))
    def test_matching_protection_works(self, conf_class, level):
        client, server = make_endpoints(
            conf_class, {"hadoop.rpc.protection": level},
            {"hadoop.rpc.protection": level})
        assert client.call(server, "echo", "x") == "x"

    def test_protection_mismatch_fails(self, conf_class):
        client, server = make_endpoints(
            conf_class, {"hadoop.rpc.protection": "privacy"},
            {"hadoop.rpc.protection": "authentication"})
        with pytest.raises(SaslError):
            client.call(server, "echo", "x")


class _Qop(enum.IntEnum):
    AUTH = 1
    PRIVACY = 3


def _shape(obj):
    """Value, exact type and dict key order, recursively."""
    if isinstance(obj, dict):
        return ("dict", [(type(k), k, _shape(v)) for k, v in obj.items()])
    if isinstance(obj, list):
        return ("list", [_shape(item) for item in obj])
    return (type(obj), obj)


#: arguments and results an RPC must carry exactly as the wire would
RPC_PAYLOADS = [
    7, 2.5, True, None, "text",
    ("a", (1, 2.0)),
    {"z": {"y": [1, {"d": 0, "c": False}]}, "a": (None, "s")},
    _Qop.PRIVACY,
    {"qop": _Qop.AUTH, "levels": [_Qop.PRIVACY, 7]},
    {2: "two", 1: {10: "ten", 3: "three"}},
]


class TestRpcPayloadCopy:
    """The handler and the caller each get a fresh copy of the payload,
    equal in value, type and key order to encoding it with the endpoint's
    wire options and decoding it back."""

    @pytest.mark.parametrize("level", ("authentication", "privacy"))
    @pytest.mark.parametrize("payload", RPC_PAYLOADS)
    def test_handler_and_caller_see_the_wire_copy(self, conf_class, level,
                                                  payload):
        client, server = make_endpoints(
            conf_class, {"hadoop.rpc.protection": level},
            {"hadoop.rpc.protection": level})
        received = []

        def handler(*args):
            received.append(args)
            return payload

        server.register("take", handler)
        result = client.call(server, "take", payload, "tail")
        opts = ipc_module._wire_opts(level)
        expected_args = decode_payload(
            encode_payload([payload, "tail"], **opts), **opts)
        assert _shape(list(received[0])) == _shape(expected_args)
        expected_result = decode_payload(encode_payload(payload, **opts),
                                         **opts)
        assert _shape(result) == _shape(expected_result)

    @pytest.mark.parametrize("level", ("authentication", "privacy"))
    def test_unserialisable_payloads_raise_the_same_type_error(
            self, conf_class, level):
        client, server = make_endpoints(
            conf_class, {"hadoop.rpc.protection": level},
            {"hadoop.rpc.protection": level})
        opaque = object()
        server.register("echo", lambda value: value)
        server.register("opaque", lambda: opaque)
        with pytest.raises(TypeError) as expected:
            encode_payload(opaque)
        with pytest.raises(TypeError) as raised:
            client.call(server, "echo", opaque)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(TypeError) as raised:
            client.call(server, "opaque")
        assert str(raised.value) == str(expected.value)

    def test_faults_carry_the_rpc_label(self, conf_class):
        client, server = make_endpoints(conf_class)
        dispatched = []
        server.register("count", lambda n: dispatched.append(n) or n)
        events = []
        injector = FaultInjector(
            FaultPlan(seed=3, drop_prob=0.3, duplicate_prob=0.3), seed=11,
            on_fault=lambda kind, data: events.append((kind, data)))
        delivered = []
        with fault_scope(injector):
            for n in range(40):
                try:
                    assert client.call(server, "count", n) == n
                except SocketTimeout as exc:
                    assert "rpc TestServer.count" in str(exc)
                else:
                    delivered.append(n)
        kinds = [kind for kind, _ in events]
        assert "drop" in kinds and "duplicate" in kinds
        assert all(data["what"] == "rpc TestServer.count"
                   for _, data in events)
        # a duplicated request reaches the handler twice
        duplicates = kinds.count("duplicate")
        assert len(dispatched) == len(delivered) + duplicates
        assert sorted(set(dispatched)) == delivered


class TestTimedCalls:
    def run_timed(self, conf_class, client_timeout_ms, server_timeout_ms,
                  duration):
        sim = Simulator()
        client, server = make_endpoints(
            conf_class, {"ipc.client.rpc-timeout.ms": client_timeout_ms},
            {"ipc.client.rpc-timeout.ms": server_timeout_ms})
        return sim.run_process(
            client.call_timed(server, "echo", ("ok",), duration=duration))

    def test_fast_call_unaffected(self, conf_class):
        assert self.run_timed(conf_class, 1000, 0, duration=0.3) == "ok"

    def test_no_timeout_waits_forever(self, conf_class):
        assert self.run_timed(conf_class, 0, 0, duration=500.0) == "ok"

    def test_matching_short_timeouts_keepalive_saves_call(self, conf_class):
        # server keepalive = timeout/2 = 0.5s < client deadline 1s
        assert self.run_timed(conf_class, 1000, 1000, duration=300.0) == "ok"

    def test_client_short_server_default_times_out(self, conf_class):
        # the Table-3 failure: server paces at 60s, client waits 1s
        with pytest.raises(SocketTimeout):
            self.run_timed(conf_class, 1000, 0, duration=300.0)

    def test_client_short_server_long_times_out(self, conf_class):
        with pytest.raises(SocketTimeout):
            self.run_timed(conf_class, 1000, 120000, duration=300.0)

    def test_client_long_server_short_is_fine(self, conf_class):
        assert self.run_timed(conf_class, 120000, 1000, duration=300.0) == "ok"

    def test_handler_gets_a_copy_of_the_arguments(self, conf_class):
        client, server = make_endpoints(conf_class)
        received = []

        def handler(items, pair):
            items.append("server")
            received.append(pair)
            return len(items)

        server.register("mutate", handler)
        items = ["client"]
        result = Simulator().run_process(client.call_timed(
            server, "mutate", (items, ("a", 1)), duration=0.3))
        assert result == 2
        assert items == ["client"]  # the caller's list is untouched
        assert received == [["a", 1]] and type(received[0]) is list


class TestSharedIpcComponent:
    def test_sharing_flag_toggles(self):
        previous = set_ipc_sharing(False)
        try:
            assert not ipc_sharing_enabled()
        finally:
            set_ipc_sharing(previous)

    def test_a_setting_stays_in_its_own_thread(self):
        held, checked = threading.Event(), threading.Event()
        seen = []

        def other():
            previous = set_ipc_sharing(False)
            try:
                seen.append(ipc_sharing_enabled())
                held.set()
                checked.wait(timeout=30)
            finally:
                set_ipc_sharing(previous)

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert held.wait(timeout=30)
            assert ipc_sharing_enabled()
        finally:
            checked.set()
            thread.join(timeout=30)
        assert seen == [False]

    def test_two_campaigns_in_two_threads_keep_their_own_setting(self):
        # As `repro serve` runs jobs: the fixed campaign's later profiles
        # run while the shared one is mid-run in another thread.
        from repro.apps import catalog
        from repro.core.orchestrator import Campaign, CampaignConfig
        from repro.core.report import app_report_to_dict, findings_projection
        spec = catalog.spec_for("hadooptools")

        def findings(disable, hook=None):
            report = Campaign("hadooptools", spec.registry,
                              dependency_rules=spec.dependency_rules,
                              config=CampaignConfig(
                                  disable_ipc_sharing=disable,
                                  progress_hook=hook)).run()
            return findings_projection(app_report_to_dict(report))

        solo = {disable: findings(disable) for disable in (False, True)}
        assert solo[False] != solo[True]
        fixed_paused, shared_paused = threading.Event(), threading.Event()
        fixed_done = threading.Event()
        together = {}

        def pause_fixed(snapshot):
            fixed_paused.set()
            shared_paused.wait(timeout=30)

        def pause_shared(snapshot):
            shared_paused.set()
            fixed_done.wait(timeout=30)

        def run_fixed():
            try:
                together[True] = findings(True, pause_fixed)
            finally:
                fixed_done.set()

        fixed = threading.Thread(target=run_fixed)
        shared = threading.Thread(target=lambda: together.update(
            {False: findings(False, pause_shared)}))
        fixed.start()
        assert fixed_paused.wait(timeout=60)
        shared.start()
        for thread in (fixed, shared):
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert together == solo

    def test_consistent_values_pass_cross_check(self, conf_class):
        ipc = IpcComponent(conf_class, shared=True)
        ipc.check_connection_params(conf_class())
        assert ipc.cross_check_failures == 0

    def test_heterogeneous_view_trips_cross_check(self, conf_class):
        """Simulates ConfAgent giving the caller's conf a different value
        than the component's own conf: the spurious failure behind the
        paper's four IPC false positives."""
        ipc = IpcComponent(conf_class, shared=True)
        caller = conf_class()
        caller.set("ipc.client.connect.max.retries", 1000)
        with pytest.raises(RpcError):
            ipc.check_connection_params(caller)
        assert ipc.cross_check_failures == 1

    def test_sharing_disabled_is_immune(self, conf_class):
        """The paper's one-line Hadoop fix."""
        ipc = IpcComponent(conf_class, shared=False)
        caller = conf_class()
        caller.set("ipc.client.connect.max.retries", 1000)
        ipc.check_connection_params(caller)
        assert ipc.cross_check_failures == 0

    def test_rpc_client_consults_component(self, conf_class):
        ipc = IpcComponent(conf_class, shared=True)
        client_conf = conf_class()
        client_conf.set("ipc.client.kill.max", 99)
        server = RpcServer("S", conf_class())
        server.register("echo", lambda v: v)
        client = RpcClient(client_conf, ipc=ipc)
        with pytest.raises(RpcError):
            client.call(server, "echo", 1)


class TestCrossCheckMemo:
    """The memo on IpcComponent.check_connection_params must be an
    invisible optimisation: passed checks are skipped on repeat, but any
    write to either conf (or any agent ownership change) re-runs the full
    cross-check, and failures always raise and count."""

    def test_repeat_check_skips_the_gets(self, conf_class):
        ipc = IpcComponent(conf_class, shared=True)
        caller = conf_class()
        ipc.check_connection_params(caller)

        def boom(name):
            raise AssertionError("memoised check must not re-read %s" % name)

        caller.get = boom  # instance shadow: any get would blow up
        ipc.check_connection_params(caller)

    def test_caller_write_invalidates_memo(self, conf_class):
        ipc = IpcComponent(conf_class, shared=True)
        caller = conf_class()
        ipc.check_connection_params(caller)
        caller.set("ipc.client.kill.max", 99)
        with pytest.raises(RpcError):
            ipc.check_connection_params(caller)
        assert ipc.cross_check_failures == 1

    def test_component_conf_write_invalidates_memo(self, conf_class):
        ipc = IpcComponent(conf_class, shared=True)
        caller = conf_class()
        ipc.check_connection_params(caller)
        ipc._own_conf.set("ipc.client.idlethreshold", 77)
        with pytest.raises(RpcError):
            ipc.check_connection_params(caller)
        assert ipc.cross_check_failures == 1

    def test_failures_are_never_memoised(self, conf_class):
        ipc = IpcComponent(conf_class, shared=True)
        caller = conf_class()
        caller.set("ipc.client.connect.max.retries", 1000)
        for expected in (1, 2, 3):
            with pytest.raises(RpcError):
                ipc.check_connection_params(caller)
            assert ipc.cross_check_failures == expected
        assert not ipc._check_memo

    def test_record_usage_agent_disables_memo(self, conf_class):
        ipc = IpcComponent(conf_class, shared=True)
        caller = conf_class()
        with ConfAgent(record_usage=True):
            ipc.check_connection_params(caller)
            assert not ipc._check_memo

    def test_agent_ownership_change_invalidates_memo(self, conf_class):
        ipc = IpcComponent(conf_class, shared=True)
        caller = conf_class()
        with ConfAgent() as agent:
            ipc.check_connection_params(caller)
            assert ipc._check_memo
            agent.ownership_epoch += 1  # what any _forget_conf does
            reads = []
            real_get = caller.get
            caller.get = lambda name: (reads.append(name), real_get(name))[1]
            ipc.check_connection_params(caller)
            assert reads  # stale memo discarded: the cross-check re-ran
