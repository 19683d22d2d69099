"""Fault injection: determinism, statistical robustness, runner hardening.

The chaos mini-app below runs on the full substrate (MiniCluster + Node +
RPC), so every injector hook fires for real: message drops/duplicates hit
:mod:`repro.common.ipc`, crash/restart cycles hit the node lifecycle, and
clock jitter perturbs the simulator.  ``chaos.window`` is planted
heterogeneous-unsafe; ``chaos.buffer`` is safe, so anything reported
against it under chaos is an injected false positive the hypothesis
testing must dismiss.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import pytest

from repro.common.cluster import MiniCluster
from repro.common.configuration import Configuration
from repro.common.errors import InfrastructureError, TestFailure
from repro.common.faults import (EXECUTION_FAULT_KINDS, FAULT_KINDS,
                                 NET_FAULT_KINDS, DiskFaultPlan,
                                 FaultInjector, FaultPlan, NetFaultPlan,
                                 check_faults, current_injector,
                                 fault_scope, plan_from_dict)
from repro.common.ipc import RpcClient, RpcServer
from repro.common.node import Node, node_init, register_node_type
from repro.common.params import ENUM, INT, ParamRegistry
from repro.common.simulation import (SimTimeLimitExceeded, Simulator,
                                     sim_time_limit)
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.registry import TestContext, UnitTest
from repro.core.report import app_report_to_dict
from repro.core.runner import INFRA_ERROR, TestRunner
from repro.core.testgen import HeteroAssignment, ParamAssignment, TestInstance

# ---------------------------------------------------------------------------
# the chaos mini-app
# ---------------------------------------------------------------------------
CHAOS_REGISTRY = ParamRegistry("chaos")
CHAOS_REGISTRY.define("chaos.window", INT, 100, candidates=(100, 10000))
CHAOS_REGISTRY.define("chaos.buffer", INT, 4096, candidates=(4096, 65536))
# read by the RPC substrate during the SASL handshake; campaigns below
# restrict testing to the chaos.* parameters, so it only needs a default.
CHAOS_REGISTRY.define("hadoop.rpc.protection", ENUM, "authentication",
                      values=("authentication", "integrity", "privacy"))

register_node_type("chaos", "Worker")


class ChaosConfiguration(Configuration):
    registry = CHAOS_REGISTRY


class Worker(Node):
    node_type = "Worker"

    def __init__(self, conf: Configuration, cluster: MiniCluster) -> None:
        with node_init(self):
            super().__init__(conf, cluster)
            self.window = self.conf.get_int("chaos.window")
            self.buffer = self.conf.get_int("chaos.buffer")
            self.server = RpcServer("Worker", self.conf)
            self.server.register("window", lambda: self.window)
        self.start()


def chaos_test(name: str = "TestChaos.testWindowAgreement") -> UnitTest:
    """Two workers must agree on chaos.window with the unit test's view."""

    def body(ctx: TestContext) -> None:
        conf = ChaosConfiguration()
        with MiniCluster() as cluster:
            first = cluster.add_node(Worker(conf, cluster))
            second = cluster.add_node(Worker(conf, cluster))
            cluster.run_for(30.0)  # a crash window for injected faults
            if not (first.running and second.running):
                return  # a node crashed: nothing to compare this round
            client = RpcClient(first.conf)
            peer_window = client.call(second.server, "window")
            test_view = conf.get_int("chaos.window")
            if first.window != peer_window or peer_window != test_view:
                raise TestFailure("chaos.window mismatch across entities")

    return UnitTest(app="chaos", name=name, fn=body)


def chaos_campaign(fault_plan=None, tests: int = 12, **config_kwargs):
    config_kwargs.setdefault("only_params",
                             frozenset(("chaos.window", "chaos.buffer")))
    config = CampaignConfig(fault_plan=fault_plan, **config_kwargs)
    corpus = [chaos_test(name="TestChaos.testWindowAgreement%02d" % index)
              for index in range(tests)]
    return Campaign("chaos", CHAOS_REGISTRY, tests=corpus, config=config)


def chaos_instance(param: str = "chaos.window") -> TestInstance:
    assignment = HeteroAssignment((ParamAssignment(
        param=param, group="Worker", group_values=(100, 10000),
        other_value=10000),))
    return TestInstance(test=chaos_test(), group="Worker",
                        strategy="round-robin", assignment=assignment)


# ---------------------------------------------------------------------------
# injector determinism
# ---------------------------------------------------------------------------
class TestInjectorDeterminism:
    def drain(self, injector: FaultInjector, n: int = 200):
        return ([injector.drop_message("m%d" % i) for i in range(n)],
                [injector.message_delay("m%d" % i) for i in range(n)],
                [injector.duplicate_message("m%d" % i) for i in range(n)],
                [injector.io_slowdown() for _ in range(n)],
                [injector.clock_jitter(1.0) for _ in range(n)])

    def test_same_seed_identical_schedule(self):
        plan = FaultPlan.moderate(seed=42)
        assert self.drain(FaultInjector(plan, 7)) == \
            self.drain(FaultInjector(plan, 7))

    def test_different_seed_different_schedule(self):
        plan = FaultPlan.moderate(seed=42)
        assert self.drain(FaultInjector(plan, 7)) != \
            self.drain(FaultInjector(plan, 8))

    def test_inert_plan_is_inactive(self):
        assert not FaultPlan().active
        assert FaultPlan.moderate().active

    def test_null_injector_outside_scope(self):
        injector = current_injector()
        assert not injector.active
        assert not injector.drop_message("x")
        assert injector.io_slowdown() == 1.0

    def test_fault_scope_activates_and_restores(self):
        injector = FaultInjector(FaultPlan.moderate(1), 1)
        with fault_scope(injector):
            assert current_injector() is injector
        assert not current_injector().active

    def test_counts_track_emissions(self):
        plan = FaultPlan(seed=1, drop_prob=1.0)
        injector = FaultInjector(plan, 1)
        assert injector.drop_message("a") and injector.drop_message("b")
        assert injector.counts["drop"] == 2
        assert injector.total_faults == 2


# ---------------------------------------------------------------------------
# kernel support
# ---------------------------------------------------------------------------
class TestWatchdog:
    def test_time_limit_stops_runaway_simulation(self):
        def forever():
            while True:
                yield 1.0

        with sim_time_limit(100.0):
            sim = Simulator()
            sim.spawn(forever())
            with pytest.raises(SimTimeLimitExceeded):
                sim.run(max_time=1e9)
        assert sim.now == pytest.approx(100.0)

    def test_no_limit_by_default(self):
        assert Simulator().time_limit is None

    def test_clock_jitter_rescales_delays(self):
        plan = FaultPlan(seed=3, clock_jitter=0.2)
        injector = FaultInjector(plan, 3)
        with fault_scope(injector):
            sim = Simulator()
            injector.attach_clock(sim)
            fired = []
            sim.schedule(10.0, lambda: fired.append(sim.now))
            sim.run()
        assert fired and 8.0 <= fired[0] <= 12.0
        assert fired[0] != 10.0


# ---------------------------------------------------------------------------
# node lifecycle faults
# ---------------------------------------------------------------------------
class TestNodeFaults:
    def test_crash_prob_one_crashes_and_restarts_nodes(self):
        plan = FaultPlan(seed=5, crash_prob=1.0, crash_window_s=(1.0, 5.0),
                         restart_delay_s=(1.0, 2.0))
        injector = FaultInjector(plan, 5)
        with fault_scope(injector):
            conf = ChaosConfiguration()
            with MiniCluster() as cluster:
                worker = cluster.add_node(Worker(conf, cluster))
                cluster.run_for(20.0)
                assert worker.crashes == 1
                assert worker.running  # restarted after the outage
        assert injector.counts["crash"] == 1
        assert injector.counts["restart"] == 1

    def test_crash_prob_zero_never_crashes(self):
        injector = FaultInjector(FaultPlan(seed=5, drop_prob=0.5), 5)
        with fault_scope(injector):
            conf = ChaosConfiguration()
            with MiniCluster() as cluster:
                worker = cluster.add_node(Worker(conf, cluster))
                cluster.run_for(20.0)
                assert worker.crashes == 0


# ---------------------------------------------------------------------------
# runner hardening
# ---------------------------------------------------------------------------
class TestRunnerHardening:
    def test_watchdog_produces_timeout_outcome(self):
        def runaway(ctx):
            sim = Simulator()

            def forever():
                while True:
                    yield 3600.0

            sim.spawn(forever())
            sim.run(max_time=1e12)

        test = UnitTest(app="chaos", name="TestChaos.testRunaway", fn=runaway)
        runner = TestRunner(watchdog_sim_s=1000.0)
        outcome = runner.execute(test, None, seed=1)
        assert outcome.failed and outcome.timed_out
        assert outcome.error_type == "TestTimeout"
        assert not outcome.infra  # a timeout is oracle evidence, not infra

    def test_infra_errors_are_retried_with_backoff(self):
        attempts = []

        def flaky_harness(ctx):
            attempts.append(1)
            if len(attempts) < 3:
                raise InfrastructureError("container lost")

        test = UnitTest(app="chaos", name="TestChaos.testInfra",
                        fn=flaky_harness)
        runner = TestRunner(infra_retries=2)
        outcome = runner.execute(test, None, seed=1)
        assert outcome.ok
        assert outcome.retries == 2
        assert runner.retries_performed == 2
        assert runner.backoff_cost_s > 0
        assert runner.machine_time_s > 3 * runner.run_cost_s

    def test_infra_retries_exhausted_reports_infra(self):
        def dead_harness(ctx):
            raise InfrastructureError("rack on fire")

        test = UnitTest(app="chaos", name="TestChaos.testDead",
                        fn=dead_harness)
        runner = TestRunner(infra_retries=1)
        outcome = runner.execute(test, None, seed=1)
        assert outcome.failed and outcome.infra
        assert outcome.retries == 1

    def test_infra_error_yields_infra_verdict_not_unsafe(self):
        plan = FaultPlan(seed=1, infra_error_prob=1.0)
        runner = TestRunner(fault_plan=plan, infra_retries=1)
        result = runner.evaluate(chaos_instance())
        assert result.verdict == INFRA_ERROR

    def test_oracle_failures_never_retried(self):
        calls = []

        def failing(ctx):
            calls.append(1)
            raise TestFailure("real assertion failure")

        test = UnitTest(app="chaos", name="TestChaos.testOracle", fn=failing)
        runner = TestRunner(infra_retries=3)
        outcome = runner.execute(test, None, seed=1)
        assert outcome.failed and not outcome.infra
        assert len(calls) == 1

    def test_fault_counts_aggregate_on_runner(self):
        plan = FaultPlan(seed=2, drop_prob=0.5)
        runner = TestRunner(fault_plan=plan)
        runner.evaluate(chaos_instance())
        assert runner.fault_counts.get("drop", 0) > 0


# ---------------------------------------------------------------------------
# campaigns under chaos
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosCampaign:
    PLAN = FaultPlan(seed=11, drop_prob=0.15, delay_prob=0.1,
                     duplicate_prob=0.02, crash_prob=0.05,
                     io_slowdown_prob=0.05, clock_jitter=0.02,
                     infra_error_prob=0.01)

    @pytest.fixture(scope="class")
    def report(self):
        return chaos_campaign(fault_plan=self.PLAN).run()

    def test_same_seed_chaos_campaign_is_bit_reproducible(self, report):
        again = chaos_campaign(fault_plan=self.PLAN).run()
        assert app_report_to_dict(again) == app_report_to_dict(report)

    def test_unsafe_param_still_confirmed_under_chaos(self, report):
        found = {v.param for v in report.verdicts}
        assert "chaos.window" in found

    def test_injected_flakiness_dismissed_on_safe_param(self, report):
        assert "chaos.buffer" not in {v.param for v in report.verdicts}
        assert report.hypothesis_stats.filtered_as_flaky >= 1

    def test_faults_were_actually_injected(self, report):
        assert sum(report.fault_counts.values()) > 0
        assert "drop" in report.fault_counts

    def test_clean_campaign_reports_no_faults(self):
        clean = chaos_campaign().run()
        assert clean.fault_counts == {}
        assert clean.infra_retries_performed == 0
        assert {v.param for v in clean.verdicts} == {"chaos.window"}

    def test_trace_records_fault_and_retry_events(self):
        report = chaos_campaign(fault_plan=self.PLAN, observe=True).run()
        spans = report.observation.spans
        by_id = {span.span_id: span for span in spans}
        events = [span for span in spans if span.kind in ("fault", "retry")]
        assert {span.kind for span in events} == {"fault", "retry"}
        fault_kinds = {span.name for span in events if span.kind == "fault"}
        assert fault_kinds & {"drop", "delay", "crash", "infra-error"}
        for event in events:
            # zero-duration, inside the execution that hit it
            trial = by_id[event.parent_id]
            assert trial.kind == "trial"
            assert trial.sim_start <= event.sim_start == event.sim_end \
                <= trial.sim_end


# ---------------------------------------------------------------------------
# the fault-kind table behind --fault KIND=VALUE and the serve spec
# ---------------------------------------------------------------------------
class TestFaultTable:
    def test_every_kind_names_a_field_of_its_plan(self):
        for kind, (cls, name) in FAULT_KINDS.items():
            assert name in {f.name for f in fields(cls)}, kind
        assert len(EXECUTION_FAULT_KINDS) == 8 and len(NET_FAULT_KINDS) == 3

    def test_values_take_their_field_type(self):
        assert check_faults({"net_partition": 3.0, "drop": 1}) == {
            "drop": 1.0, "net_partition": 3}

    @pytest.mark.parametrize("overrides,kinds", [
        ({"gamma": 0.1}, tuple(FAULT_KINDS)),
        ({"disk_enospc": 0.1}, EXECUTION_FAULT_KINDS),
        ({"drop": "0.1"}, tuple(FAULT_KINDS)),
        ({"drop": True}, tuple(FAULT_KINDS)),
        ({"net_partition": 2.5}, tuple(FAULT_KINDS)),
    ])
    def test_invalid_overrides_are_refused(self, overrides, kinds):
        with pytest.raises(ValueError):
            check_faults(overrides, kinds)

    def test_decoder_rebuilds_every_plan_from_json(self):
        for plan in (FaultPlan.moderate(3),
                     DiskFaultPlan(seed=2, torn_write_prob=0.1),
                     NetFaultPlan(seed=1, delay_range_s=(0.5, 1.0))):
            record = json.loads(json.dumps(asdict(plan)))
            assert plan_from_dict(type(plan), record) == plan
