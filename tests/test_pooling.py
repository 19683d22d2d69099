"""Unit tests for pooled testing: bisection, blacklist, skip logic (§4)."""

from __future__ import annotations

from repro.core.pooling import FrequentFailureTracker, PooledTester
from repro.core.runner import CONFIRMED_UNSAFE, TestRunner
from repro.core.testgen import CROSS, ROUND_ROBIN, TestGenerator
from synthetic_app import SYNTH_REGISTRY, two_service_test


def make_units(params, strategy=ROUND_ROBIN, group="Service"):
    generator = TestGenerator(SYNTH_REGISTRY)
    units = []
    for name in params:
        param = SYNTH_REGISTRY.get(name)
        pair = generator.value_pairs(param)[0]
        units.append(generator.assignment(param, group, strategy, pair))
    return units


ALL_PARAMS = ("synth.mode", "synth.level", "synth.safe-a", "synth.safe-b",
              "synth.safe-c")


class TestFrequentFailureTracker:
    def test_blacklists_after_threshold_distinct_tests(self):
        tracker = FrequentFailureTracker(threshold=2)
        tracker.record_unsafe("p", "test1")
        assert tracker.allowed("p")
        tracker.record_unsafe("p", "test1")  # same test, no double count
        assert tracker.allowed("p")
        tracker.record_unsafe("p", "test2")
        assert not tracker.allowed("p")
        assert tracker.failure_count("p") == 2
        tracker.record_unsafe("a", "test2")
        assert tracker.confirmations() == [("a", "test2"), ("p", "test1"),
                                           ("p", "test2")]


class TestPooledTester:
    def test_all_safe_pool_clears_in_one_run(self):
        tester = PooledTester(TestRunner())
        results = tester.run(two_service_test(), "Service", ROUND_ROBIN,
                             make_units(("synth.safe-a", "synth.safe-b",
                                         "synth.safe-c")))
        assert results == []
        assert tester.stats.pool_runs == 1
        assert tester.stats.pools_cleared == 1
        assert tester.stats.params_cleared_in_pools == 3
        assert tester.stats.bisection_runs == 0

    def test_bisection_isolates_unsafe_params(self):
        tester = PooledTester(TestRunner())
        results = tester.run(two_service_test(), "Service", ROUND_ROBIN,
                             make_units(ALL_PARAMS))
        confirmed = {r.instance.params[0] for r in results
                     if r.verdict == CONFIRMED_UNSAFE}
        assert confirmed == {"synth.mode", "synth.level"}
        assert tester.stats.bisection_runs > 0

    def test_safe_singletons_not_reported(self):
        tester = PooledTester(TestRunner())
        results = tester.run(two_service_test(), "Service", ROUND_ROBIN,
                             make_units(ALL_PARAMS))
        reported = {r.instance.params[0] for r in results}
        assert "synth.safe-a" not in {p for p in reported
                                      if p.startswith("synth.safe")} or \
            all(r.verdict != CONFIRMED_UNSAFE for r in results
                if r.instance.params[0].startswith("synth.safe"))

    def test_blacklisted_params_skipped(self):
        tracker = FrequentFailureTracker(threshold=1)
        tracker.record_unsafe("synth.mode", "earlier-test")
        tester = PooledTester(TestRunner(), tracker=tracker)
        tester.run(two_service_test(), "Service", ROUND_ROBIN,
                   make_units(ALL_PARAMS))
        assert tester.stats.blacklist_skips == 1
        assert not tracker.allowed("synth.mode")

    def test_confirmed_param_skipped_on_same_test(self):
        tester = PooledTester(TestRunner())
        test = two_service_test()
        tester.run(test, "Service", ROUND_ROBIN, make_units(("synth.mode",)))
        tester.run(test, "Service", "round-robin-swapped",
                   make_units(("synth.mode",), strategy="round-robin-swapped"))
        assert tester.stats.already_confirmed_skips >= 1

    def test_confirmation_feeds_tracker(self):
        tracker = FrequentFailureTracker(threshold=1)
        tester = PooledTester(TestRunner(), tracker=tracker)
        tester.run(two_service_test(), "Service", ROUND_ROBIN,
                   make_units(("synth.mode",)))
        assert not tracker.allowed("synth.mode")

    def test_max_pool_size_splits_pools(self):
        tester = PooledTester(TestRunner(), max_pool_size=2)
        tester.run(two_service_test(), "Service", ROUND_ROBIN,
                   make_units(("synth.safe-a", "synth.safe-b",
                               "synth.safe-c")))
        # a pool of 2 plus a size-1 remainder that goes straight to
        # singleton evaluation
        assert tester.stats.pool_runs == 1
        assert tester.stats.singleton_instances == 1

    def test_parameter_interaction_recorded_not_reported(self):
        """The §4 independence assumption: two params that only fail
        *jointly* slip through bisection — each half passes alone — and
        are recorded as an interference event rather than reported."""
        from repro.common.configuration import Configuration, ref_to_clone
        from repro.common.errors import TestFailure
        from repro.common.params import BOOL, ParamRegistry
        from repro.core.confagent import current_agent
        from repro.core.registry import UnitTest

        registry = ParamRegistry("interf")
        registry.define("i.a", BOOL, False)
        registry.define("i.b", BOOL, False)

        class InterfConfiguration(Configuration):
            pass

        InterfConfiguration.registry = registry

        class Peer:
            node_type = "Service"

            def __init__(self, conf):
                agent = current_agent()
                agent.start_init(self, self.node_type)
                try:
                    self.conf = ref_to_clone(conf)
                    self.conf.get_bool("i.a")
                    self.conf.get_bool("i.b")
                finally:
                    agent.stop_init()

            def exchange(self, peer):
                a_differs = (self.conf.get_bool("i.a")
                             != peer.conf.get_bool("i.a"))
                b_differs = (self.conf.get_bool("i.b")
                             != peer.conf.get_bool("i.b"))
                if a_differs and b_differs:  # only the combination fails
                    raise TestFailure("joint i.a/i.b mismatch")

        def body(ctx):
            conf = InterfConfiguration()
            first, second = Peer(conf), Peer(conf)
            first.exchange(second)

        test = UnitTest(app="interf", name="TestInterf.testJoint", fn=body)
        generator = TestGenerator(registry)
        tester = PooledTester(TestRunner())
        units = [generator.assignment(registry.get(name), "Service",
                                      ROUND_ROBIN,
                                      generator.value_pairs(
                                          registry.get(name))[0])
                 for name in ("i.a", "i.b")]
        results = tester.run(test, "Service", ROUND_ROBIN, units)
        assert all(r.verdict != CONFIRMED_UNSAFE for r in results)
        assert tester.stats.interference_events == 1

    def test_cross_strategy_pool_passes_for_symmetric_peers(self):
        tester = PooledTester(TestRunner())
        results = tester.run(two_service_test(), "Service", CROSS,
                             make_units(ALL_PARAMS, strategy=CROSS))
        assert all(r.verdict != CONFIRMED_UNSAFE for r in results)


class ScriptedRunner:
    """Stub runner whose pool executions follow a script; singleton
    evaluation is recorded so tests can assert bisection (not) happening."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.pool_executions = 0
        self.evaluated = []

    def canonical_form(self, assignment):
        from repro.core.execcache import canonical_assignment
        return canonical_assignment(assignment)

    def execute(self, test, assignment, seed, canonical=None):
        self.pool_executions += 1
        return self.outcomes.pop(0)

    def evaluate(self, instance):
        from repro.core.runner import PASS, InstanceResult
        self.evaluated.append(instance)
        return InstanceResult(instance=instance, verdict=PASS)


class TestPoolVoidRedraw:
    """Infra/timeout pool outcomes are voided and re-drawn, never handed
    to bisection as if they were oracle failures (the old behaviour
    wasted up to 2x|pool| executions per lost container)."""

    def units(self):
        return make_units(("synth.safe-a", "synth.safe-b", "synth.safe-c"))

    def outcome(self, *, ok=False, infra=False, timed_out=False):
        from repro.core.runner import RunOutcome
        return RunOutcome(ok=ok, infra=infra, timed_out=timed_out)

    def test_transient_infra_redraws_and_clears(self):
        runner = ScriptedRunner([self.outcome(infra=True),
                                 self.outcome(ok=True)])
        tester = PooledTester(runner)
        results = tester.run(two_service_test(), "Service", ROUND_ROBIN,
                             self.units())
        assert results == []
        assert runner.evaluated == []  # no bisection
        assert tester.stats.pool_voids == 1
        assert tester.stats.pool_infra_giveups == 0
        assert tester.stats.pools_cleared == 1
        assert tester.stats.params_cleared_in_pools == 3

    def test_persistent_infra_gives_up_without_bisection(self):
        runner = ScriptedRunner([self.outcome(infra=True)] * 3)
        tester = PooledTester(runner, max_pool_redraws=2)
        results = tester.run(two_service_test(), "Service", ROUND_ROBIN,
                             self.units())
        assert results == []
        assert runner.evaluated == []
        assert runner.pool_executions == 3  # first draw + two re-draws
        assert tester.stats.pool_voids == 2
        assert tester.stats.pool_infra_giveups == 1
        assert tester.stats.pools_cleared == 0

    def test_persistent_timeout_still_bisects(self):
        """A reproducible watchdog kill is real configuration evidence
        (a runaway retry loop, say) — after the re-draws it must fall
        through to bisection, unlike an infra giveup."""
        runner = ScriptedRunner([self.outcome(timed_out=True)] * 3
                                + [self.outcome(ok=True)])  # right sub-pool
        tester = PooledTester(runner, max_pool_redraws=2)
        tester.run(two_service_test(), "Service", ROUND_ROBIN, self.units())
        assert tester.stats.pool_voids == 2
        assert tester.stats.pool_infra_giveups == 0
        assert len(runner.evaluated) > 0  # bisection reached singletons

    def test_oracle_failure_never_voided(self):
        runner = ScriptedRunner([self.outcome(ok=False)] * 2)  # pool + right half
        tester = PooledTester(runner)
        tester.run(two_service_test(), "Service", ROUND_ROBIN, self.units())
        assert tester.stats.pool_voids == 0
        assert len(runner.evaluated) == 3  # every singleton bisected out

    def test_redraw_disabled_with_zero_budget(self):
        runner = ScriptedRunner([self.outcome(infra=True)])
        tester = PooledTester(runner, max_pool_redraws=0)
        results = tester.run(two_service_test(), "Service", ROUND_ROBIN,
                             self.units())
        assert results == []
        assert tester.stats.pool_voids == 0
        assert tester.stats.pool_infra_giveups == 1
