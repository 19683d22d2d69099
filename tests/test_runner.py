"""Unit tests for TestRunner: Definition 3.1 + multi-trial confirmation."""

from __future__ import annotations

from repro.core.runner import (BASELINE_FAIL, CONFIRMED_UNSAFE,
                               FLAKY_DISMISSED, PASS, TestRunner, stable_seed)
from repro.core.testgen import (CROSS, HeteroAssignment, TestGenerator,
                                TestInstance)
from synthetic_app import (SYNTH_REGISTRY, broken_baseline_test,
                           two_service_test)


def make_instance(test, param_name, pair=None, strategy=CROSS,
                  group="Service"):
    generator = TestGenerator(SYNTH_REGISTRY)
    param = SYNTH_REGISTRY.get(param_name)
    pair = pair or generator.value_pairs(param)[0]
    assignment = HeteroAssignment(
        (generator.assignment(param, group, strategy, pair),))
    return TestInstance(test=test, group=group, strategy=strategy,
                        assignment=assignment)


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, "x") == stable_seed("a", 1, "x")

    def test_distinct_inputs_differ(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)


class TestVerdicts:
    def test_safe_param_passes(self):
        runner = TestRunner()
        result = runner.evaluate(make_instance(two_service_test(),
                                               "synth.safe-a"))
        assert result.verdict == PASS
        assert result.executions == 3  # hetero + two homo sides

    def test_unsafe_param_confirmed(self):
        runner = TestRunner()
        result = runner.evaluate(make_instance(two_service_test(),
                                               "synth.mode",
                                               strategy="round-robin"))
        assert result.verdict == CONFIRMED_UNSAFE
        assert result.tally is not None
        assert result.tally.significant(runner.alpha)
        assert "mismatch" in result.hetero_error

    def test_cross_strategy_on_symmetric_peers_passes(self):
        # both Services get the same value under CROSS; only the unit test
        # differs, and the synthetic exchange only compares the two peers.
        runner = TestRunner()
        result = runner.evaluate(make_instance(two_service_test(),
                                               "synth.mode", strategy=CROSS))
        assert result.verdict == PASS

    def test_broken_baseline_not_reported(self):
        runner = TestRunner()
        result = runner.evaluate(make_instance(broken_baseline_test(),
                                               "synth.mode",
                                               strategy="round-robin"))
        assert result.verdict == BASELINE_FAIL

    def test_flaky_test_eventually_dismissed_or_passes(self):
        """A 60%-flaky test cannot produce a significant hetero-vs-homo
        separation; whatever the first trial shows, the verdict must not
        be CONFIRMED_UNSAFE for a safe parameter."""
        runner = TestRunner()
        verdicts = set()
        for index in range(6):
            test = two_service_test(name="TestSynth.testFlaky%d" % index,
                                    flaky_rate=0.6, flaky=True)
            result = runner.evaluate(make_instance(test, "synth.safe-a"))
            verdicts.add(result.verdict)
        assert CONFIRMED_UNSAFE not in verdicts
        assert verdicts <= {PASS, BASELINE_FAIL, FLAKY_DISMISSED}

    def test_unsafe_param_on_flaky_test_still_confirmed(self):
        """Mild flakiness must not hide a deterministic hetero failure:
        homo trials flake occasionally but the Fisher tally separates."""
        runner = TestRunner(max_trials=60)
        test = two_service_test(name="TestSynth.testFlakyUnsafe",
                                flaky_rate=0.15, flaky=True)
        result = runner.evaluate(make_instance(test, "synth.mode",
                                               strategy="round-robin"))
        # the hetero side always fails (mode mismatch precedes the coin
        # flip), so significance is reachable despite homo noise
        assert result.verdict in (CONFIRMED_UNSAFE, BASELINE_FAIL)

    def test_machine_time_accounting(self):
        runner = TestRunner(run_cost_s=60.0)
        runner.evaluate(make_instance(two_service_test(), "synth.safe-a"))
        assert runner.machine_time_s == runner.executions * 60.0
        assert runner.executions >= 3


class TestFirstTrial:
    def test_first_trial_runs_all_homo_sides(self):
        runner = TestRunner()
        instance = make_instance(two_service_test(), "synth.level")
        hetero, homos = runner.first_trial(instance.test, instance.assignment)
        assert len(homos) == instance.assignment.sides() == 2
        assert all(h.ok for h in homos)
