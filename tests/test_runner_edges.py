"""Edge cases for TestRunner and multi-valued assignments."""

from __future__ import annotations

from repro.core.confagent import UNIT_TEST
from repro.core.runner import (BASELINE_FAIL, CONFIRMED_UNSAFE,
                               FLAKY_DISMISSED, PASS, TestRunner)
from repro.core.testgen import (CROSS, HeteroAssignment, HomoAssignment,
                                ParamAssignment, TestInstance)
from synthetic_app import two_service_test


class TestThreeSidedAssignments:
    def make(self):
        # three distinct values across the cluster: group nodes alternate
        # 1/2, everyone else gets 3
        return HeteroAssignment((ParamAssignment(
            param="synth.safe-a", group="Service", group_values=(1, 2),
            other_value=3),))

    def test_sides_counts_distinct_values(self):
        assert self.make().sides() == 3

    def test_each_homo_variant_is_uniform(self):
        assignment = self.make()
        for side in range(assignment.sides()):
            homo = assignment.homo_variant(side)
            values = {homo.value_for(entity, index, "synth.safe-a")
                      for entity in ("Service", "Other", UNIT_TEST)
                      for index in range(4)}
            assert len(values) == 1

    def test_homo_variants_cover_all_values(self):
        assignment = self.make()
        covered = {assignment.homo_variant(side).value_for("Service", 0,
                                                           "synth.safe-a")
                   for side in range(assignment.sides())}
        assert covered == {1, 2, 3}

    def test_side_index_clamped_per_parameter(self):
        # a pooled assignment where one param has 2 distinct values and
        # another has 3: side 2 clamps the two-valued parameter
        assignment = HeteroAssignment((
            ParamAssignment(param="synth.safe-a", group="Service",
                            group_values=(1, 2), other_value=3),
            ParamAssignment(param="synth.safe-c", group="Service",
                            group_values=(7,), other_value=700),
        ))
        assert assignment.sides() == 3
        homo = assignment.homo_variant(2)
        assert homo.value_for("Service", 0, "synth.safe-a") == 3
        assert homo.value_for("Service", 0, "synth.safe-c") == 700

    def test_first_trial_runs_three_homo_sides(self):
        runner = TestRunner()
        instance = TestInstance(test=two_service_test(), group="Service",
                                strategy=CROSS, assignment=self.make())
        result = runner.evaluate(instance)
        assert result.verdict == PASS
        assert result.executions == 4  # hetero + three homo sides


class TestHomoAssignment:
    def test_pinned_wins_over_values(self):
        homo = HomoAssignment(values=(("a", 1),), pinned=(("a", 9),))
        assert homo.value_for("X", 0, "a") == 9

    def test_unknown_param_untouched(self):
        from repro.core.confagent import NO_OVERRIDE
        homo = HomoAssignment(values=(("a", 1),))
        assert homo.value_for("X", 0, "b") is NO_OVERRIDE


class TestTrialBudget:
    def test_max_trials_bounds_confirmation(self):
        runner = TestRunner(max_trials=6)
        test = two_service_test(name="TestSynth.testVeryFlaky",
                                flaky_rate=0.45, flaky=True)
        assignment = HeteroAssignment((ParamAssignment(
            param="synth.safe-b", group="Service", group_values=(False,),
            other_value=True),))
        instance = TestInstance(test=test, group="Service", strategy=CROSS,
                                assignment=assignment)
        for attempt in range(4):
            result = runner.evaluate(instance)
            if result.tally is not None:
                assert result.tally.hetero_trials <= 6
                assert result.verdict in (FLAKY_DISMISSED, BASELINE_FAIL)

    def test_hopeless_short_circuits(self):
        """When homo fails as often as hetero early on, the loop stops
        well before max_trials."""
        runner = TestRunner(max_trials=40)
        test = two_service_test(name="TestSynth.testCoinFlip",
                                flaky_rate=0.9, flaky=True)
        assignment = HeteroAssignment((ParamAssignment(
            param="synth.safe-b", group="Service", group_values=(False,),
            other_value=True),))
        instance = TestInstance(test=test, group="Service", strategy=CROSS,
                                assignment=assignment)
        result = runner.evaluate(instance)
        if result.tally is not None:
            assert result.verdict != CONFIRMED_UNSAFE
            assert result.tally.hetero_trials < 40
