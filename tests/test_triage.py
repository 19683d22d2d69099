"""Unit tests for triage: the §7.1 true-problem / false-positive rules."""

from __future__ import annotations

from repro.core.runner import CONFIRMED_UNSAFE, InstanceResult
from repro.core.testgen import CROSS, HeteroAssignment, ParamAssignment, TestInstance
from repro.core.triage import (FALSE_POSITIVE, FP_PRIVATE_ONLY, FP_SHARED_IPC,
                               FP_STRICT_ASSERTION, FP_UNREALISTIC,
                               TRUE_PROBLEM, triage_param, triage_report)
from repro.core.registry import UnitTest
from synthetic_app import SYNTH_REGISTRY


def result_for(param, *, realistic=True, observability="public",
               strict=False, error="boom"):
    test = UnitTest(app="synth", name="T.%s_%s_%s" % (realistic, observability,
                                                      strict),
                    fn=lambda ctx: None, realistic=realistic,
                    observability=observability, strict_assertion=strict)
    assignment = HeteroAssignment((ParamAssignment(
        param=param, group="Service", group_values=(1,), other_value=2),))
    instance = TestInstance(test=test, group="Service", strategy=CROSS,
                            assignment=assignment)
    return InstanceResult(instance=instance, verdict=CONFIRMED_UNSAFE,
                          hetero_error=error)


class TestTriageRules:
    def test_realistic_public_is_true_problem(self):
        verdict = triage_param("p", [result_for("p")])
        assert verdict.verdict == TRUE_PROBLEM

    def test_unrealistic_only_is_fp(self):
        verdict = triage_param("p", [result_for("p", realistic=False)])
        assert verdict.verdict == FALSE_POSITIVE
        assert verdict.fp_reason == FP_UNREALISTIC

    def test_strict_assertion_only_is_fp(self):
        verdict = triage_param("p", [result_for("p", strict=True)])
        assert verdict.fp_reason == FP_STRICT_ASSERTION

    def test_private_observability_only_is_fp(self):
        verdict = triage_param("p", [result_for("p", observability="private")])
        assert verdict.fp_reason == FP_PRIVATE_ONLY

    def test_one_good_witness_outweighs_bad_ones(self):
        results = [result_for("p", realistic=False),
                   result_for("p", strict=True),
                   result_for("p", observability="private"),
                   result_for("p")]
        assert triage_param("p", results).verdict == TRUE_PROBLEM

    def test_shared_ipc_signature_recognised(self):
        results = [result_for(
            "ipc.client.kill.max",
            error="IPC connection parameter ipc.client.kill.max changed "
                  "mid-flight: connection built with 10, reused with 1000")]
        verdict = triage_param("ipc.client.kill.max", results)
        assert verdict.fp_reason == FP_SHARED_IPC

    def test_ipc_param_with_other_error_not_ipc_fp(self):
        results = [result_for("ipc.client.kill.max", error="timeout")]
        verdict = triage_param("ipc.client.kill.max", results)
        assert verdict.fp_reason != FP_SHARED_IPC

    def test_category_from_registry_tags(self):
        verdict = triage_param("synth.mode", [result_for("synth.mode")],
                               registry=SYNTH_REGISTRY)
        assert verdict.verdict == TRUE_PROBLEM
        assert verdict.category == "others"  # no tag on synth.mode

    def test_failing_tests_and_sample_error_recorded(self):
        verdict = triage_param("p", [result_for("p", error="the failure")])
        assert verdict.sample_error == "the failure"
        assert len(verdict.failing_tests) == 1


class TestTriageReport:
    def test_every_reported_param_gets_a_verdict(self):
        grouped = {"a": [result_for("a")],
                   "b": [result_for("b", realistic=False)]}
        verdicts = triage_report(grouped)
        assert [v.param for v in verdicts] == ["a", "b"]
        assert verdicts[0].is_true_problem
        assert not verdicts[1].is_true_problem
