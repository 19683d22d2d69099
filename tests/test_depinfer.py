"""Tests for automatic parameter-dependency inference (§4 future work)."""

from __future__ import annotations

from repro.common.configuration import Configuration, ref_to_clone
from repro.common.params import BOOL, ENUM, INT, ParamRegistry
from repro.core.confagent import current_agent
from repro.core.depinfer import (InferredDependency, infer_dependencies,
                                 infer_rules_for_corpus)
from repro.core.registry import UnitTest


def make_synthetic():
    registry = ParamRegistry("dep-app")
    registry.define("dep.feature.enabled", BOOL, False)
    registry.define("dep.feature.mode", ENUM, "a", values=("a", "b"))
    registry.define("dep.always-read", INT, 1)

    class DepConfiguration(Configuration):
        pass

    DepConfiguration.registry = registry

    class Service:
        node_type = "Service"

        def __init__(self, conf):
            agent = current_agent()
            agent.start_init(self, self.node_type)
            try:
                self.conf = ref_to_clone(conf)
                self.conf.get_int("dep.always-read")
                if self.conf.get_bool("dep.feature.enabled"):
                    # the conditional read: mode matters only when the
                    # feature is on
                    self.conf.get_enum("dep.feature.mode")
            finally:
                agent.stop_init()

    def body(ctx):
        Service(DepConfiguration())

    test = UnitTest(app="dep-app", name="TestDep.testService", fn=body)
    return registry, test


class TestSyntheticInference:
    def test_conditional_read_detected(self):
        registry, test = make_synthetic()
        findings = infer_dependencies(test, registry,
                                      drivers=["dep.feature.enabled"])
        assert InferredDependency(driver="dep.feature.enabled",
                                  enabling_value=True,
                                  dependent="dep.feature.mode") in findings

    def test_unconditional_read_not_reported(self):
        registry, test = make_synthetic()
        findings = infer_dependencies(test, registry,
                                      drivers=["dep.feature.enabled"])
        dependents = {f.dependent for f in findings}
        assert "dep.always-read" not in dependents

    def test_driver_never_its_own_dependent(self):
        registry, test = make_synthetic()
        findings = infer_dependencies(test, registry,
                                      drivers=["dep.feature.enabled"])
        assert all(f.dependent != f.driver for f in findings)

    def test_rules_pin_the_enabling_value(self):
        registry, test = make_synthetic()
        rules = infer_rules_for_corpus([test], registry,
                                       drivers=["dep.feature.enabled"])
        mode_rules = [r for r in rules if r.param == "dep.feature.mode"]
        assert mode_rules, "expected rules for the dependent parameter"
        assert all(r.companion == "dep.feature.enabled"
                   and r.companion_value is True for r in mode_rules)
        # one rule per candidate value of the dependent
        assert {r.value for r in mode_rules} == {"a", "b"}

    def test_unknown_driver_ignored(self):
        registry, test = make_synthetic()
        assert infer_dependencies(test, registry, drivers=["nope"]) == []

    def test_default_drivers_are_bools_and_enums(self):
        from repro.core.depinfer import default_drivers
        registry, test = make_synthetic()
        assert set(default_drivers(registry)) == {"dep.feature.enabled",
                                                  "dep.feature.mode"}

    def test_inference_without_explicit_drivers(self):
        registry, test = make_synthetic()
        findings = infer_dependencies(test, registry)  # default drivers
        assert any(f.dependent == "dep.feature.mode"
                   and f.driver == "dep.feature.enabled" for f in findings)


class TestOnRealCorpus:
    def test_https_address_depends_on_http_policy(self, corpus):
        """The exact §4 example: 'in HDFS there is a parameter to
        configure whether to use the http or https protocol, and two
        parameters to set the http and https addresses' — inference must
        discover that the https address is only read under HTTPS_ONLY."""
        from repro.apps.hdfs import HDFS_FULL_REGISTRY
        test = corpus.get("hdfs", "TestFsck.testFsckHealthy")
        findings = infer_dependencies(test, HDFS_FULL_REGISTRY,
                                      drivers=["dfs.http.policy"])
        assert InferredDependency(
            driver="dfs.http.policy", enabling_value="HTTPS_ONLY",
            dependent="dfs.namenode.https-address") in findings

    def test_inferred_rules_pin_the_enabling_policy(self, corpus):
        """Testing the https address is only meaningful with the policy
        pinned to HTTPS_ONLY — the inferred rule states exactly that
        (the §4 manual rule, derived automatically)."""
        from repro.apps.hdfs import HDFS_FULL_REGISTRY
        test = corpus.get("hdfs", "TestFsck.testFsckHealthy")
        rules = infer_rules_for_corpus([test], HDFS_FULL_REGISTRY,
                                       drivers=["dfs.http.policy"])
        address_rules = [r for r in rules
                         if r.param == "dfs.namenode.https-address"]
        assert address_rules
        assert all(r.companion == "dfs.http.policy"
                   and r.companion_value == "HTTPS_ONLY"
                   for r in address_rules)
