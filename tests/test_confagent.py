"""Unit tests for ConfAgent: the §6.2 mapping rules and §6.3 machinery."""

from __future__ import annotations

import pytest

from repro.common.configuration import Configuration, ref_to_clone
from repro.common.params import INT, ParamRegistry
from repro.core.confagent import (NO_OVERRIDE, UNCERTAIN, UNIT_TEST,
                                  ConfAgent, NullAgent, ThreadOwnershipAgent,
                                  current_agent)
from repro.core.testgen import HeteroAssignment, ParamAssignment


def make_conf_class():
    registry = ParamRegistry("agenttest")
    registry.define("x.alpha", INT, 1)
    registry.define("x.beta", INT, 2)

    class AgentTestConfiguration(Configuration):
        pass

    AgentTestConfiguration.registry = registry
    return AgentTestConfiguration


class FakeNode:
    """Minimal node following the Fig. 2b pattern."""

    node_type = "Server"

    def __init__(self, conf, node_type="Server", make_component_conf=False):
        self.node_type = node_type
        agent = current_agent()
        agent.start_init(self, node_type)
        try:
            self.conf = ref_to_clone(conf)
            if make_component_conf:
                # line 19 of Fig. 2b: a subcomponent creating its own conf
                self.component_conf = type(conf)()
        finally:
            agent.stop_init()


class TestRules:
    def test_rule_1_2_conf_before_nodes_belongs_to_unit_test(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            conf = cls()
            assert agent._resolve(conf) == (UNIT_TEST, 0)

    def test_rule_1_1_conf_during_init_belongs_to_node(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            node = FakeNode(shared, make_component_conf=True)
            assert agent._resolve(node.component_conf) == ("Server", 0)

    def test_rule_2_ref_to_clone_maps_clone_to_node(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            node = FakeNode(shared)
            assert node.conf is not shared
            assert agent._resolve(node.conf) == ("Server", 0)
            assert agent._resolve(shared) == (UNIT_TEST, 0)

    def test_rule_3_clone_follows_source_owner(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            clone = cls(shared)
            assert agent._resolve(clone) == (UNIT_TEST, 0)

    def test_conf_created_after_nodes_is_uncertain(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            FakeNode(shared)
            late = cls()
            assert agent._resolve(late) == (UNCERTAIN, 0)
            assert agent.has_uncertain_confs()

    def test_node_indexes_count_per_type(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            a = FakeNode(shared, node_type="Server")
            b = FakeNode(shared, node_type="Server")
            c = FakeNode(shared, node_type="Worker")
            assert agent._resolve(a.conf) == ("Server", 0)
            assert agent._resolve(b.conf) == ("Server", 1)
            assert agent._resolve(c.conf) == ("Worker", 0)
            assert agent.started_node_groups() == {"Server": 2, "Worker": 1}

    def test_nested_init_attributes_to_innermost_node(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()

            class Outer:
                def __init__(self):
                    agent.start_init(self, "Outer")
                    try:
                        self.conf = ref_to_clone(shared)
                        self.inner = FakeNode(shared, node_type="Inner",
                                              make_component_conf=True)
                        self.own_conf = cls()
                    finally:
                        agent.stop_init()

            outer = Outer()
            assert agent._resolve(outer.inner.component_conf) == ("Inner", 0)
            assert agent._resolve(outer.own_conf) == ("Outer", 0)


class TestInjection:
    def _assignment(self):
        return HeteroAssignment((ParamAssignment(
            param="x.alpha", group="Server", group_values=(100,),
            other_value=200),))

    def test_node_sees_group_value(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            node = FakeNode(shared)
            assert node.conf.get("x.alpha") == 100

    def test_unit_test_sees_other_value(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            FakeNode(shared)
            assert shared.get("x.alpha") == 200

    def test_untargeted_param_not_overridden(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            node = FakeNode(shared)
            assert node.conf.get("x.beta") == 2

    def test_uncertain_conf_never_injected(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            FakeNode(shared)
            late = cls()
            assert late.get("x.alpha") == 1  # registry default, no override

    def test_repeat_reads_see_the_injected_value(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            node = FakeNode(shared)
            assert node.conf.get("x.alpha") == 100
            assert node.conf.get("x.alpha") == 100  # answered by the view

    def test_shared_object_reads_attribute_by_object_not_thread(self):
        """The key §6.1 scenario: the unit test calls a node's function on
        the main thread; the read must still resolve to the node."""
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            node = FakeNode(shared)

            def fun_a():  # node-internal function called by the test
                return node.conf.get("x.alpha")

            assert fun_a() == 100


class TestConfView:
    """Inside a test execution a conf answers repeat reads from its own
    view; only a conf write, an ownership change or a new agent sends the
    next read back to ``intercept_get``.  Findings cannot show whether
    the view is on, so these counts are its only witness."""

    def _assignment(self):
        return HeteroAssignment((ParamAssignment(
            param="x.alpha", group="Server", group_values=(100,),
            other_value=200),))

    def _count_intercepts(self, agent):
        calls = []
        intercept = agent.intercept_get

        def counting(conf, name):
            calls.append(name)
            return intercept(conf, name)

        agent.intercept_get = counting  # instance shadow, as get calls it
        return calls

    def _read(self, conf, times=100, expected=None):
        for _ in range(times):
            assert conf.get("x.alpha") == expected

    def test_each_trigger_costs_one_intercept(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()) as agent:
            shared = cls()
            node = FakeNode(shared)
            calls = self._count_intercepts(agent)
            self._read(node.conf, expected=100)
            assert len(calls) == 1
            node.conf.set("x.beta", 9)  # a write to that conf
            self._read(node.conf, expected=100)
            assert len(calls) == 2
            FakeNode(shared)  # a new node init remaps confs
            self._read(node.conf, expected=100)
            assert len(calls) == 3
            node.conf.raw_set("x.beta", 10)  # a write-through lands
            self._read(node.conf, expected=100)
            assert len(calls) == 4
            node.conf.unset("x.beta")
            self._read(node.conf, expected=100)
            assert len(calls) == 5
        with ConfAgent(assignment=self._assignment()) as second:
            calls = self._count_intercepts(second)
            # unknown to the new agent: uncertain, so the registry default
            self._read(node.conf, expected=1)
            assert len(calls) == 1

    def test_write_is_seen_by_the_next_read(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            conf = cls()
            assert conf.get("x.beta") == 2
            conf.set("x.beta", 3)
            assert conf.get("x.beta") == 3
            conf.unset("x.beta")
            assert conf.get("x.beta") == 2

    def test_default_argument_answers_are_not_kept(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            conf = cls()
            calls = self._count_intercepts(agent)
            assert conf.get("x.unknown", 5) == 5
            assert conf.get("x.unknown", 6) == 6
            assert len(calls) == 2

    @pytest.mark.parametrize("make_agent", [
        lambda a: ConfAgent(assignment=a, record_usage=True),
        lambda a: ThreadOwnershipAgent(assignment=a),
    ], ids=["recording", "thread-ownership"])
    def test_tokenless_agents_see_every_read(self, make_agent):
        cls = make_conf_class()
        with make_agent(self._assignment()) as agent:
            assert agent.view_token is None
            shared = cls()
            node = FakeNode(shared)
            calls = self._count_intercepts(agent)
            self._read(node.conf, expected=100)
            assert len(calls) == 100


class TestInterceptSet:
    def test_write_through_to_parent(self):
        cls = make_conf_class()
        with ConfAgent():
            shared = cls()
            node = FakeNode(shared)
            # the node fills in a value; the unit test must see it through
            # its original object (§6.3 interceptSet)
            node.conf.set("x.beta", 77)
            assert shared.get("x.beta") == 77

    def test_unit_test_set_does_not_write_through(self):
        cls = make_conf_class()
        with ConfAgent():
            shared = cls()
            node = FakeNode(shared)
            shared.set("x.beta", 5)
            assert node.conf.get("x.beta") == 2  # clone made before the set


class TestPreRunRecording:
    def test_usage_recorded_per_owner(self):
        cls = make_conf_class()
        with ConfAgent(record_usage=True) as agent:
            shared = cls()
            shared.get("x.alpha")
            node = FakeNode(shared)
            node.conf.get("x.beta")
            assert "x.alpha" in agent.params_used_by(UNIT_TEST)
            assert "x.beta" in agent.params_used_by("Server")

    def test_uncertain_params_recorded(self):
        cls = make_conf_class()
        with ConfAgent(record_usage=True) as agent:
            shared = cls()
            FakeNode(shared)
            late = cls()
            late.get("x.alpha")
            assert "x.alpha" in agent.uncertain_params

    def test_no_recording_without_flag(self):
        cls = make_conf_class()
        with ConfAgent(record_usage=False) as agent:
            conf = cls()
            conf.get("x.alpha")
            assert agent.usage == {}


class TestScoping:
    def test_null_agent_outside_sessions(self):
        assert isinstance(current_agent(), NullAgent)
        assert current_agent().intercept_get(None, "x") is NO_OVERRIDE

    def test_agent_restored_after_session(self):
        with ConfAgent() as agent:
            assert current_agent() is agent
        assert isinstance(current_agent(), NullAgent)

    def test_sessions_nest(self):
        with ConfAgent() as outer:
            with ConfAgent() as inner:
                assert current_agent() is inner
            assert current_agent() is outer


class TestThreadOwnershipAblation:
    def test_misattributes_test_thread_calls(self):
        """The paper's failed third attempt: node functions called from
        the unit-test thread are attributed to whichever node 'owns' the
        thread — here the first node initialized on it."""
        cls = make_conf_class()
        with ThreadOwnershipAgent() as agent:
            shared = cls()
            first = FakeNode(shared, node_type="Server")
            second = FakeNode(shared, node_type="Worker")
            # a read through the *second* node's conf object...
            resolved = agent._resolve(second.conf)
            # ...is wrongly attributed to the first node (thread owner).
            assert resolved == ("Server", 0)
            assert agent.misattributions >= 1
