"""Tests of ConfAgent under the §6.4 assumption violations.

The paper lists five assumptions; violating 2-5 "does not completely
prevent ConfAgent from working" — unmappable objects are excluded rather
than misattributed.  These tests pin that degradation behaviour.
"""

from __future__ import annotations

from repro.common.configuration import Configuration, ref_to_clone
from repro.common.params import INT, ParamRegistry
from repro.core.confagent import UNCERTAIN, UNIT_TEST, ConfAgent, current_agent

REGISTRY = ParamRegistry("assumptions")
REGISTRY.define("asm.alpha", INT, 1)
REGISTRY.define("asm.beta", INT, 2)


class AsmConfiguration(Configuration):
    registry = REGISTRY


#: assumption 4 violation: a configuration object stored as a global,
#: created at import time — no agent session exists, so no rule ever saw
#: its creation.
GLOBAL_CONF = AsmConfiguration()


class Server:
    node_type = "Server"

    def __init__(self, conf):
        agent = current_agent()
        agent.start_init(self, self.node_type)
        try:
            self.conf = ref_to_clone(conf)
        finally:
            agent.stop_init()


class TestGlobalConfAssumption:
    def test_global_conf_resolves_to_uncertain(self):
        with ConfAgent(record_usage=True) as agent:
            conf = AsmConfiguration()
            Server(conf)
            GLOBAL_CONF.get_int("asm.alpha")
            assert agent._resolve(GLOBAL_CONF) == (UNCERTAIN, 0)
            assert "asm.alpha" in agent.uncertain_params

    def test_global_conf_never_receives_injection(self):
        from repro.core.testgen import HeteroAssignment, ParamAssignment
        assignment = HeteroAssignment((ParamAssignment(
            param="asm.alpha", group="Server", group_values=(100,),
            other_value=200),))
        with ConfAgent(assignment=assignment):
            conf = AsmConfiguration()
            node = Server(conf)
            assert node.conf.get_int("asm.alpha") == 100
            # the unmappable global keeps its real value: no fabricated
            # intra-node inconsistency (§6.2 Observation 3)
            assert GLOBAL_CONF.get_int("asm.alpha") == 1


class TestInitWithoutAnnotation:
    def test_unannotated_node_conf_is_uncertain(self):
        """Assumption 3 violation: a 'node' whose init is not annotated —
        its conf objects cannot be attributed to it."""

        class SilentNode:
            def __init__(self, conf):
                self.conf = AsmConfiguration()  # fresh conf, no init scope

        with ConfAgent(record_usage=True) as agent:
            shared = AsmConfiguration()
            Server(shared)           # a properly annotated node exists
            silent = SilentNode(shared)
            silent.conf.get_int("asm.beta")
            assert agent._resolve(silent.conf) == (UNCERTAIN, 0)
            assert "asm.beta" in agent.uncertain_params

    def test_conf_before_any_node_still_maps_to_test(self):
        with ConfAgent() as agent:
            early = AsmConfiguration()
            Server(early)
            assert agent._resolve(early) == (UNIT_TEST, 0)


class TestSharedObjectAssumption:
    def test_component_shared_between_nodes_keeps_first_owner(self):
        """Assumption 5 violation: two nodes share a component whose conf
        was created inside the *first* node's init — reads through it get
        the first node's values (the IPC situation, §7.1)."""
        with ConfAgent() as agent:
            shared = AsmConfiguration()
            first = Server(shared)
            # re-entering the first node's init scope models a component
            # constructed by it and later shared with the second node
            agent.start_init(first, "Server")
            try:
                component_conf = AsmConfiguration()
            finally:
                agent.stop_init()
            second = Server(shared)
            assert agent._resolve(component_conf)[0] == "Server"
            assert agent._resolve(component_conf) != \
                agent._resolve(second.conf)
