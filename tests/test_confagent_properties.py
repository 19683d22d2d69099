"""Property-based tests of ConfAgent's mapping rules.

A random interleaving of the operations real unit tests perform —
creating confs before/after nodes, initializing nodes (optionally with
the shared conf), cloning mapped and unmapped confs, reading, setting
and unsetting values — must leave the agent in a consistent state: every
conf owned by exactly one entity (or uncertain), clones co-located with
their sources, and injection never reaching uncertain objects.  Every
read, whether or not a conf's view answers it, must equal a from-scratch
resolution, and agents that record usage must see every read.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.configuration import Configuration, ref_to_clone
from repro.common.params import INT, ParamRegistry
from repro.core.confagent import (NO_OVERRIDE, UNCERTAIN, UNIT_TEST,
                                  ConfAgent, ThreadOwnershipAgent,
                                  current_agent)
from repro.core.testgen import HeteroAssignment, ParamAssignment

REGISTRY = ParamRegistry("prop-agent")
REGISTRY.define("pa.value", INT, 5)
REGISTRY.define("pa.extra", INT, 7)

#: pa.value is injected (Service nodes 100, everyone else 200); pa.extra
#: is not, so its reads follow explicit sets and the registry default.
PARAMS = ("pa.value", "pa.extra")


class PropConfiguration(Configuration):
    registry = REGISTRY


class PropNode:
    node_type = "Service"

    def __init__(self, conf):
        agent = current_agent()
        agent.start_init(self, self.node_type)
        try:
            self.conf = ref_to_clone(conf)
        finally:
            agent.stop_init()


#: operation alphabet for the random interleavings; the integer picks
#: the conf (or node) a write goes through, and which parameter.
OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["new_conf", "new_node", "adopt",
                               "clone_first", "clone_last", "read", "set",
                               "unset", "node_set"]),
              st.integers(min_value=0, max_value=15)),
    min_size=1, max_size=16)

#: (agent class, record_usage) for every kind of session a campaign runs:
#: test executions (views on), the pre-run and audit recorders and the
#: thread-ownership ablation (views off).
AGENT_KINDS = [(ConfAgent, False), (ConfAgent, True),
               (ThreadOwnershipAgent, False), (ThreadOwnershipAgent, True)]


def reference_value(agent, conf, name):
    """A read resolved from scratch: the injected value, else the explicit
    property, else the registry default."""
    node_type, node_index = agent._resolve(conf)
    if node_type != UNCERTAIN:
        value = agent.assignment.value_for(node_type, node_index, name)
        if value is not NO_OVERRIDE:
            return value
    if name in conf._properties:
        return conf._properties[name]
    return REGISTRY.default_of(name)


def run_operations(operations, agent_class=ConfAgent, record_usage=False):
    """Apply ``operations``; returns the agent, the confs and nodes made,
    the final (owner, pa.value) per conf, and every read as
    (observed, reference)."""
    agent = agent_class(assignment=HeteroAssignment((ParamAssignment(
        param="pa.value", group="Service", group_values=(100,),
        other_value=200),)), record_usage=record_usage)
    confs = []
    nodes = []
    reads = []
    with agent:
        shared = PropConfiguration()
        confs.append(shared)
        for step, (operation, pick) in enumerate(operations):
            conf = confs[pick % len(confs)]
            name = PARAMS[pick % len(PARAMS)]
            if operation == "new_conf":
                confs.append(PropConfiguration())
            elif operation == "new_node":
                nodes.append(PropNode(shared))
                confs.append(nodes[-1].conf)
            elif operation == "adopt":
                # a node handed an uncertain conf moves it to the unit
                # test (Rule 2): an owner change for a conf already read
                uncertain = [c for c in confs
                             if id(c) in agent.uncertain_confs]
                if uncertain:
                    nodes.append(PropNode(uncertain[pick % len(uncertain)]))
                    confs.append(nodes[-1].conf)
            elif operation == "clone_first":
                confs.append(PropConfiguration(confs[0]))
            elif operation == "clone_last":
                confs.append(PropConfiguration(confs[-1]))
            elif operation == "read":
                # through every conf, so a stale view anywhere shows
                for read_conf in confs:
                    for read_name in PARAMS:
                        reads.append((read_conf.get(read_name),
                                      reference_value(agent, read_conf,
                                                      read_name)))
            elif operation == "set":
                # only pa.extra: an uncertain conf must keep pa.value's
                # registry default (test_injection_matches_resolution)
                conf.set("pa.extra", 1000 + step)
            elif operation == "unset":
                conf.unset("pa.extra")
            elif operation == "node_set" and nodes:
                # write-through: the shared conf gets it by raw_set
                nodes[pick % len(nodes)].conf.set(name, 2000 + step)
        observed = []
        for conf in confs:
            value = conf.get("pa.value")
            reads.append((value, reference_value(agent, conf, "pa.value")))
            observed.append((agent._resolve(conf), value))
    return agent, confs, nodes, observed, reads


@given(OPERATIONS)
@settings(max_examples=80, deadline=None)
def test_every_conf_has_exactly_one_owner(operations):
    agent, confs, nodes, _, _ = run_operations(operations)
    for conf in confs:
        owners = 0
        conf_id = id(conf)
        for record in agent.node_table.values():
            if conf_id in record.conf_ids:
                owners += 1
        if conf_id in agent.unit_test_confs:
            owners += 1
        if conf_id in agent.uncertain_confs:
            owners += 1
        assert owners == 1, "conf with %d owners" % owners


@given(OPERATIONS)
@settings(max_examples=80, deadline=None)
def test_injection_matches_resolution(operations):
    _, _, _, observed, _ = run_operations(operations)
    for (node_type, _), value in observed:
        if node_type == "Service":
            assert value == 100
        elif node_type == UNIT_TEST:
            assert value == 200
        else:  # uncertain objects keep the registry default
            assert node_type == UNCERTAIN
            assert value == 5


@given(OPERATIONS)
# Rule 2 moves an uncertain source whose clone was made before the move
@example(operations=[("new_node", 0), ("new_conf", 0), ("new_conf", 0),
                     ("new_conf", 0), ("clone_last", 0), ("adopt", 2)])
@settings(max_examples=80, deadline=None)
def test_clones_follow_their_sources(operations):
    agent, confs, _, _, _ = run_operations(operations)
    for child_id, parent_id in agent.parent_to_child.items():
        child = next((c for c in confs if id(c) == child_id), None)
        parent = next((c for c in confs if id(c) == parent_id), None)
        if child is None or parent is None:
            continue
        child_owner = agent._resolve(child)
        parent_owner = agent._resolve(parent)
        # Rule 2 deliberately splits (clone -> node, source -> test);
        # everything else keeps clone and source together.
        if child_owner[0] == "Service" and parent_owner[0] == UNIT_TEST:
            continue
        assert child_owner == parent_owner


@given(OPERATIONS)
@settings(max_examples=80, deadline=None)
def test_node_count_matches_new_node_operations(operations):
    agent, _, nodes, _, _ = run_operations(operations)
    assert agent.started_node_groups().get("Service", 0) == len(nodes)
    for index, node in enumerate(nodes):
        assert agent._resolve(node.conf) == ("Service", index)


@pytest.mark.parametrize("agent_class,record_usage", AGENT_KINDS)
@given(operations=OPERATIONS)
# each trigger that must drop a view, pinned between two reads
@example(operations=[("read", 0), ("set", 0), ("read", 0)])
@example(operations=[("set", 0), ("read", 0), ("unset", 0), ("read", 0)])
@example(operations=[("new_node", 0), ("read", 0), ("node_set", 1),
                     ("read", 0)])
@example(operations=[("new_node", 0), ("new_conf", 0), ("read", 0),
                     ("adopt", 0), ("read", 0)])
@settings(max_examples=60, deadline=None)
def test_every_read_equals_the_reference_resolver(agent_class, record_usage,
                                                  operations):
    _, _, _, _, reads = run_operations(operations, agent_class, record_usage)
    for observed, expected in reads:
        assert observed == expected


@pytest.mark.parametrize("agent_class", [ConfAgent, ThreadOwnershipAgent])
@given(operations=OPERATIONS)
@settings(max_examples=60, deadline=None)
def test_recording_agents_count_every_read(agent_class, operations):
    agent, _, _, _, reads = run_operations(operations, agent_class,
                                           record_usage=True)
    assert sum(sum(site.values()) for site in agent.read_sites.values()) \
        == len(reads)
