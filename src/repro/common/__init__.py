"""Shared substrate: simulation kernel, configuration, wire formats, RPC."""

from repro.common.cluster import MiniCluster
from repro.common.configuration import Configuration, ref_to_clone
from repro.common.node import Node, node_init, register_node_type
from repro.common.params import ParamDef, ParamRegistry
from repro.common.simulation import PeriodicTask, Process, Simulator

__all__ = [
    "Configuration", "ref_to_clone", "MiniCluster", "Node", "node_init",
    "register_node_type", "ParamDef", "ParamRegistry", "Simulator",
    "Process", "PeriodicTask",
]
