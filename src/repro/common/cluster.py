"""MiniCluster base: the in-process "whole cluster" used by unit tests.

The paper's target applications implement whole-system tests by running
every node inside one process (MiniDFSCluster, Flink's MiniCluster, ...).
Our :class:`MiniCluster` plays that role: it owns the discrete-event
:class:`~repro.common.simulation.Simulator`, keeps the node roster, and
exposes the time-advancing helpers corpus unit tests use.
"""

from __future__ import annotations

from typing import Any, List, Optional, Type, TypeVar

from repro.common.faults import current_injector
from repro.common.node import Node
from repro.common.simulation import Simulator

N = TypeVar("N", bound=Node)


class MiniCluster:
    """In-process cluster of simulated nodes sharing one simulator."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.nodes: List[Node] = []
        self.ipc = None  # shared IPC component, see ensure_ipc()
        self._shut_down = False
        # Under an active fault scope, perturb this cluster's clock.
        current_injector().attach_clock(self.sim)

    def ensure_ipc(self, conf_factory: Any) -> Any:
        """Create the process-wide shared IPC component on first use.

        Called from inside a node's init scope, so the component's own
        configuration object is mapped to that node — reproducing the
        Hadoop sharing quirk behind the paper's IPC false positives.
        """
        from repro.common.ipc import IpcComponent, ipc_sharing_enabled
        if self.ipc is None:
            self.ipc = IpcComponent(conf_factory, shared=ipc_sharing_enabled())
        return self.ipc

    # ------------------------------------------------------------------
    # roster
    # ------------------------------------------------------------------
    def add_node(self, node: N) -> N:
        self.nodes.append(node)
        # Under an active fault scope, the node may draw a deterministic
        # crash/restart cycle (see repro.common.faults.FaultInjector).
        current_injector().schedule_node_faults(node)
        return node

    def nodes_of(self, node_class: Type[N]) -> List[N]:
        return [n for n in self.nodes if isinstance(n, node_class)]

    def running_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.running]

    # ------------------------------------------------------------------
    # time control (what corpus tests call instead of Thread.sleep)
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> None:
        """Advance simulated time; background failures fail the test."""
        self.sim.run_for(duration)
        self.sim.raise_crashes()

    def check_health(self) -> None:
        """Raise the first unobserved background failure, if any."""
        self.sim.raise_crashes()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._shut_down:
            return
        self._shut_down = True
        for node in self.nodes:
            node.stop()

    def __enter__(self) -> "MiniCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
