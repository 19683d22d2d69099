"""Node base class and the init-scope annotation (§6.3 startInit/stopInit).

Every simulated node type (NameNode, TaskManager, HRegionServer, ...)
derives from :class:`Node` and wraps its initialization in
:func:`node_init`, which is the Python rendering of the paper's
``ConfAgent.startInit(this, 'Server') ... ConfAgent.stopInit()``
annotation pair (Fig. 2b lines 14/21).  Inside that scope, configuration
objects the node creates are mapped to it by Rule 1.1, and
:func:`repro.common.configuration.ref_to_clone` maps the clone of a
unit-test-provided conf to the node by Rule 2.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

from repro.common.configuration import Configuration, ref_to_clone
from repro.common.errors import NodeStateError
from repro.core.confagent import current_agent

#: Application name -> node type names, as investigated by the paper
#: (Table 2).  Populated by each app package at import time.
NODE_TYPES: Dict[str, List[str]] = {}


def register_node_type(app: str, node_type: str) -> None:
    types = NODE_TYPES.setdefault(app, [])
    if node_type not in types:
        types.append(node_type)


@contextmanager
def node_init(node: "Node") -> Iterator[None]:
    """Annotate the dynamic extent of a node's initialization function."""
    current_agent().start_init(node, node.node_type)
    try:
        yield
    finally:
        current_agent().stop_init()


class Node:
    """Base class for all simulated cluster nodes.

    Subclasses must set :attr:`node_type` and perform all configuration
    handling inside a ``with node_init(self):`` block in ``__init__``.
    The base constructor replaces the caller-provided conf reference with
    a clone via :func:`ref_to_clone` — the one-line source modification
    the paper asks of application developers.
    """

    node_type = "Node"

    def __init__(self, conf: Configuration, cluster: "Any") -> None:
        self.conf = ref_to_clone(conf)
        self.cluster = cluster
        self.sim = cluster.sim
        self._running = False
        self._periodic_tasks: List[Any] = []
        #: fault-injection crash cycles survived (see repro.common.faults).
        self.crashes = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            raise NodeStateError("%s already started" % self)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for task in self._periodic_tasks:
            task.stop()
        self._periodic_tasks = []

    def crash(self) -> None:
        """Fault-injection hook: hard-stop the node mid-test.

        Semantically a process kill: periodic daemons die with it (they
        are not resurrected until :meth:`restart` runs the subclass's
        ``start``), and anything that calls :meth:`ensure_running` in the
        outage window fails like it would against a dead JVM.
        """
        if self._running:
            self.crashes += 1
            self.stop()

    def restart(self) -> None:
        """Fault-injection hook: bring a crashed node back up."""
        if not self._running:
            self.start()

    def ensure_running(self) -> None:
        if not self._running:
            raise NodeStateError("%s is not running" % self)

    def add_periodic(self, task: Any) -> Any:
        self._periodic_tasks.append(task)
        return task

    def __repr__(self) -> str:
        return "<%s at sim=%r>" % (type(self).__name__, getattr(self, "sim", None))
