"""Integration-test support: per-node configuration files (§3.2, §6.1).

"To run a unit test with a heterogeneous configuration, ConfAgent needs
to be able to control the configuration values at each node.  This would
be trivial in a real distributed setting or in an integration test, in
which each node would be running as a process: we could give each node a
separate configuration file."

This module provides that trivial path for our in-process clusters: a
:class:`FileAssignment` maps explicit per-node configuration "files"
(plain dicts) onto ConfAgent's injection interface, so integration-style
tests — where the author states each node's full configuration — run
through the very same machinery as generated campaigns.

Node selectors:

* ``"NameNode"``      — every node of the type
* ``"DataNode[1]"``   — the node with index 1 of the type
* ``"*"``             — every entity, including the test/client
"""

from __future__ import annotations

import re
from typing import Any, Dict, Mapping, Tuple

from repro.core.confagent import NO_OVERRIDE, ConfAgent

_SELECTOR = re.compile(r"^(?P<type>[^\[\]]+)(\[(?P<index>\d+)\])?$")


class FileAssignment:
    """Per-node configuration files as a ConfAgent assignment.

    Resolution order for a ``(node_type, index, param)`` read: the exact
    ``Type[index]`` file, then the ``Type`` file, then the ``*`` file,
    then no override (the node's own object/defaults).
    """

    def __init__(self, files: Mapping[str, Mapping[str, Any]]) -> None:
        self._exact: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self._by_type: Dict[str, Dict[str, Any]] = {}
        self._wildcard: Dict[str, Any] = {}
        for selector, values in files.items():
            if selector == "*":
                self._wildcard = dict(values)
                continue
            match = _SELECTOR.match(selector)
            if match is None:
                raise ValueError("bad node selector %r" % selector)
            node_type = match.group("type")
            index = match.group("index")
            if index is None:
                self._by_type[node_type] = dict(values)
            else:
                self._exact[(node_type, int(index))] = dict(values)

    def value_for(self, node_type: str, node_index: int, name: str) -> Any:
        for source in (self._exact.get((node_type, node_index)),
                       self._by_type.get(node_type),
                       self._wildcard):
            if source is not None and name in source:
                return source[name]
        return NO_OVERRIDE


def integration_session(files: Mapping[str, Mapping[str, Any]]) -> ConfAgent:
    """A ConfAgent session that deploys the given per-node config files.

    >>> with integration_session({
    ...     "NameNode": {"dfs.heartbeat.interval": 3},
    ...     "DataNode[1]": {"dfs.heartbeat.interval": 3000},
    ... }):
    ...     cluster = MiniDFSCluster(HdfsConfiguration(), num_datanodes=2)
    ...     ...
    """
    return ConfAgent(assignment=FileAssignment(files))
