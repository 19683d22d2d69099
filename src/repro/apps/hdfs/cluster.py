"""MiniDFSCluster: the in-process HDFS cluster used by whole-system tests.

Mirrors HDFS's ``MiniDFSCluster``: NameNode(s), DataNodes, and optional
JournalNode/SecondaryNameNode all run inside one process, created from
the unit test's configuration object — the exact config-sharing pattern
ZebraConf's ConfAgent untangles (§6.1).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.apps.hdfs.datanode import DEFAULT_CAPACITY, DataNode
from repro.apps.hdfs.journal import JournalNode, SecondaryNameNode
from repro.apps.hdfs.namenode import NameNode
from repro.common.cluster import MiniCluster


class MiniDFSCluster(MiniCluster):
    """An HDFS cluster running as objects in this process."""

    def __init__(self, conf: Any, num_datanodes: int = 2,
                 num_namenodes: int = 1, with_journal: bool = False,
                 with_secondary: bool = False,
                 datanode_capacities: Optional[List[int]] = None,
                 upgrade_domains: Optional[List[str]] = None,
                 embed_wire_metadata: bool = False) -> None:
        super().__init__()
        self.conf = conf
        #: §7.3 remediation: verify block data with the *writer's*
        #: checksum parameters, which travel with the data, instead of
        #: each node's configuration file ("Embedding parameter values in
        #: the communication or in the file ... may be a good practice").
        self.embed_wire_metadata = embed_wire_metadata
        self.namenodes: List[NameNode] = []
        self.datanodes: List[DataNode] = []
        self.journalnode: Optional[JournalNode] = None
        self.secondary: Optional[SecondaryNameNode] = None

        for index in range(num_namenodes):
            self.namenodes.append(self.add_node(NameNode(
                conf, self, nn_id="nn%d" % index, standby=index > 0)))
        if with_journal:
            self.journalnode = self.add_node(JournalNode(conf, self))
            for namenode in self.namenodes:
                namenode.journal = self.journalnode
        for index in range(num_datanodes):
            capacity = DEFAULT_CAPACITY
            if datanode_capacities is not None:
                capacity = datanode_capacities[index]
            domain = "ud%d" % index
            if upgrade_domains is not None:
                domain = upgrade_domains[index]
            self.datanodes.append(self.add_node(DataNode(
                conf, self, dn_id="dn%d" % index, capacity=capacity,
                upgrade_domain=domain)))
        if with_secondary:
            self.secondary = self.add_node(SecondaryNameNode(conf, self))

    # ------------------------------------------------------------------
    @property
    def namenode(self) -> NameNode:
        return self.namenodes[0]

    @property
    def standby_namenode(self) -> NameNode:
        if len(self.namenodes) < 2:
            raise ValueError("cluster has no standby NameNode")
        return self.namenodes[1]

    def datanode(self, dn_id: str) -> Optional[DataNode]:
        for node in self.datanodes:
            if node.dn_id == dn_id:
                return node
        return None

    # ------------------------------------------------------------------
    def start(self) -> None:
        for namenode in self.namenodes:
            namenode.start()
        if self.journalnode is not None:
            self.journalnode.start()
        for datanode in self.datanodes:
            datanode.start()
        if self.secondary is not None:
            self.secondary.start()

    def fail_datanode(self, dn_id: str) -> None:
        """Simulate a DataNode crash (used for pipeline-failure tests)."""
        node = self.datanode(dn_id)
        if node is not None:
            node.stop()
            descriptor = self.namenode.datanodes.get(dn_id)
            if descriptor is not None:
                descriptor.declared_dead = True

    # ------------------------------------------------------------------
    # test seeding: place replicas without running the write pipeline
    # ------------------------------------------------------------------
    def place_block(self, path: str, dn_ids: List[str], size: int = 1024) -> int:
        """Create ``path`` (if needed) and register one block with replicas
        on ``dn_ids``.  Used by balancer tests that need a specific replica
        layout; involves no configuration reads."""
        namenode = self.namenode
        if not namenode.namespace.exists(path):
            namenode.namespace.create_file(path, replication=len(dn_ids))
        inode = namenode.namespace.lookup_file(path)
        info = namenode.block_manager.allocate(path, size)
        inode.block_ids.append(info.block_id)
        payload = b"\x00" * min(size, 4096)
        for dn_id in dn_ids:
            namenode.block_manager.add_replica(info.block_id, dn_id)
            datanode = self.datanode(dn_id)
            if datanode is not None:
                datanode.storage[info.block_id] = {"data": payload,
                                                   "checksums": [0]}
        return info.block_id
