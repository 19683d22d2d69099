"""The NameNode: namespace + block manager + heartbeat monitor + web UI.

Every client- and DataNode-facing operation reads configuration through
*this node's* configuration object, so ZebraConf's ConfAgent can give the
NameNode different values than its peers — which is exactly how the
paper's NameNode-side Table-3 failures (fs limits, snapshot policy,
heartbeat expiry, corrupt-block truncation, upgrade domains, token and
encryption-key distribution) reproduce here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.apps.hdfs.blockmanager import BlockManager
from repro.apps.hdfs.namespace import Namespace
from repro.common.errors import RpcError
from repro.common.httpserver import HttpServer
from repro.common.ipc import RpcServer
from repro.common.node import Node, node_init, register_node_type
from repro.common.security import (BlockTokenSecretManager,
                                   DataEncryptionKeyManager)
from repro.common.simulation import PeriodicTask

register_node_type("hdfs", "NameNode")


class DatanodeDescriptor:
    """NameNode-side record of one registered DataNode."""

    def __init__(self, dn_id: str, capacity: int, now: float) -> None:
        self.dn_id = dn_id
        self.capacity = capacity
        self.remaining = capacity
        self.last_heartbeat = now
        self.declared_dead = False


class NameNode(Node):
    node_type = "NameNode"

    def __init__(self, conf: Any, cluster: Any, nn_id: str = "nn0",
                 standby: bool = False) -> None:
        with node_init(self):
            super().__init__(conf, cluster)
            self.nn_id = nn_id
            self.standby = standby

            # security managers use this NameNode's flags
            self.token_manager = BlockTokenSecretManager(
                self.conf.get_bool("dfs.block.access.token.enable"))
            self.encryption_manager = DataEncryptionKeyManager(
                self.conf.get_bool("dfs.encrypt.data.transfer"))

            self.namespace = Namespace(
                max_component_length_fn=lambda: self.conf.get_int(
                    "dfs.namenode.fs-limits.max-component-length"),
                max_directory_items_fn=lambda: self.conf.get_int(
                    "dfs.namenode.fs-limits.max-directory-items"))
            self.block_manager = BlockManager(
                upgrade_domain_factor_fn=lambda: self.conf.get_int(
                    "dfs.namenode.upgrade.domain.factor"),
                max_corrupt_returned_fn=lambda: self.conf.get_int(
                    "dfs.namenode.max-corrupt-file-blocks-returned"))

            self.datanodes: Dict[str, DatanodeDescriptor] = {}
            from repro.apps.hdfs.conf import HdfsConfiguration
            from repro.common.ipc import RpcClient
            self._journal_client = RpcClient(
                self.conf, ipc=cluster.ensure_ipc(HdfsConfiguration))
            self.rpc = RpcServer("NameNode-%s" % nn_id, self.conf)
            self._register_rpc_methods()

            # web endpoint: bind per this node's policy; the address
            # companion comes from the §4 dependency rules.
            policy = self.conf.get_enum("dfs.http.policy")
            if policy == "HTTPS_ONLY":
                self.web_address = self.conf.get_str("dfs.namenode.https-address")
            else:
                self.web_address = self.conf.get_str("dfs.namenode.http-address")
            self.http = HttpServer("NameNode-%s" % nn_id, policy)
            self.http.route("/fsck", self._handle_fsck)
            self.http.route("/jmx", self._handle_jmx)

            # plain init-time reads (safe parameters feeding the pools)
            self._handler_count = self.conf.get_int("dfs.namenode.handler.count")
            self._service_handlers = self.conf.get_int(
                "dfs.namenode.service.handler.count")
            self._name_dir = self.conf.get_str("dfs.namenode.name.dir")
            self._edits_dir = self.conf.get_str("dfs.namenode.edits.dir")
            self._accesstime_precision = self.conf.get_int(
                "dfs.namenode.accesstime.precision")
            self._acls_enabled = self.conf.get_bool("dfs.namenode.acls.enabled")

            # internals behind the private-observability false positives
            self._safemode_threshold = self.conf.get_float(
                "dfs.namenode.safemode.threshold-pct")
            self._replication_work_multiplier = self.conf.get_int(
                "dfs.namenode.replication.work.multiplier.per.iteration")
            self._cache_refresh_interval_ms = self.conf.get_int(
                "dfs.namenode.path.based.cache.refresh.interval.ms")

            # HA plumbing
            self.journal: Optional[Any] = None  # JournalNode, set by cluster
            self._next_txid = 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self.add_periodic(PeriodicTask(
            self.sim,
            interval_fn=lambda: self.conf.get_int(
                "dfs.namenode.heartbeat.recheck-interval") / 1000.0,
            callback=self._heartbeat_sweep))

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------
    def _register_rpc_methods(self) -> None:
        rpc = self.rpc
        rpc.register("register_datanode", self.register_datanode)
        rpc.register("heartbeat", self.handle_heartbeat)
        rpc.register("incremental_block_report", self.handle_incremental_report)
        rpc.register("full_block_report", self.handle_full_block_report)
        rpc.register("block_received", self.handle_block_received)
        rpc.register("mkdirs", self.mkdirs)
        rpc.register("list_dir", self.list_dir)
        rpc.register("create_file", self.create_file)
        rpc.register("add_block", self.add_block)
        rpc.register("delete", self.delete)
        rpc.register("rename", self.rename)
        rpc.register("get_block_locations", self.get_block_locations)
        rpc.register("get_additional_datanode", self.get_additional_datanode)
        rpc.register("report_bad_blocks", self.report_bad_blocks)
        rpc.register("list_corrupt_file_blocks", self.list_corrupt_file_blocks)
        rpc.register("get_stats", self.get_stats)
        rpc.register("get_data_encryption_key", self.get_data_encryption_key)
        rpc.register("allow_snapshot", self.allow_snapshot)
        rpc.register("create_snapshot", self.create_snapshot)
        rpc.register("snapshot_diff", self.snapshot_diff)
        rpc.register("validate_move", self.validate_move)
        rpc.register("apply_move", self.apply_move)
        rpc.register("get_upgrade_domains", self.get_upgrade_domains)
        rpc.register("get_upgrade_domain_factor", self.get_upgrade_domain_factor)

    # ------------------------------------------------------------------
    # DataNode lifecycle
    # ------------------------------------------------------------------
    def register_datanode(self, dn_id: str, capacity: int,
                          upgrade_domain: str) -> Dict[str, Any]:
        self.datanodes[dn_id] = DatanodeDescriptor(dn_id, capacity, self.sim.now)
        self.block_manager.set_upgrade_domain(dn_id, upgrade_domain)
        key = self.encryption_manager.current_key()
        return {
            "block_keys": self.token_manager.current_keys(),
            "encryption_key": None if key is None else
                {"key_id": key.key_id, "material": key.material.hex()},
        }

    def handle_heartbeat(self, dn_id: str, remaining: int) -> Dict[str, Any]:
        descriptor = self.datanodes.get(dn_id)
        if descriptor is None:
            raise RpcError("heartbeat from unregistered DataNode %s" % dn_id)
        descriptor.last_heartbeat = self.sim.now
        descriptor.remaining = remaining
        descriptor.declared_dead = False
        # heartbeat responses carry the current data encryption key, so
        # DataNodes keep decrypting after the NameNode rolls it
        key = self.encryption_manager.current_key()
        return {"ack": True,
                "encryption_key": None if key is None else
                    {"key_id": key.key_id, "material": key.material.hex()}}

    def _heartbeat_expiry_s(self) -> float:
        """HDFS's expiry formula, computed from *this node's* values."""
        recheck_ms = self.conf.get_int("dfs.namenode.heartbeat.recheck-interval")
        interval_s = self.conf.get_int("dfs.heartbeat.interval")
        return (2 * recheck_ms + 10 * 1000 * interval_s) / 1000.0

    def _heartbeat_sweep(self) -> None:
        expiry = self._heartbeat_expiry_s()
        for descriptor in self.datanodes.values():
            silence = self.sim.now - descriptor.last_heartbeat
            descriptor.declared_dead = silence > expiry

    def dead_datanodes(self) -> List[str]:
        return sorted(d.dn_id for d in self.datanodes.values() if d.declared_dead)

    def stale_datanodes(self) -> List[str]:
        threshold = self.conf.get_int("dfs.namenode.stale.datanode.interval") / 1000.0
        return sorted(d.dn_id for d in self.datanodes.values()
                      if self.sim.now - d.last_heartbeat > threshold)

    def live_datanodes(self) -> List[str]:
        return sorted(d.dn_id for d in self.datanodes.values()
                      if not d.declared_dead)

    # ------------------------------------------------------------------
    # namespace operations (each logs an edit when HA journaling is on)
    # ------------------------------------------------------------------
    def mkdirs(self, path: str) -> bool:
        self.namespace.mkdirs(path)
        self._log_edit(["mkdirs", path])
        return True

    def list_dir(self, path: str) -> List[str]:
        return sorted(self.namespace.lookup_dir(path).children)

    def create_file(self, path: str, replication: int = 3) -> bool:
        self.namespace.create_file(path, replication=replication)
        self._log_edit(["create", path, replication])
        return True

    def add_block(self, path: str, size: int, pipeline_width: int) -> Dict[str, Any]:
        inode = self.namespace.lookup_file(path)
        live = self.live_datanodes()
        if len(live) < pipeline_width:
            raise RpcError("only %d live DataNodes for a width-%d pipeline"
                           % (len(live), pipeline_width))
        info = self.block_manager.allocate(path, size)
        inode.block_ids.append(info.block_id)
        token = self.token_manager.mint(info.block_id)
        key = self.encryption_manager.current_key()
        return {
            "block_id": info.block_id,
            "pipeline": live[:pipeline_width],
            "token": None if token is None else
                {"block_id": token.block_id, "key_id": token.key_id},
            "encryption_key": None if key is None else
                {"key_id": key.key_id, "material": key.material.hex()},
        }

    def handle_block_received(self, dn_id: str, block_id: int) -> bool:
        self.block_manager.add_replica(block_id, dn_id)
        return True

    def delete(self, path: str) -> int:
        """Delete a path; replicas are removed from DataNodes asynchronously
        and leave the block map when incremental reports arrive."""
        block_ids = self.namespace.delete(path)
        self._log_edit(["delete", path])
        for block_id in block_ids:
            info = self.block_manager.blocks.get(block_id)
            if info is None:
                continue
            for dn_id in sorted(info.locations):
                self.block_manager.begin_deletion(block_id, dn_id)
                datanode = self.cluster.datanode(dn_id)
                if datanode is not None and datanode.running:
                    datanode.schedule_block_deletion(block_id)
        return len(block_ids)

    def rename(self, src: str, dst: str) -> bool:
        self.namespace.rename(src, dst)
        self._log_edit(["rename", src, dst])
        return True

    def handle_incremental_report(self, dn_id: str,
                                  deleted_block_ids: List[int]) -> bool:
        self.block_manager.apply_incremental_report(dn_id, deleted_block_ids)
        return True

    def handle_full_block_report(self, dn_id: str,
                                 block_ids: List[int]) -> int:
        """Reconcile a full report: register replicas the block map is
        missing (removals still arrive via incremental reports, keeping
        dfs.blockreport.incremental.intervalMsec's semantics intact)."""
        added = 0
        for block_id in block_ids:
            info = self.block_manager.blocks.get(block_id)
            if info is not None and dn_id not in info.locations:
                info.locations.add(dn_id)
                added += 1
        return added

    def get_block_locations(self, path: str) -> List[Dict[str, Any]]:
        inode = self.namespace.lookup_file(path)
        out = []
        for block_id in inode.block_ids:
            info = self.block_manager.blocks.get(block_id)
            locations = sorted(info.locations) if info is not None else []
            token = self.token_manager.mint(block_id)
            out.append({"block_id": block_id, "locations": locations,
                        "token": None if token is None else
                            {"block_id": token.block_id, "key_id": token.key_id}})
        return out

    def get_additional_datanode(self, existing: List[str]) -> str:
        """Pipeline-recovery replacement (Table 3:
        dfs.client.block.write.replace-datanode-on-failure.enable)."""
        if not self.conf.get_bool(
                "dfs.client.block.write.replace-datanode-on-failure.enable"):
            raise RpcError(
                "replace-datanode-on-failure is disabled on the NameNode; "
                "refusing to find an additional DataNode")
        for dn_id in self.live_datanodes():
            if dn_id not in existing:
                return dn_id
        raise RpcError("no spare DataNode available")

    # ------------------------------------------------------------------
    # corrupt blocks and stats
    # ------------------------------------------------------------------
    def report_bad_blocks(self, block_ids: List[int]) -> bool:
        self.block_manager.report_bad_blocks(block_ids)
        return True

    def list_corrupt_file_blocks(self) -> List[int]:
        return self.block_manager.list_corrupt_file_blocks()

    def get_stats(self) -> Dict[str, Any]:
        live = [d for d in self.datanodes.values() if not d.declared_dead]
        return {
            "capacity": sum(d.capacity for d in live),
            "remaining": sum(d.remaining for d in live),
            "live": len(live),
            "dead": len(self.dead_datanodes()),
            "stale": len(self.stale_datanodes()),
            "blocks": self.block_manager.live_block_count(),
        }

    def get_data_encryption_key(self) -> Optional[Dict[str, Any]]:
        key = self.encryption_manager.current_key()
        if key is None:
            return None
        return {"key_id": key.key_id, "material": key.material.hex()}

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def allow_snapshot(self, path: str) -> bool:
        self.namespace.allow_snapshot(path)
        return True

    def create_snapshot(self, path: str, name: str) -> bool:
        self.namespace.create_snapshot(path, name)
        return True

    def snapshot_diff(self, snapshot_root: str, scope_path: str,
                      from_snapshot: str) -> List[str]:
        return self.namespace.snapshot_diff(
            snapshot_root, scope_path, from_snapshot,
            allow_descendant_fn=lambda: self.conf.get_bool(
                "dfs.namenode.snapshotdiff.allow.snap-root-descendant"))

    # ------------------------------------------------------------------
    # balancer support
    # ------------------------------------------------------------------
    def validate_move(self, block_id: int, source_dn: str, target_dn: str) -> bool:
        self.block_manager.validate_move(block_id, source_dn, target_dn)
        return True

    def apply_move(self, block_id: int, source_dn: str, target_dn: str) -> bool:
        self.block_manager.apply_move(block_id, source_dn, target_dn)
        return True

    def get_upgrade_domains(self) -> Dict[str, str]:
        return dict(self.block_manager.upgrade_domains)

    def get_upgrade_domain_factor(self) -> int:
        """§7.3 remediation: let the Balancer *fetch* the domain factor
        from the NameNode instead of reading its own configuration file
        ("A possible solution ... is to let Balancer fetch the value of
        the domain factor from the corresponding NameNode")."""
        return self.conf.get_int("dfs.namenode.upgrade.domain.factor")

    # ------------------------------------------------------------------
    # HA: edit journaling and standby tailing
    # ------------------------------------------------------------------
    def _log_edit(self, edit: List[Any]) -> None:
        if self.journal is None or self.standby:
            return
        self.journal.journal(self._next_txid, edit)
        self._next_txid += 1

    def finalize_log_segment(self) -> None:
        if self.journal is not None:
            self.journal.finalize_segment()

    def tail_edits(self) -> int:
        """Standby-side tailing: request edits from the JournalNode with
        *this node's* in-progress setting (Table 3:
        dfs.ha.tail-edits.in-progress)."""
        include_in_progress = self.conf.get_bool("dfs.ha.tail-edits.in-progress")
        edits = self._journal_client.call(
            self.journal.rpc, "get_journaled_edits",
            self._next_txid, include_in_progress)
        for txid, edit in edits:
            self._apply_edit(edit)
            self._next_txid = txid + 1
        return len(edits)

    def _apply_edit(self, edit: List[Any]) -> None:
        op = edit[0]
        if op == "mkdirs":
            self.namespace.mkdirs(edit[1])
        elif op == "create":
            self.namespace.create_file(edit[1], replication=edit[2])
        elif op == "delete":
            self.namespace.delete(edit[1])
        elif op == "rename":
            self.namespace.rename(edit[1], edit[2])
        else:
            raise RpcError("unknown edit op %r" % op)

    # ------------------------------------------------------------------
    # fsimage (dfs.image.compress)
    # ------------------------------------------------------------------
    def save_image(self) -> bytes:
        return self.namespace.save_image(
            compress=self.conf.get_bool("dfs.image.compress"))

    # ------------------------------------------------------------------
    # web handlers
    # ------------------------------------------------------------------
    def _handle_fsck(self) -> Dict[str, Any]:
        return {
            "healthy": not self.block_manager.corrupt and not self.dead_datanodes(),
            "corrupt_blocks": len(self.block_manager.corrupt),
            "dead_datanodes": self.dead_datanodes(),
        }

    def _handle_jmx(self) -> Dict[str, Any]:
        return self.get_stats()
