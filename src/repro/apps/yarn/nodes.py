"""YARN nodes: ResourceManager, NodeManager, ApplicationHistoryServer."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.common.errors import AllocationError, ConnectError
from repro.common.httpserver import HttpServer
from repro.common.ipc import RpcClient, RpcServer
from repro.common.node import Node, node_init, register_node_type
from repro.common.security import DelegationTokenManager

register_node_type("yarn", "ResourceManager")
register_node_type("yarn", "NodeManager")
register_node_type("yarn", "ApplicationHistoryServer")


class ResourceManager(Node):
    node_type = "ResourceManager"

    def __init__(self, conf: Any, cluster: Any, rm_id: str = "rm0") -> None:
        with node_init(self):
            super().__init__(conf, cluster)
            self.rm_id = rm_id
            from repro.apps.yarn.conf import YarnConfiguration
            cluster.ensure_ipc(YarnConfiguration)
            self.rpc = RpcServer("ResourceManager-%s" % rm_id, self.conf)
            self.rpc.register("register_nodemanager", self.register_nodemanager)
            self.rpc.register("submit_application", self.submit_application)
            self.rpc.register("allocate", self.allocate)
            self.rpc.register("release_container", self.release_container)
            self.rpc.register("get_delegation_token", self.get_delegation_token)
            self.token_manager = DelegationTokenManager(
                renew_interval_fn=lambda: self.conf.get_int(
                    "yarn.resourcemanager.delegation.token.renew-interval")
                / 1000.0)
            self.nodemanagers: Dict[str, Dict[str, Any]] = {}
            self.applications: Dict[str, Dict[str, Any]] = {}
            self._scheduler_class = self.conf.get_str(
                "yarn.resourcemanager.scheduler.class")
            self._min_alloc_mb = self.conf.get_int(
                "yarn.scheduler.minimum-allocation-mb")
            self._am_max_attempts = self.conf.get_int(
                "yarn.resourcemanager.am.max-attempts")
            self._nm_expiry_ms = self.conf.get_int(
                "yarn.nm.liveness-monitor.expiry-interval-ms")

    # ------------------------------------------------------------------
    def register_nodemanager(self, nm_id: str, memory_mb: int,
                             vcores: int) -> bool:
        self.nodemanagers[nm_id] = {"memory_mb": memory_mb, "vcores": vcores,
                                    "used_mb": 0, "used_vcores": 0}
        return True

    def submit_application(self, app_id: str) -> bool:
        self.applications[app_id] = {"containers": []}
        return True

    def allocate(self, app_id: str, memory_mb: int, vcores: int) -> Dict[str, Any]:
        """Grant a container, validating the request against *this RM's*
        scheduler maximums (Table 3: yarn.scheduler.maximum-allocation-mb
        / -vcores — 'ResourceManager disallows value decreasement') and
        placing it on a NodeManager with sufficient free resources."""
        max_mb = self.conf.get_int("yarn.scheduler.maximum-allocation-mb")
        max_vcores = self.conf.get_int("yarn.scheduler.maximum-allocation-vcores")
        if memory_mb > max_mb:
            raise AllocationError(
                "requested %d MB exceeds the scheduler maximum of %d MB"
                % (memory_mb, max_mb))
        if vcores > max_vcores:
            raise AllocationError(
                "requested %d vcores exceeds the scheduler maximum of %d"
                % (vcores, max_vcores))
        nm_id = self._place(memory_mb, vcores)
        container = {"memory_mb": memory_mb, "vcores": vcores, "node": nm_id}
        self.applications[app_id]["containers"].append(container)
        return container

    def _place(self, memory_mb: int, vcores: int) -> str:
        """First-fit placement over registered NodeManager capacities."""
        for nm_id in sorted(self.nodemanagers):
            node = self.nodemanagers[nm_id]
            if (node["memory_mb"] - node["used_mb"] >= memory_mb
                    and node["vcores"] - node["used_vcores"] >= vcores):
                node["used_mb"] += memory_mb
                node["used_vcores"] += vcores
                return nm_id
        raise AllocationError(
            "no NodeManager has %d MB / %d vcores free" % (memory_mb, vcores))

    def release_container(self, app_id: str, container: Dict[str, Any]) -> bool:
        node = self.nodemanagers.get(container.get("node"))
        if node is not None:
            node["used_mb"] = max(node["used_mb"] - container["memory_mb"], 0)
            node["used_vcores"] = max(node["used_vcores"] - container["vcores"],
                                      0)
        containers = self.applications.get(app_id, {}).get("containers", [])
        if container in containers:
            containers.remove(container)
        return True

    def get_delegation_token(self) -> Dict[str, Any]:
        token = self.token_manager.issue(self.sim.now)
        return {"token_id": token.token_id, "issue_time": token.issue_time,
                "expiry_time": token.expiry_time, "issuer": self.rm_id}


class NodeManager(Node):
    node_type = "NodeManager"

    def __init__(self, conf: Any, cluster: Any, nm_id: str) -> None:
        with node_init(self):
            super().__init__(conf, cluster)
            self.nm_id = nm_id
            from repro.apps.yarn.conf import YarnConfiguration
            self.rpc_client = RpcClient(
                self.conf, ipc=cluster.ensure_ipc(YarnConfiguration))
            self._memory_mb = self.conf.get_int(
                "yarn.nodemanager.resource.memory-mb")
            self._vcores = self.conf.get_int(
                "yarn.nodemanager.resource.cpu-vcores")
            #: internal field behind the private-API false positive.
            self._vmem_pmem_ratio = self.conf.get_float(
                "yarn.nodemanager.vmem-pmem-ratio")
            self._log_aggregation = self.conf.get_bool(
                "yarn.log-aggregation-enable")
            # audit fixture: read but inert — nothing consumes this value
            self._container_metrics_period_ms = self.conf.get_int(
                "yarn.nodemanager.container-metrics.period-ms")

    def start(self) -> None:
        super().start()
        self.rpc_client.call(self.cluster.resourcemanager.rpc,
                             "register_nodemanager", self.nm_id,
                             self._memory_mb, self._vcores)


class ApplicationHistoryServer(Node):
    node_type = "ApplicationHistoryServer"

    def __init__(self, conf: Any, cluster: Any) -> None:
        with node_init(self):
            super().__init__(conf, cluster)
            #: the timeline collector only runs when *this server's*
            #: configuration enables it (Table 3:
            #: yarn.timeline-service.enabled).
            self.timeline_enabled = self.conf.get_bool(
                "yarn.timeline-service.enabled")
            self._ttl_ms = self.conf.get_int("yarn.timeline-service.ttl-ms")
            self.entities: List[Dict[str, Any]] = []
            self.http = HttpServer("ApplicationHistoryServer",
                                   self.conf.get_enum("yarn.http.policy"))
            self.http.route("/ws/v1/timeline", self._handle_timeline_query)
            self.http.route("/ws/v1/applicationhistory", self._handle_history)

    def post_entity(self, entity: Dict[str, Any]) -> None:
        if not self.timeline_enabled:
            raise ConnectError(
                "client fails to connect to the Timeline Server: the "
                "timeline service is not running on this host")
        self.entities.append(entity)

    def _handle_timeline_query(self) -> List[Dict[str, Any]]:
        return list(self.entities)

    def _handle_history(self) -> Dict[str, Any]:
        return {"entities": len(self.entities)}
