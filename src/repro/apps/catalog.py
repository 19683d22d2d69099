"""Catalog of target applications: registries, rules, ground truth.

The campaign order matches Table 5's columns (Flink, Hadoop Tools,
HBase, HDFS, MapReduce, YARN).  Ground-truth sets mirror Table 3 and the
§7.1 false-positive discussion; they are consumed only by benchmarks and
tests, never by detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.params import ParamRegistry
from repro.core.registry import load_all_suites
from repro.core.testgen import DependencyRule

#: Table 5 column order.
APP_NAMES = ("flink", "hadooptools", "hbase", "hdfs", "mapreduce", "yarn")

#: Table 1 statistics from the paper, for side-by-side reporting.
PAPER_STATISTICS = {
    "flink": {"unit_tests": 26226, "app_params": 447},
    "hadooptools": {"unit_tests": 1518, "app_params": 0},
    "hbase": {"unit_tests": 4985, "app_params": 206},
    "hdfs": {"unit_tests": 6445, "app_params": 579},
    "mapreduce": {"unit_tests": 1423, "app_params": 210},
    "yarn": {"unit_tests": 4806, "app_params": 465},
    "hadoop-common": {"unit_tests": 0, "app_params": 336},
}

#: Table 3's "why the parameter is heterogeneous unsafe" column, verbatim.
TABLE3_WHY = {
    # Flink
    "akka.ssl.enabled":
        "TaskManager fails to connect to ResourceManager.",
    "taskmanager.data.ssl.enabled":
        "TaskManager fails to decode peer message due to invalid SSL/TLS "
        "record.",
    "taskmanager.numberOfTaskSlots":
        "JobManager fails to allocate slot from TaskManager.",
    # Hadoop Common
    "hadoop.rpc.protection":
        "RPC client fails to connect to RPC servers.",
    "ipc.client.rpc-timeout.ms":
        "Socket connection timeouts.",
    # HBase
    "hbase.regionserver.thrift.compact":
        "Thrift Admin fails to communicate with Thrift Server.",
    "hbase.regionserver.thrift.framed":
        "Thrift Admin fails to communicate with Thrift Server.",
    # HDFS
    "dfs.block.access.token.enable":
        "DataNode fails to register block pools.",
    "dfs.bytes-per-checksum":
        "Checksum verification fails on DataNode.",
    "dfs.blockreport.incremental.intervalMsec":
        "End users may observe inconsistent number of blocks.",
    "dfs.checksum.type":
        "Checksum verification fails on DataNode.",
    "dfs.client.block.write.replace-datanode-on-failure.enable":
        "NameNode reports Exception when Client tries to find additional "
        "DataNode.",
    "dfs.client.socket-timeout":
        "Socket connection timeouts.",
    "dfs.datanode.balance.bandwidthPerSec":
        "Balancer timeouts because DataNode fails to reply in time.",
    "dfs.datanode.balance.max.concurrent.moves":
        "Balancer becomes 10x slower due to DataNode congestion control.",
    "dfs.datanode.du.reserved":
        "End users may observe inconsistent size of reserved space.",
    "dfs.data.transfer.protection":
        "Sasl handshake fails between Client and DataNode.",
    "dfs.encrypt.data.transfer":
        "DataNode fails to re-compute encryption key as block key is "
        "missing.",
    "dfs.ha.tail-edits.in-progress":
        "JournalNode declines NameNode's request to fetch journaled edits.",
    "dfs.heartbeat.interval":
        "NameNode falsely identifies alive DataNode as crashed.",
    "dfs.http.policy":
        "Tool DFSck fails to connect to HTTP server.",
    "dfs.namenode.fs-limits.max-component-length":
        "Length of component name path exceeds maximum limit on NameNode.",
    "dfs.namenode.fs-limits.max-directory-items":
        "Directory item number exceeds maximum limit on NameNode.",
    "dfs.namenode.heartbeat.recheck-interval":
        "End users may observe inconsistent number of dead DataNodes.",
    "dfs.namenode.max-corrupt-file-blocks-returned":
        "End users may observe inconsistent number of corrupted blocks.",
    "dfs.namenode.snapshotdiff.allow.snap-root-descendant":
        "NameNode declines Client's request to do snapshot.",
    "dfs.namenode.stale.datanode.interval":
        "End users may observe inconsistent number of stale DataNodes.",
    "dfs.namenode.upgrade.domain.factor":
        "Balancer hangs because of block placement policy violation on "
        "NameNode.",
    # MapReduce
    "mapreduce.fileoutputcommitter.algorithm.version":
        "Different Mapper/Reducer output commit dirs cause Hadoop Archive "
        "error.",
    "mapreduce.job.encrypted-intermediate-data":
        "Reducer fails during shuffling due to checksum error.",
    "mapreduce.job.maps":
        "Reducer fails when copying Mapper output.",
    "mapreduce.job.reduces":
        "Reducer fails when copying Mapper output.",
    "mapreduce.map.output.compress":
        "Reducer fails during shuffling due to incorrect header.",
    "mapreduce.map.output.compress.codec":
        "Reducer fails during shuffling due to incorrect header.",
    "mapreduce.output.fileoutputformat.compress":
        "End users may observe inconsistent names of output files.",
    "mapreduce.shuffle.ssl.enabled":
        "NodeManager's Pluggable Shuffle fails to decode messages.",
    # Yarn
    "yarn.http.policy":
        "Client fails to connect with Timeline web services.",
    "yarn.resourcemanager.delegation.token.renew-interval":
        "End users may observe newer tokens expire earlier than prior "
        "tokens.",
    "yarn.scheduler.maximum-allocation-mb":
        "ResourceManager disallows value decreasement.",
    "yarn.scheduler.maximum-allocation-vcores":
        "ResourceManager disallows value decreasement.",
    "yarn.timeline-service.enabled":
        "Client fails to connect to Timeline Server.",
}

#: Table 5 instance counts from the paper, for side-by-side reporting.
PAPER_TABLE5 = {
    "flink": (7193881080, 2019422, 1972278, 259573),
    "hadooptools": (373850400, 356016, 346588, 89744),
    "hbase": (557761680, 6145374, 6033174, 1438929),
    "hdfs": (387499008, 10404952, 10242886, 1968218),
    "mapreduce": (284486160, 482272, 430800, 104588),
    "yarn": (705346824, 668020, 640338, 312726),
}


@dataclass(frozen=True)
class AppSpec:
    name: str
    registry: ParamRegistry
    dependency_rules: Tuple[DependencyRule, ...] = ()
    expected_unsafe: Tuple[str, ...] = ()
    expected_false_positives: Tuple[str, ...] = ()


def spec_for(app: str) -> AppSpec:
    load_all_suites()
    import repro.apps.flink as flink
    import repro.apps.hbase as hbase
    import repro.apps.hdfs as hdfs
    import repro.apps.hadooptools as hadooptools
    import repro.apps.mapreduce as mapreduce
    import repro.apps.yarn as yarn
    from repro.apps.commonlib import common_ground_truth

    common = common_ground_truth()
    specs = {
        "flink": AppSpec(
            "flink", flink.FLINK_REGISTRY,
            expected_unsafe=flink.EXPECTED_UNSAFE,
            expected_false_positives=flink.EXPECTED_FALSE_POSITIVES),
        "hadooptools": AppSpec(
            "hadooptools", hdfs.HDFS_FULL_REGISTRY,
            dependency_rules=tuple(hdfs.HDFS_DEPENDENCY_RULES),
            expected_unsafe=tuple(hadooptools.EXPECTED_UNSAFE_VIA_TOOLS)),
        "hbase": AppSpec(
            "hbase", hbase.HBASE_FULL_REGISTRY,
            dependency_rules=tuple(hdfs.HDFS_DEPENDENCY_RULES),
            expected_unsafe=hbase.EXPECTED_UNSAFE,
            expected_false_positives=hbase.EXPECTED_FALSE_POSITIVES),
        "hdfs": AppSpec(
            "hdfs", hdfs.HDFS_FULL_REGISTRY,
            dependency_rules=tuple(hdfs.HDFS_DEPENDENCY_RULES),
            # hadoop.rpc.protection surfaces through every HDFS RPC; the
            # other Common parameter (ipc.client.rpc-timeout.ms) needs the
            # long-running DistCp listing and belongs to the Hadoop Tools
            # campaign's expectations.
            expected_unsafe=hdfs.EXPECTED_UNSAFE + ("hadoop.rpc.protection",),
            expected_false_positives=hdfs.EXPECTED_FALSE_POSITIVES
            + tuple(common["false_positives"])),
        "mapreduce": AppSpec(
            "mapreduce", mapreduce.MAPREDUCE_FULL_REGISTRY,
            dependency_rules=tuple(mapreduce.MAPREDUCE_DEPENDENCY_RULES),
            expected_unsafe=mapreduce.EXPECTED_UNSAFE,
            expected_false_positives=mapreduce.EXPECTED_FALSE_POSITIVES),
        "yarn": AppSpec(
            "yarn", yarn.YARN_FULL_REGISTRY,
            expected_unsafe=yarn.EXPECTED_UNSAFE,
            expected_false_positives=yarn.EXPECTED_FALSE_POSITIVES),
    }
    return specs[app]


def section_for_param(param: str) -> str:
    """The Table-3 section a parameter is listed under."""
    if param.startswith("dfs."):
        return "HDFS"
    if param.startswith("mapreduce."):
        return "MapReduce"
    if param.startswith("yarn."):
        return "Yarn"
    if param.startswith("hbase."):
        return "HBase"
    if param.startswith(("hadoop.", "ipc.", "io.", "fs.", "file.", "net.",
                         "seq.")):
        return "Hadoop Common"
    return "Flink"


def paper_ground_truth() -> Dict[str, Dict[str, Tuple[str, ...]]]:
    """Expected unsafe / false-positive params per campaign."""
    return {app: {
        "unsafe": spec_for(app).expected_unsafe,
        "false_positives": spec_for(app).expected_false_positives,
    } for app in APP_NAMES}
