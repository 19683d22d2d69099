"""HDFS corpus: tests that produce the paper's false positives, tests
without nodes, and the uncertain-configuration-object scenario.

The metadata on these registrations (``realistic``, ``observability``,
``strict_assertion``) mirrors what the paper's authors read off the unit
tests during manual analysis; ZebraConf's detection never consults it —
only triage does.
"""

from __future__ import annotations

from repro.apps.hdfs import HdfsConfiguration, MiniDFSCluster
from repro.apps.hdfs.namespace import split_path
from repro.common.errors import TestFailure
from repro.common.wire import compute_checksums
from repro.core.registry import TestContext, unit_test


@unit_test("hdfs", "TestSafeMode.testThresholdInternals",
           observability="private", tags=("internals",),
           notes="§7.1 FP: asserts a NameNode-internal field against the "
                 "test's configuration; only private APIs expose it.")
def test_safemode_threshold_internal(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        expected = conf.get_float("dfs.namenode.safemode.threshold-pct")
        if cluster.namenode._safemode_threshold != expected:
            raise TestFailure("safe-mode threshold internals diverged from "
                              "the test's configuration")


@unit_test("hdfs", "TestReplicationMonitor.testWorkMultiplierInternals",
           observability="private", tags=("internals",))
def test_replication_work_multiplier_internal(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        expected = conf.get_int(
            "dfs.namenode.replication.work.multiplier.per.iteration")
        if cluster.namenode._replication_work_multiplier != expected:
            raise TestFailure("replication work multiplier internals "
                              "diverged from the test's configuration")


@unit_test("hdfs", "TestCacheDirectives.testRefreshIntervalInternals",
           observability="private", tags=("internals",))
def test_cache_refresh_interval_internal(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        expected = conf.get_int(
            "dfs.namenode.path.based.cache.refresh.interval.ms")
        if cluster.namenode._cache_refresh_interval_ms != expected:
            raise TestFailure("cache rescan interval internals diverged "
                              "from the test's configuration")


@unit_test("hdfs", "TestDirectoryScanner.testScanIntervalInternals",
           observability="private", tags=("internals",))
def test_directory_scanner_interval_internal(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=2) as cluster:
        cluster.start()
        expected = conf.get_int("dfs.datanode.directoryscan.interval")
        for datanode in cluster.datanodes:
            if datanode._directoryscan_interval != expected:
                raise TestFailure("directory scanner internals diverged "
                                  "from the test's configuration")


@unit_test("hdfs", "TestDataXceiver.testDirectTransferAdmission",
           realistic=False, tags=("internals",),
           notes="§7.1 FP: the test drives a DataNode-private admission "
                 "check with a workload sized from the *client's* conf — "
                 "impossible through any real RPC.")
def test_direct_transfer_admission(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        workload = min(conf.get_int("dfs.datanode.max.transfer.threads"), 64)
        # Directly invoking the DataNode's private admission check — a
        # client could never do this across process boundaries.
        cluster.datanodes[0]._admit_transfers(workload)


@unit_test("hdfs", "TestDFSUtil.testSplitPath", tags=("util",))
def test_split_path(ctx: TestContext) -> None:
    """Pure function test: starts no nodes, so the pre-run filters it."""
    if split_path("/a/b/c") != ["a", "b", "c"]:
        raise TestFailure("split_path broke")
    if split_path("/") != []:
        raise TestFailure("root path should have no components")


@unit_test("hdfs", "TestDataChecksum.testChunkedCrcs", tags=("util",))
def test_chunked_crcs(ctx: TestContext) -> None:
    """Another node-free test exercising the checksum helper directly."""
    data = bytes(range(256)) * 4
    if len(compute_checksums(data, 256, "CRC32")) != 4:
        raise TestFailure("wrong chunk count")
    if compute_checksums(data, 256, "CRC32") == \
            compute_checksums(data, 256, "CRC32C"):
        raise TestFailure("CRC32 and CRC32C should differ")


@unit_test("hdfs", "TestHdfsAdmin.testLateConfigurationObject",
           tags=("internals",),
           notes="Creates a conf object after nodes exist; ConfAgent maps "
                 "it nowhere, so its parameters are excluded (§6.2 Obs. 3).")
def test_late_configuration_object(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        # An admin utility building its own Configuration mid-test: no
        # node is initializing and nodes already exist, so the object is
        # unmappable (uncertain).
        admin_conf = HdfsConfiguration()
        if admin_conf.get_int("dfs.blocksize") != conf.get_int("dfs.blocksize"):
            raise TestFailure("admin tool sees a different block size")
        if admin_conf.get_int("dfs.namenode.handler.count") != \
                conf.get_int("dfs.namenode.handler.count"):
            raise TestFailure("admin tool sees a different handler count")
        cluster.check_health()
