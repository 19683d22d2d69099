"""HDFS corpus: additional whole-system scenarios (shell ops, reports,
checkpoints, fsck on unhealthy clusters, multi-source balancing)."""

from __future__ import annotations

from repro.apps.hdfs import (Balancer, DFSClient, HdfsConfiguration,
                             MiniDFSCluster, run_fsck)
from repro.apps.hdfs.namespace import Namespace
from repro.common.errors import ReproError, TestFailure
from repro.core.registry import TestContext, unit_test


@unit_test("hdfs", "TestDFSShell.testMkdirMoveDelete", tags=("shell",))
def test_shell_mkdir_delete(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        client = DFSClient(conf, cluster)
        client.mkdirs("/shell/a/b")
        client.write_file("/shell/a/b/file", b"shell-data" * 8,
                          replication=1)
        deleted = client.delete("/shell/a")
        if deleted != 1:
            raise TestFailure("expected to delete 1 block, deleted %d"
                              % deleted)
        if client.get_stats()["blocks"] != 0:
            raise TestFailure("blocks survived a recursive delete")
        cluster.check_health()


@unit_test("hdfs", "TestTrash.testShellRemoveHonorsInterval",
           tags=("shell",))
def test_shell_remove_honors_trash(ctx: TestContext) -> None:
    """``-rm`` behaviour follows the *client's* fs.trash.interval: with
    trash enabled the data moves aside and blocks survive; without it
    the blocks go away.  (Trash is purely client-side, so this is safe
    under any heterogeneous assignment.)"""
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        client = DFSClient(conf, cluster)
        client.write_file("/trash/file", b"keep-or-toss" * 8, replication=1)
        outcome = client.shell_remove("/trash/file")
        if conf.get_int("fs.trash.interval") > 0:
            if client.get_stats()["blocks"] != 1:
                raise TestFailure("trash-enabled remove dropped the blocks")
            if client.read_file(outcome) != b"keep-or-toss" * 8:
                raise TestFailure("trashed file unreadable at %s" % outcome)
        else:
            if client.get_stats()["blocks"] != 0:
                raise TestFailure("remove left blocks behind")
        cluster.check_health()


@unit_test("hdfs", "TestDatanodeReport.testLiveNodeCount",
           tags=("heartbeat",))
def test_live_node_count(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=3) as cluster:
        cluster.start()
        cluster.run_for(50.0)
        stats = DFSClient(conf, cluster).get_stats()
        if stats["live"] != 3:
            raise TestFailure("expected 3 live DataNodes, NameNode reports %d"
                              % stats["live"])


@unit_test("hdfs", "TestMissingBlocks.testReadWithoutReplicas",
           tags=("storage",))
def test_read_without_replicas(ctx: TestContext) -> None:
    """Stopping the only replica holder must fail the read — with *some*
    application error, whatever the configuration."""
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        client = DFSClient(conf, cluster)
        client.write_file("/missing/file", b"soon-gone" * 8, replication=1)
        cluster.datanodes[0].stop()
        try:
            client.read_file("/missing/file")
        except ReproError:
            pass
        else:
            raise TestFailure("read succeeded with no live replica")


@unit_test("hdfs", "TestStandbyIsUpToDate.testTailAfterFinalize",
           tags=("ha",))
def test_standby_up_to_date(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1, num_namenodes=2,
                        with_journal=True) as cluster:
        cluster.start()
        client = DFSClient(conf, cluster)
        for index in range(5):
            client.mkdirs("/uptodate/d%d" % index)
        cluster.namenode.finalize_log_segment()
        cluster.standby_namenode.tail_edits()
        for index in range(5):
            if not cluster.standby_namenode.namespace.exists(
                    "/uptodate/d%d" % index):
                raise TestFailure("standby missed finalized directory %d"
                                  % index)
        cluster.check_health()


@unit_test("hdfs", "TestSecondaryNameNode.testRepeatedCheckpoints",
           tags=("ha",))
def test_repeated_checkpoints(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1, with_secondary=True) as cluster:
        cluster.start()
        client = DFSClient(conf, cluster)
        client.mkdirs("/ckpt/first")
        first = cluster.secondary.do_checkpoint()
        client.mkdirs("/ckpt/second")
        second = cluster.secondary.do_checkpoint()
        if Namespace.image_contents(first) == Namespace.image_contents(second):
            raise TestFailure("checkpoints identical despite new directory")
        if len(cluster.secondary.checkpoints) != 2:
            raise TestFailure("secondary retained %d checkpoints"
                              % len(cluster.secondary.checkpoints))
        cluster.check_health()


@unit_test("hdfs", "TestFsck.testReportsCorruption", tags=("web",))
def test_fsck_reports_corruption(ctx: TestContext) -> None:
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        client = DFSClient(conf, cluster)
        block_ids = client.write_file("/fsck/bad", b"c" * 128, replication=1)
        client.report_bad_blocks(block_ids)
        report = run_fsck(conf, cluster.namenode)
        if report["healthy"]:
            raise TestFailure("fsck called a cluster with corrupt blocks "
                              "healthy")
        if report["corrupt_blocks"] != 1:
            raise TestFailure("fsck counted %d corrupt blocks, expected 1"
                              % report["corrupt_blocks"])
        cluster.check_health()


@unit_test("hdfs", "TestWebHDFS.testRestFileOperations", tags=("web",))
def test_webhdfs_operations(ctx: TestContext) -> None:
    """Drive the NameNode's REST API; the client's scheme comes from its
    own dfs.http.policy (Table 3, same mechanism as DFSck)."""
    from repro.apps.hdfs.webhdfs import WebHdfsClient
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=1) as cluster:
        cluster.start()
        web = WebHdfsClient(conf, cluster.namenode)
        if not web.mkdirs("/web/data"):
            raise TestFailure("MKDIRS returned false")
        if not web.exists("/web/data"):
            raise TestFailure("GETFILESTATUS missed a created directory")
        if web.exists("/web/missing"):
            raise TestFailure("GETFILESTATUS invented a path")
        if "data" not in web.list_status("/web"):
            raise TestFailure("LISTSTATUS missed a child")
        cluster.check_health()


@unit_test("hdfs", "TestBalancer.testMultiSourceMoves", tags=("balancer",))
def test_multi_source_balancing(ctx: TestContext) -> None:
    """Moves drawn from two source DataNodes; finishes well inside the
    deadline under any homogeneous setting."""
    conf = HdfsConfiguration()
    with MiniDFSCluster(conf, num_datanodes=3) as cluster:
        cluster.start()
        moves = []
        for index in range(20):
            source = "dn%d" % (index % 2)
            block_id = cluster.place_block("/multi/f%02d" % index, [source])
            moves.append({"block_id": block_id, "source": source,
                          "target": "dn2"})
        balancer = Balancer(conf, cluster)
        result = balancer.run_balancing(moves, timeout_s=120.0)
        if result["moves"] != 20:
            raise TestFailure("balancer completed %d/20 moves"
                              % result["moves"])
        cluster.check_health()
