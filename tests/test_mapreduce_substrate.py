"""Integration tests for the mini-MapReduce substrate."""

from __future__ import annotations

import contextlib

import pytest

from repro.apps.mapreduce import JobConf, JobRunner, MiniMRCluster
from repro.common import errors
from repro.core.confagent import ConfAgent
from repro.core.testgen import HeteroAssignment, ParamAssignment

LINES = ["a b c d", "b c d e", "c d e f"]


def expected_counts():
    out = {}
    for line in LINES:
        for word in line.split():
            out[word] = out.get(word, 0) + 1
    return out


def agent(param, group, group_value, other_value, pinned=()):
    return ConfAgent(assignment=HeteroAssignment((ParamAssignment(
        param=param, group=group,
        group_values=group_value if isinstance(group_value, tuple)
        else (group_value,),
        other_value=other_value, pinned=tuple(pinned)),)))


@contextlib.contextmanager
def job_session(session_agent):
    with session_agent:
        conf = JobConf()
        cluster = MiniMRCluster(conf)
        try:
            cluster.start()
            yield conf, cluster, JobRunner(conf, cluster)
        finally:
            cluster.shutdown()


def run_job(session_agent, job_id="job_test"):
    with job_session(session_agent) as (_, _, runner):
        output = runner.run_wordcount(job_id, LINES)
        return runner, output


class TestHappyPath:
    def test_wordcount_correct(self):
        runner, output = run_job(ConfAgent())
        assert runner.read_output(output) == expected_counts()

    def test_archive_accepts_clean_output(self):
        runner, output = run_job(ConfAgent())
        archive = runner.archive_output(output)
        assert len(archive["parts"]) == 2  # default job.reduces


class TestShuffleMismatches:
    def test_encrypted_intermediate_mismatch(self):
        with pytest.raises(errors.DecodeError):
            run_job(agent("mapreduce.job.encrypted-intermediate-data",
                          "MapTask", True, False))

    def test_map_output_compress_mismatch(self):
        with pytest.raises(errors.DecodeError):
            run_job(agent("mapreduce.map.output.compress", "MapTask", True,
                          False))

    def test_codec_mismatch_with_compression_pinned(self):
        pinned = (("mapreduce.map.output.compress", True),)
        with pytest.raises(errors.DecodeError):
            run_job(agent("mapreduce.map.output.compress.codec", "MapTask",
                          "snappy", "gzip", pinned=pinned))

    def test_codec_homogeneous_with_compression_passes(self):
        pinned = (("mapreduce.map.output.compress", True),)
        runner, output = run_job(agent("mapreduce.map.output.compress.codec",
                                       "MapTask", "snappy", "snappy",
                                       pinned=pinned))
        assert runner.read_output(output) == expected_counts()

    def test_shuffle_ssl_mismatch(self):
        with pytest.raises(errors.SslError):
            run_job(agent("mapreduce.shuffle.ssl.enabled", "ReduceTask", True,
                          False))

    def test_reducer_expects_more_maps_than_launched(self):
        with pytest.raises(errors.ShuffleError):
            run_job(agent("mapreduce.job.maps", "ReduceTask", 4, 2))

    def test_mapper_partitions_fewer_than_reducers(self):
        with pytest.raises(errors.ShuffleError):
            run_job(agent("mapreduce.job.reduces", "MapTask", 2, 4))


class TestCommitProtocol:
    def test_mixed_committer_versions_leave_temporary_files(self):
        # reducers commit v1 (via _temporary) while the driver commits v2
        # (moves nothing): the Hadoop Archive error of Table 3.
        runner, output = run_job(agent(
            "mapreduce.fileoutputcommitter.algorithm.version", "ReduceTask",
            1, 2))
        with pytest.raises(errors.CommitError, match="_temporary"):
            runner.archive_output(output)

    def test_homogeneous_v1_commits_cleanly(self):
        runner, output = run_job(agent(
            "mapreduce.fileoutputcommitter.algorithm.version", "ReduceTask",
            1, 1))
        assert runner.archive_output(output)["parts"]

    def test_homogeneous_v2_commits_cleanly(self):
        runner, output = run_job(agent(
            "mapreduce.fileoutputcommitter.algorithm.version", "ReduceTask",
            2, 2))
        assert runner.archive_output(output)["parts"]

    def test_output_compress_changes_part_names(self):
        runner, output = run_job(agent(
            "mapreduce.output.fileoutputformat.compress", "ReduceTask", True,
            False))
        assert all(path.endswith(".gz") for path in output)
        # the reader follows the suffix, so contents still merge correctly
        assert runner.read_output(output) == expected_counts()


class TestJobHistory:
    def test_job_registered_with_history_server(self):
        with job_session(ConfAgent()) as (_, cluster, runner):
            runner.run_wordcount("job_h1", LINES)
            jobs = runner.rpc.call(cluster.history_server.rpc, "list_jobs")
            assert jobs[-1]["job_id"] == "job_h1"

    def test_history_cache_bounded(self):
        with job_session(ConfAgent()) as (conf, cluster, runner):
            cluster.history_server._cache_size = 2
            for index in range(4):
                runner.rpc.call(cluster.history_server.rpc, "register_job",
                                "job%d" % index, 1, 1)
            jobs = runner.rpc.call(cluster.history_server.rpc, "list_jobs")
            assert [j["job_id"] for j in jobs] == ["job2", "job3"]
