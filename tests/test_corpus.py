"""Meta-tests over the unit-test corpus: baseline health, profiles,
metadata consistency with the paper's §7.1 accounting."""

from __future__ import annotations

import random

import pytest

from repro.core.prerun import prerun_test
from repro.core.registry import TestContext


def all_tests(corpus):
    return corpus.all_tests()


class TestCorpusShape:
    def test_every_target_app_has_tests(self, corpus):
        assert set(corpus.apps()) == {"flink", "hadooptools", "hbase", "hdfs",
                                      "mapreduce", "yarn"}

    def test_corpus_is_substantial(self, corpus):
        assert len(corpus) >= 60
        assert len(corpus.for_app("hdfs")) >= 25

    def test_names_unique_within_apps(self, corpus):
        for app in corpus.apps():
            names = [t.name for t in corpus.for_app(app)]
            assert len(names) == len(set(names))

    def test_lookup_by_name(self, corpus):
        test = corpus.get("hdfs", "TestFsck.testFsckHealthy")
        assert test.app == "hdfs"
        with pytest.raises(KeyError):
            corpus.get("hdfs", "TestNope.testMissing")

    def test_flaky_tests_present_for_hypothesis_testing(self, corpus):
        flaky = [t for t in all_tests(corpus) if t.flaky]
        assert len(flaky) >= 4

    def test_fp_source_metadata_counts(self, corpus):
        """§7.1: the corpus plants unrealistic-setting tests, overly
        strict assertions, and private-API-only observations."""
        tests = all_tests(corpus)
        assert sum(1 for t in tests if not t.realistic) == 2
        assert sum(1 for t in tests if t.strict_assertion) == 1
        assert sum(1 for t in tests if t.observability == "private") == 9


class TestBaselineHealth:
    def test_every_test_passes_under_default_config(self, corpus):
        """With homogeneous defaults (and the pre-run seed), every corpus
        test must pass — otherwise ZebraConf drops it at pre-run."""
        failures = []
        for test in all_tests(corpus):
            try:
                test.fn(TestContext(rng=random.Random(20210426)))
            except Exception as exc:  # noqa: BLE001
                failures.append("%s: %s" % (test.full_name, exc))
        assert failures == []


class TestProfiles:
    def test_hdfs_profiles_find_expected_groups(self, corpus):
        profile = prerun_test(corpus.get(
            "hdfs", "TestBalancer.testConcurrentMoves"))
        assert profile.groups.get("Balancer") == 1
        assert profile.groups.get("DataNode") == 2
        assert "dfs.datanode.balance.max.concurrent.moves" in \
            profile.params_by_group["Balancer"]

    def test_node_free_tests_are_filtered(self, corpus):
        for app, name in (("hdfs", "TestDFSUtil.testSplitPath"),
                          ("mapreduce", "TestPartitioner.testHashPartition"),
                          ("yarn", "TestResourceCalculator.testUnits")):
            profile = prerun_test(corpus.get(app, name))
            assert not profile.usable

    def test_late_conf_test_has_uncertain_params(self, corpus):
        profile = prerun_test(corpus.get(
            "hdfs", "TestHdfsAdmin.testLateConfigurationObject"))
        assert {"dfs.blocksize", "dfs.namenode.handler.count"} <= \
            profile.uncertain_params

    def test_flink_inline_init_profiles_taskmanagers(self, corpus):
        profile = prerun_test(corpus.get(
            "flink", "MiniClusterITCase.testJobUsesAllSlots"))
        assert profile.groups.get("TaskManager") == 2
        assert "taskmanager.numberOfTaskSlots" in \
            profile.params_by_group["TaskManager"]

    def test_unit_test_treated_as_client_node(self, corpus):
        from repro.core.confagent import UNIT_TEST
        profile = prerun_test(corpus.get(
            "hdfs", "TestFileCreation.testWriteReadRoundTrip"))
        assert UNIT_TEST in profile.groups
        assert "dfs.bytes-per-checksum" in profile.params_by_group[UNIT_TEST]
