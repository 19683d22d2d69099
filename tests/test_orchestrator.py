"""Integration tests: Campaign end-to-end on the synthetic application."""

from __future__ import annotations

import pytest

from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import render_stage_counts, render_table
from synthetic_app import (SYNTH_REGISTRY, broken_baseline_test,
                           client_vs_service_test, no_node_test,
                           safe_only_test, two_service_test,
                           uncertain_conf_test)


def synthetic_campaign(tests=None, config=None):
    tests = tests if tests is not None else [
        two_service_test(),
        client_vs_service_test(),
        safe_only_test(),
        no_node_test(),
        broken_baseline_test(),
        uncertain_conf_test(),
        two_service_test(name="TestSynth.testFlakyExchange", flaky_rate=0.3,
                         flaky=True),
    ]
    return Campaign("synth", SYNTH_REGISTRY, tests=tests,
                    config=config or CampaignConfig())


class TestSyntheticCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return synthetic_campaign().run()

    def test_finds_exactly_the_planted_unsafe_params(self, report):
        found = {v.param for v in report.verdicts if v.is_true_problem}
        assert found == {"synth.mode", "synth.level"}

    def test_no_safe_param_reported(self, report):
        reported = {v.param for v in report.verdicts}
        assert not reported & {"synth.safe-a", "synth.safe-b", "synth.safe-c",
                               "synth.never-read"}

    def test_stage_counts_monotonically_decrease(self, report):
        counts = [count for _, count in report.stage_counts.rows()]
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[3] <= counts[2]
        assert counts[0] > 0

    def test_prerun_summary(self, report):
        assert report.prerun_summary.total_tests == 7
        assert report.prerun_summary.tests_without_nodes == 1
        assert report.prerun_summary.tests_broken_at_baseline == 1
        assert report.prerun_summary.tests_with_uncertain_confs == 1

    def test_machine_time_positive(self, report):
        assert report.machine_time_s > 0
        assert report.executions > 0

    def test_never_read_param_generates_no_instances(self, report):
        for results in report.results_by_param.values():
            for result in results:
                assert "synth.never-read" not in result.instance.params


class TestCampaignConfigurations:
    def test_workers_do_not_change_findings(self):
        serial = synthetic_campaign().run()
        parallel = synthetic_campaign(
            config=CampaignConfig(workers=4)).run()
        serial_found = {v.param for v in serial.verdicts if v.is_true_problem}
        parallel_found = {v.param for v in parallel.verdicts
                          if v.is_true_problem}
        assert serial_found == parallel_found

    def test_pool_size_one_disables_pooling(self):
        pooled = synthetic_campaign().run()
        unpooled = synthetic_campaign(
            config=CampaignConfig(max_pool_size=1)).run()
        assert ({v.param for v in pooled.verdicts if v.is_true_problem}
                == {v.param for v in unpooled.verdicts if v.is_true_problem})
        # pooling must save executed instances
        assert (pooled.stage_counts.after_pooling
                < unpooled.stage_counts.after_pooling)

    def test_blacklist_threshold_one_skips_aggressively(self):
        report = synthetic_campaign(
            config=CampaignConfig(blacklist_threshold=1)).run()
        assert set(report.blacklisted) >= {"synth.mode", "synth.level"}
        found = {v.param for v in report.verdicts if v.is_true_problem}
        assert found == {"synth.mode", "synth.level"}


class TestDeterminism:
    def test_identical_campaigns_produce_identical_reports(self):
        first = synthetic_campaign().run()
        second = synthetic_campaign().run()
        assert ([(v.param, v.verdict) for v in first.verdicts]
                == [(v.param, v.verdict) for v in second.verdicts])
        assert first.stage_counts.rows() == second.stage_counts.rows()
        assert first.executions == second.executions


class TestScale:
    def test_pooling_scales_to_hundreds_of_parameters(self):
        """300 safe parameters + the 2 planted unsafe ones: pooled testing
        must stay near-linear in runs, nowhere near one run per param per
        strategy."""
        from repro.common.params import INT
        registry = ParamRegistry("synth-scale")
        for param in SYNTH_REGISTRY:
            registry.register(param)
        for index in range(300):
            registry.define("synth.filler-%03d" % index, INT, index,
                            candidates=(index, index + 10000))

        from repro.common.configuration import Configuration, ref_to_clone
        from repro.common.errors import TestFailure
        from repro.core.confagent import current_agent

        class ScaleConfiguration(Configuration):
            pass

        ScaleConfiguration.registry = registry
        filler_names = [n for n in registry.names()
                        if n.startswith("synth.filler-")]

        class WideService:
            node_type = "Service"

            def __init__(self, conf):
                agent = current_agent()
                agent.start_init(self, self.node_type)
                try:
                    self.conf = ref_to_clone(conf)
                    # nodes read every filler param, so all are testable
                    for name in filler_names:
                        self.conf.get_int(name)
                finally:
                    agent.stop_init()

            def exchange(self, peer):
                for name in ("synth.mode", "synth.level"):
                    if self.conf.get(name) != peer.conf.get(name):
                        raise TestFailure("%s mismatch" % name)

        def body(ctx):
            conf = ScaleConfiguration()
            first, second = WideService(conf), WideService(conf)
            first.exchange(second)

        from repro.core.registry import UnitTest
        test = UnitTest(app="synth-scale", name="TestScale.testWide", fn=body)
        campaign = Campaign("synth-scale", registry, tests=[test],
                            config=CampaignConfig())
        report = campaign.run()
        found = {v.param for v in report.verdicts if v.is_true_problem}
        assert found == {"synth.mode", "synth.level"}
        # ~302 params x 4 strategies would be ~1200 singleton instances;
        # pooling must run far fewer
        assert report.stage_counts.after_pooling < 200


from repro.common.params import ParamRegistry  # noqa: E402


class TestDegradedProfileAccounting:
    def test_partial_profile_work_is_counted(self, monkeypatch):
        """A profile that crashes mid-way degrades, but the executions it
        already burned (and the results it already produced) must survive
        into the report — the old behaviour dropped them entirely."""
        from repro.core.pooling import PooledTester
        original_run = PooledTester.run

        def exploding_after(n):
            calls = {"count": 0}

            def run(self, test, group, strategy, units):
                calls["count"] += 1
                if calls["count"] > n:
                    raise RuntimeError("harness bug mid-profile")
                return original_run(self, test, group, strategy, units)
            return run

        monkeypatch.setattr(PooledTester, "run", exploding_after(0))
        immediate = synthetic_campaign(tests=[two_service_test()]).run()
        monkeypatch.setattr(PooledTester, "run", exploding_after(2))
        partial = synthetic_campaign(tests=[two_service_test()]).run()
        name = two_service_test().full_name
        assert name in immediate.degraded_tests
        assert name in partial.degraded_tests
        # the two completed pool batches before the crash stay accounted
        assert partial.pool_stats.pool_runs > immediate.pool_stats.pool_runs
        assert partial.executions > immediate.executions


class TestCheckpointRestoreScaling:
    def test_restore_shares_one_tests_by_name_mapping(self, tmp_path,
                                                      monkeypatch):
        """The test-name index is built once per run and shared by every
        restored profile; rebuilding it per profile made large resumes
        quadratic in corpus size."""
        path = str(tmp_path / "journal.jsonl")
        config = CampaignConfig(checkpoint_path=path)
        synthetic_campaign(config=config).run()

        seen = []
        original = Campaign._restore_profile

        def spy(self, checkpoint, name, tests_by_name):
            seen.append(tests_by_name)
            return original(self, checkpoint, name, tests_by_name)

        monkeypatch.setattr(Campaign, "_restore_profile", spy)
        synthetic_campaign(
            config=CampaignConfig(checkpoint_path=path)).run()
        assert len(seen) >= 2  # several profiles restored
        assert all(mapping is seen[0] for mapping in seen)


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["col", "n"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("col")
        assert "--" in lines[1]
        assert len(lines) == 4

    def test_render_stage_counts(self):
        report = synthetic_campaign(tests=[two_service_test()]).run()
        text = render_stage_counts([report])
        assert "Original" in text
        assert "After pooled testing" in text
        assert "synth" in text
