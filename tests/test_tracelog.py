"""The campaign's decision events, read back from its span trace.

Each test's pre-run verdict, an instance's trial tallies and p-value and
the blacklist live in the span tree that ``--trace-spans`` exports
(docs/OBSERVABILITY.md maps every event to its span).
"""

from __future__ import annotations

import json

import pytest

from repro.core.orchestrator import Campaign, CampaignConfig
from synthetic_app import (SYNTH_REGISTRY, no_node_test, two_service_test)


def observed_campaign():
    return Campaign("synth", SYNTH_REGISTRY,
                    tests=[two_service_test(), no_node_test()],
                    config=CampaignConfig(observe=True))


@pytest.fixture()
def traced_report():
    return observed_campaign().run()


def spans_of_kind(report, kind):
    return [span for span in report.observation.spans if span.kind == kind]


def prerun_events(report):
    root = spans_of_kind(report, "prerun")[0]
    return [span for span in report.observation.spans
            if span.parent_id == root.span_id]


def confirmed_instances(report):
    return [span for span in spans_of_kind(report, "instance")
            if span.attrs["verdict"] == "confirmed-unsafe"]


class TestCampaignTracing:
    def test_prerun_events_cover_every_test(self, traced_report):
        events = prerun_events(traced_report)
        assert [event.name for event in events] == [
            "synth::TestSynth.testExchange",
            "synth::TestSynth.testPureFunction"]
        # each lands after its own test's pre-run execution
        assert [event.sim_start for event in events] == [60.0, 120.0]
        by_test = {event.name: event for event in events}
        assert by_test["synth::TestSynth.testPureFunction"].attrs["usable"] \
            is False

    def test_instance_events_record_trials(self, traced_report):
        confirmed = confirmed_instances(traced_report)
        assert confirmed
        for span in confirmed:
            trials = span.attrs["trials"]
            assert trials["p_value"] <= 1e-4
            assert trials["hetero"][0] == trials["hetero"][1]  # all failed

    def test_instances_for_param_filter(self, traced_report):
        spans = [span for span in spans_of_kind(traced_report, "instance")
                 if "synth.mode" in span.attrs["params"]]
        assert spans
        assert any(span.attrs["verdict"] == "confirmed-unsafe"
                   for span in spans)

    def test_campaign_summary_matches_report(self, traced_report):
        app = spans_of_kind(traced_report, "app")[0]
        assert sorted(app.attrs["blacklisted"]) == \
            list(traced_report.blacklisted)
        named = {param for span in confirmed_instances(traced_report)
                 for param in span.attrs["params"]}
        assert {v.param for v in traced_report.true_problems} <= named

    def test_sim_timeline_is_monotone_and_deterministic(self):
        def skeleton(report):
            return [(s.span_id, s.parent_id, s.name, s.kind, s.sim_start,
                     s.sim_end, json.dumps(s.attrs, sort_keys=True))
                    for s in report.observation.spans]

        first, second = observed_campaign().run(), observed_campaign().run()
        sims = [span.sim_start for span in first.observation.spans]
        assert sims == sorted(sims)  # modelled clock never goes backwards
        assert sims[-1] > 0
        assert skeleton(first) == skeleton(second)

    def test_campaign_summary_sim_at_matches_machine_time(self,
                                                          traced_report):
        app = spans_of_kind(traced_report, "app")[0]
        assert app.sim_end == traced_report.executions * 60.0

    def test_no_trace_means_no_overhead(self):
        campaign = Campaign("synth", SYNTH_REGISTRY,
                            tests=[two_service_test()],
                            config=CampaignConfig())
        report = campaign.run()
        assert report.observation is None
        assert report.executions > 0  # simply must not crash unobserved


class TestFoldedProfiles:
    """A profile folded back without running gets a synthetic span whose
    ``status`` is the label ``zc_profiles_total`` counts it under."""

    def run(self, **config_kwargs):
        return Campaign("synth", SYNTH_REGISTRY,
                        tests=[two_service_test(), no_node_test()],
                        config=CampaignConfig(observe=True,
                                              **config_kwargs)).run()

    def assert_folded(self, report, status):
        profiles = spans_of_kind(report, "profile")
        assert profiles
        assert all(span.attrs["synthetic"] and span.attrs["status"] == status
                   for span in profiles)
        assert 'status="%s"} %d' % (status, len(profiles)) in \
            report.observation.metrics.render_prometheus()

    def test_checkpoint_restored_profiles(self, tmp_path):
        journal = str(tmp_path / "campaign.ckpt.jsonl")
        self.run(checkpoint_path=journal)
        self.assert_folded(self.run(checkpoint_path=journal), "restored")

    def test_plan_reused_profiles(self, tmp_path):
        store = str(tmp_path / "store")
        self.run(store_path=store)
        self.assert_folded(self.run(store_path=store, incremental=True),
                           "reused")
