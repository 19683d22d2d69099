"""Observability layer: spans, metrics, exporters, validators, progress.

The load-bearing invariants tested here:

* metric merges are commutative (fold order never matters), so the
  deterministic snapshot is byte-identical across serial and
  supervised-pool runs of the same seeded campaign;
* span sim-times are a pure function of campaign content — two runs of
  the same campaign produce the same span tree;
* exported artifacts satisfy their own validators and reconcile exactly
  with the campaign report.
"""

from __future__ import annotations

import io
import itertools
import json
import os

import pytest

from repro.core.observe import (METRIC_CATALOG, MetricsRegistry, Observation,
                                ProgressReporter, phase_costs,
                                read_metrics_totals, reconcile_with_report,
                                validate_chrome_trace, validate_metrics_text,
                                validate_spans_jsonl, write_chrome_trace,
                                write_metrics_text, write_spans_jsonl)
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import app_report_to_dict
from synthetic_app import (SYNTH_REGISTRY, client_vs_service_test,
                           hard_crash_test, safe_only_test, two_service_test)
from test_orchestrator import synthetic_campaign

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_unknown_metric_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.counter_inc("zc_not_in_catalog_total")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.gauge_max("zc_executions_total", 1)
        with pytest.raises(TypeError):
            registry.hist_observe("zc_executions_total", 1)

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter_inc("zc_executions_total", -1)

    def test_constant_labels_attach_to_every_sample(self):
        registry = MetricsRegistry(constant_labels={"app": "synth"})
        registry.counter_inc("zc_executions_total", 3)
        text = registry.render_prometheus()
        assert 'zc_executions_total{app="synth"} 3' in text

    def test_total_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter_inc("zc_faults_injected_total", 2, kind="io")
        registry.counter_inc("zc_faults_injected_total", 5, kind="net")
        assert registry.total("zc_faults_injected_total") == 7

    def test_histogram_bucket_placement_and_overflow(self):
        registry = MetricsRegistry()
        spec = METRIC_CATALOG["zc_pool_size"]
        registry.hist_observe("zc_pool_size", 1)       # first bucket
        registry.hist_observe("zc_pool_size", 3)       # le=4
        registry.hist_observe("zc_pool_size", 9999)    # +Inf overflow
        ((_, hist),) = registry._samples.items()
        assert len(hist.bucket_counts) == len(spec.buckets) + 1
        assert hist.bucket_counts[0] == 1
        assert hist.bucket_counts[2] == 1
        assert hist.bucket_counts[-1] == 1
        assert hist.total == 1 + 3 + 9999

    def test_merge_is_commutative(self):
        def build(counter_by, gauge, hist_values):
            registry = MetricsRegistry()
            registry.counter_inc("zc_executions_total", counter_by)
            registry.gauge_max("zc_pool_max_depth", gauge)
            for value in hist_values:
                registry.hist_observe("zc_pool_size", value)
            return registry

        ab = build(3, 2, [1, 5])
        ab.merge(build(4, 7, [2]))
        ba = build(4, 7, [2])
        ba.merge(build(3, 2, [1, 5]))
        assert (ab.render_prometheus(include_volatile=True)
                == ba.render_prometheus(include_volatile=True))
        assert ab.total("zc_executions_total") == 7
        assert ab.total("zc_pool_max_depth") == 7  # gauges take max

    def test_wire_round_trip(self):
        source = MetricsRegistry(constant_labels={"app": "synth"})
        source.counter_inc("zc_executions_total", 41)
        source.gauge_max("zc_pool_max_depth", 3)
        source.hist_observe("zc_instance_executions", 12)
        clone = MetricsRegistry()
        clone.merge_wire(json.loads(json.dumps(source.to_wire())))
        assert (clone.render_prometheus(include_volatile=True)
                == source.render_prometheus(include_volatile=True))

    def test_volatile_excluded_from_deterministic_snapshot(self):
        registry = MetricsRegistry()
        registry.counter_inc("zc_executions_total")
        registry.counter_inc("zc_runtime_respawns_total")
        deterministic = registry.render_prometheus()
        assert "zc_runtime_respawns_total" not in deterministic
        assert "zc_executions_total" in deterministic
        full = registry.render_prometheus(include_volatile=True)
        assert "zc_runtime_respawns_total" in full

    def test_integer_values_render_without_decimal_point(self):
        registry = MetricsRegistry()
        registry.counter_inc("zc_machine_seconds_total", 120.0)
        assert "zc_machine_seconds_total 120\n" in \
            registry.render_prometheus()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def fake_wall_clock(start=1000.0, step=1.0):
    counter = itertools.count()
    return lambda: start + step * next(counter)


class TestObservationSpans:
    def test_nesting_records_parent_ids(self):
        obs = Observation(wall_clock=fake_wall_clock())
        with obs.span("campaign", kind="app") as root:
            with obs.span("profile-a", kind="profile") as child:
                with obs.span("run", kind="trial") as leaf:
                    pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert leaf.parent_id == child.span_id

    def test_unknown_kind_rejected(self):
        obs = Observation()
        with pytest.raises(ValueError):
            obs.span("x", kind="galaxy")

    def test_out_of_order_close_raises(self):
        obs = Observation()
        outer = obs.span("outer", kind="app")
        obs.span("inner", kind="profile")
        with pytest.raises(RuntimeError):
            outer.__exit__(None, None, None)

    def test_sim_clock_only_advances_explicitly(self):
        obs = Observation(wall_clock=fake_wall_clock())
        with obs.span("a", kind="trial") as first:
            obs.advance_sim(60.0)
        with obs.span("b", kind="trial") as second:
            pass
        assert first.sim_duration_s == 60.0
        assert second.sim_duration_s == 0.0
        assert first.wall_duration_s > 0  # wall clock ticked regardless

    def test_event_is_zero_sim_duration(self):
        obs = Observation(wall_clock=fake_wall_clock())
        span = obs.event("worker-death", kind="supervisor", exit="signal 9")
        assert span.sim_duration_s == 0.0
        assert span.attrs["exit"] == "signal 9"

    def test_adopt_spans_remaps_ids_and_offsets_sim(self):
        worker = Observation(wall_clock=fake_wall_clock())
        with worker.span("profile", kind="profile"):
            worker.advance_sim(120.0)
        parent_obs = Observation(wall_clock=fake_wall_clock())
        with parent_obs.span("campaign", kind="app") as root:
            parent_obs.advance_sim(60.0)   # prerun happened first
            parent_obs.adopt_spans(worker.to_wire(), parent=root)
        adopted = [s for s in parent_obs.spans if s.name == "profile"][0]
        assert adopted.parent_id == root.span_id
        assert adopted.span_id != root.span_id
        assert adopted.sim_start == 60.0          # offset by parent sim_now
        assert adopted.sim_end == 180.0
        assert parent_obs.sim_now == 180.0        # worker total folded in

    def test_adopting_two_profiles_lays_them_back_to_back(self):
        def profile_wire(cost):
            worker = Observation(wall_clock=fake_wall_clock())
            with worker.span("p", kind="profile"):
                worker.advance_sim(cost)
            return worker.to_wire()

        parent = Observation(wall_clock=fake_wall_clock())
        parent.adopt_spans(profile_wire(60.0))
        parent.adopt_spans(profile_wire(120.0))
        starts = sorted(s.sim_start for s in parent.spans)
        assert starts == [0.0, 60.0]
        assert parent.sim_now == 180.0


class TestPhaseCosts:
    def test_self_time_excludes_children(self):
        obs = Observation(wall_clock=fake_wall_clock())
        with obs.span("pool", kind="pool"):
            obs.advance_sim(60.0)             # pool's own work
            with obs.span("t1", kind="trial"):
                obs.advance_sim(120.0)        # attributed to trial
        costs = {kind: (count, self_s)
                 for kind, count, self_s in phase_costs(obs)}
        assert costs["trial"] == (1, 120.0)
        assert costs["pool"] == (1, 60.0)

    def test_sorted_by_self_time_descending(self):
        obs = Observation(wall_clock=fake_wall_clock())
        with obs.span("a", kind="prerun"):
            obs.advance_sim(10.0)
        with obs.span("b", kind="trial"):
            obs.advance_sim(500.0)
        assert [row[0] for row in phase_costs(obs)] == ["trial", "prerun"]


# ---------------------------------------------------------------------------
# campaign-level span trees (determinism)
# ---------------------------------------------------------------------------
def span_skeleton(observation):
    """Everything about the span tree except wall-clock times."""
    return [(s.span_id, s.parent_id, s.name, s.kind, s.sim_start, s.sim_end,
             json.dumps(s.attrs, sort_keys=True, default=str))
            for s in observation.spans]


class TestCampaignSpanTree:
    @pytest.fixture(scope="class")
    def observed(self):
        return synthetic_campaign(config=CampaignConfig(observe=True)).run()

    def test_report_carries_the_observation(self, observed):
        assert observed.observation is not None
        assert observed.observation.spans

    def test_single_app_root(self, observed):
        roots = [s for s in observed.observation.spans
                 if s.parent_id is None]
        assert len(roots) == 1
        assert roots[0].kind == "app"
        assert roots[0].name == "synth"

    def test_every_parent_exists_and_stack_closed(self, observed):
        spans = observed.observation.spans
        ids = {s.span_id for s in spans}
        assert len(ids) == len(spans)  # no duplicates
        for span in spans:
            assert span.parent_id is None or span.parent_id in ids
            assert span.sim_end >= span.sim_start

    def test_trial_spans_under_pool_or_instance(self, observed):
        spans = observed.observation.spans
        by_id = {s.span_id: s for s in spans}
        trials = [s for s in spans if s.kind == "trial"]
        assert trials
        for trial in trials:
            parent = by_id[trial.parent_id]
            assert parent.kind in ("pool", "bisection", "instance",
                                   "profile")

    def test_profile_spans_tile_the_sim_timeline(self, observed):
        profiles = sorted((s for s in observed.observation.spans
                           if s.kind == "profile"),
                          key=lambda s: s.sim_start)
        assert profiles
        for left, right in zip(profiles, profiles[1:]):
            assert left.sim_end <= right.sim_start  # back to back, no overlap

    def test_executions_metric_matches_report(self, observed):
        metrics = observed.observation.metrics
        assert metrics.total("zc_executions_total") + \
            metrics.total("zc_prerun_executions_total") == observed.executions

    def test_same_campaign_twice_gives_identical_span_tree(self):
        first = synthetic_campaign(config=CampaignConfig(observe=True)).run()
        second = synthetic_campaign(config=CampaignConfig(observe=True)).run()
        assert span_skeleton(first.observation) \
            == span_skeleton(second.observation)
        assert first.observation.metrics.render_prometheus() \
            == second.observation.metrics.render_prometheus()

    def test_unobserved_campaign_has_no_observation(self):
        report = synthetic_campaign().run()
        assert report.observation is None
        assert report.cost_centers  # cost centers need no observation

    def test_cost_centers_sorted_and_reconciled(self, observed):
        centers = observed.cost_centers
        assert centers
        assert list(centers) == sorted(
            centers, key=lambda c: (-c.executions, c.test))
        assert sum(c.executions for c in centers) <= observed.executions


# ---------------------------------------------------------------------------
# backend equivalence: the deterministic snapshot is byte-identical
# ---------------------------------------------------------------------------
def equivalence_campaign(**config_kwargs):
    config_kwargs.setdefault("observe", True)
    config_kwargs.setdefault("blacklist_threshold", 999)  # decouple profiles
    tests = [two_service_test(), client_vs_service_test(), safe_only_test()]
    return Campaign("synth", SYNTH_REGISTRY, tests=tests,
                    config=CampaignConfig(**config_kwargs))


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return equivalence_campaign().run()

    def test_thread_backend_metrics_byte_identical(self, serial):
        # workers=3 once ran on threads; it now runs on the supervised pool
        # (serially without fork) and must still match serial byte for byte.
        three_workers = equivalence_campaign(workers=3).run()
        assert three_workers.observation.metrics.render_prometheus() \
            == serial.observation.metrics.render_prometheus()
        assert span_skeleton(three_workers.observation) \
            == span_skeleton(serial.observation)

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="supervision needs fork")
    def test_supervised_backend_metrics_byte_identical(self, serial):
        supervised = equivalence_campaign(workers=2).run()
        assert supervised.supervision.enabled
        assert supervised.observation.metrics.render_prometheus() \
            == serial.observation.metrics.render_prometheus()
        assert span_skeleton(supervised.observation) \
            == span_skeleton(serial.observation)


# ---------------------------------------------------------------------------
# exporters + golden files
# ---------------------------------------------------------------------------
def golden_observation():
    """A small hand-built observation with a deterministic wall clock,
    shared by the golden-file tests and the regeneration helper."""
    obs = Observation(metrics=MetricsRegistry(
        constant_labels={"app": "synth"}),
        wall_clock=fake_wall_clock(start=1000.0, step=0.5))
    metrics = obs.metrics
    with obs.span("synth", kind="app"):
        with obs.span("prerun", kind="prerun", tests=2):
            obs.advance_sim(120.0)
            metrics.counter_inc("zc_prerun_executions_total", 2)
        with obs.span("TestSynth.testExchange", kind="profile"):
            with obs.span("TestSynth.testExchange", kind="pool", size=2,
                          depth=0, params=["synth.mode", "synth.safe-a"]):
                with obs.span("TestSynth.testExchange", kind="trial",
                              seed=7):
                    obs.advance_sim(60.0)
                    metrics.counter_inc("zc_executions_total")
            with obs.span("TestSynth.testExchange[synth.mode]",
                          kind="instance", verdict="confirmed-unsafe"):
                with obs.span("TestSynth.testExchange", kind="trial",
                              seed=8):
                    obs.advance_sim(60.0)
                    metrics.counter_inc("zc_executions_total")
                metrics.hist_observe("zc_instance_executions", 1)
    metrics.counter_inc("zc_machine_seconds_total", 240.0)
    metrics.gauge_max("zc_pool_max_depth", 1)
    return obs


def assert_matches_golden(path, golden_name):
    golden_path = os.path.join(GOLDEN_DIR, golden_name)
    with open(path) as produced, open(golden_path) as expected:
        assert produced.read() == expected.read(), \
            "regenerate with: PYTHONPATH=src:tests python -c " \
            "'import test_observe; test_observe.regenerate_golden_files()'"


def regenerate_golden_files():
    obs = golden_observation()
    pairs = [("synth", obs)]
    write_spans_jsonl(pairs, os.path.join(GOLDEN_DIR, "observe_spans.jsonl"))
    write_chrome_trace(pairs, os.path.join(GOLDEN_DIR, "observe_chrome.json"))
    write_metrics_text(pairs, os.path.join(GOLDEN_DIR, "observe_metrics.prom"))


class TestExporterGoldenFiles:
    @pytest.fixture()
    def pairs(self):
        return [("synth", golden_observation())]

    def test_spans_jsonl_matches_golden(self, pairs, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        assert write_spans_jsonl(pairs, path) == 7
        assert_matches_golden(path, "observe_spans.jsonl")
        assert validate_spans_jsonl(path) == 7

    def test_chrome_trace_matches_golden(self, pairs, tmp_path):
        path = str(tmp_path / "chrome.json")
        assert write_chrome_trace(pairs, path) == 7
        assert_matches_golden(path, "observe_chrome.json")
        assert validate_chrome_trace(path) == 7

    def test_metrics_text_matches_golden(self, pairs, tmp_path):
        path = str(tmp_path / "metrics.prom")
        assert write_metrics_text(pairs, path) > 0
        assert_matches_golden(path, "observe_metrics.prom")
        assert validate_metrics_text(path) > 0

    def test_chrome_trace_maps_profiles_to_tracks(self, pairs, tmp_path):
        path = str(tmp_path / "chrome.json")
        write_chrome_trace(pairs, path)
        with open(path) as handle:
            document = json.load(handle)
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert metadata[0]["args"]["name"] == "synth"
        trials = [e for e in document["traceEvents"]
                  if e.get("cat") == "trial"]
        assert trials and all(e["tid"] != 0 for e in trials)
        assert all(e["args"]["sim_duration_s"] == 60.0 for e in trials)


# ---------------------------------------------------------------------------
# validators reject malformed artifacts
# ---------------------------------------------------------------------------
class TestValidatorRejections:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def span_record(self, **overrides):
        record = {"span_id": 1, "parent_id": None, "name": "x",
                  "kind": "app", "wall_start": 0.0, "wall_end": 1.0,
                  "sim_start": 0.0, "sim_end": 1.0, "attrs": {},
                  "app": "synth", "wall_duration_s": 1.0,
                  "sim_duration_s": 1.0}
        record.update(overrides)
        return record

    def test_spans_invalid_json(self, tmp_path):
        path = self.write(tmp_path, "s.jsonl", "{nope\n")
        with pytest.raises(ValueError, match="line 1"):
            validate_spans_jsonl(path)

    def test_spans_missing_field(self, tmp_path):
        record = self.span_record()
        del record["sim_end"]
        path = self.write(tmp_path, "s.jsonl", json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="sim_end"):
            validate_spans_jsonl(path)

    def test_spans_unknown_kind(self, tmp_path):
        record = self.span_record(kind="galaxy")
        path = self.write(tmp_path, "s.jsonl", json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="unknown kind"):
            validate_spans_jsonl(path)

    def test_spans_duplicate_id(self, tmp_path):
        line = json.dumps(self.span_record()) + "\n"
        path = self.write(tmp_path, "s.jsonl", line + line)
        with pytest.raises(ValueError, match="duplicate span_id"):
            validate_spans_jsonl(path)

    def test_spans_dangling_parent(self, tmp_path):
        record = self.span_record(parent_id=99)
        path = self.write(tmp_path, "s.jsonl", json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="parent_id 99 not present"):
            validate_spans_jsonl(path)

    def test_spans_negative_duration(self, tmp_path):
        record = self.span_record(sim_end=-1.0)
        path = self.write(tmp_path, "s.jsonl", json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="sim_end < sim_start"):
            validate_spans_jsonl(path)

    def test_chrome_not_a_trace(self, tmp_path):
        path = self.write(tmp_path, "c.json", json.dumps([1, 2]))
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace(path)

    def test_chrome_no_complete_events(self, tmp_path):
        path = self.write(tmp_path, "c.json",
                          json.dumps({"traceEvents": []}))
        with pytest.raises(ValueError, match="no complete events"):
            validate_chrome_trace(path)

    def test_chrome_bad_event_field(self, tmp_path):
        event = {"ph": "X", "name": "x", "cat": "trial", "pid": 0,
                 "tid": 0, "ts": "soon", "dur": 1, "args": {}}
        path = self.write(tmp_path, "c.json",
                          json.dumps({"traceEvents": [event]}))
        with pytest.raises(ValueError, match="bad 'ts'"):
            validate_chrome_trace(path)

    def test_metrics_unknown_name(self, tmp_path):
        path = self.write(tmp_path, "m.prom",
                          "# HELP nope x\n# TYPE nope counter\nnope 1\n")
        with pytest.raises(ValueError, match="not in the metric catalog"):
            validate_metrics_text(path)

    def test_metrics_missing_headers(self, tmp_path):
        path = self.write(tmp_path, "m.prom", "zc_executions_total 5\n")
        with pytest.raises(ValueError, match="missing HELP/TYPE"):
            validate_metrics_text(path)

    def test_metrics_histogram_missing_series(self, tmp_path):
        text = ("# HELP zc_pool_size x\n# TYPE zc_pool_size histogram\n"
                'zc_pool_size_bucket{le="+Inf"} 1\nzc_pool_size_count 1\n')
        path = self.write(tmp_path, "m.prom", text)
        with pytest.raises(ValueError, match="missing its _sum"):
            validate_metrics_text(path)

    def test_metrics_empty_snapshot_rejected(self, tmp_path):
        path = self.write(tmp_path, "m.prom", "")
        with pytest.raises(ValueError, match="no samples"):
            validate_metrics_text(path)

    def test_read_totals_unparseable_line(self, tmp_path):
        path = self.write(tmp_path, "m.prom", "what even is this\n")
        with pytest.raises(ValueError, match="unparseable"):
            read_metrics_totals(path)


# ---------------------------------------------------------------------------
# reconciliation: metrics vs report
# ---------------------------------------------------------------------------
class TestReconciliation:
    def test_unit_level_match_and_mismatch(self):
        report = {"executions": 10, "supervision": {"respawns": 2}}
        good = {"zc_executions_total": 8.0,
                "zc_prerun_executions_total": 2.0,
                "zc_runtime_respawns_total": 2.0}
        assert reconcile_with_report(good, report) == []
        bad = dict(good, zc_runtime_respawns_total=3.0)
        problems = reconcile_with_report(bad, report)
        assert problems == ["worker respawns: metrics say 3, report says 2"]

    def test_end_to_end_campaign_reconciles(self, tmp_path):
        report = synthetic_campaign(
            config=CampaignConfig(observe=True, exec_cache=True)).run()
        path = str(tmp_path / "metrics.prom")
        write_metrics_text([("synth", report.observation)], path)
        assert validate_metrics_text(path) > 0
        problems = reconcile_with_report(read_metrics_totals(path),
                                         app_report_to_dict(report))
        assert problems == []

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="supervision needs fork")
    def test_supervised_crash_campaign_reconciles(self, tmp_path):
        report = Campaign(
            "synth", SYNTH_REGISTRY,
            tests=[hard_crash_test(), safe_only_test()],
            config=CampaignConfig(observe=True, workers=2,
                                  blacklist_threshold=999)).run()
        assert report.supervision.respawns > 0  # the crash path fired
        path = str(tmp_path / "metrics.prom")
        write_metrics_text([("synth", report.observation)], path)
        problems = reconcile_with_report(read_metrics_totals(path),
                                         app_report_to_dict(report))
        assert problems == []
        kinds = {s.kind for s in report.observation.spans}
        assert "supervisor" in kinds  # crash left a supervisor event span


# ---------------------------------------------------------------------------
# live progress line
# ---------------------------------------------------------------------------
class TestProgressReporter:
    def make(self, total=4, interval=0.2):
        stream = io.StringIO()
        ticks = itertools.count()
        reporter = ProgressReporter(stream, "synth", total=total,
                                    min_interval_s=interval,
                                    clock=lambda: 100.0 + next(ticks) * 0.05)
        return stream, reporter

    def test_renders_core_fields(self):
        stream, reporter = self.make()
        reporter.close({"done": 4, "executions": 120, "cache_hits": 30,
                        "cache_misses": 10, "pool_voids": 2})
        line = stream.getvalue()
        assert "[synth] profiles 4/4" in line
        assert "exec 120" in line
        assert "cache 75.0%" in line
        assert "voids 2" in line
        assert line.endswith("\n")

    def test_supervision_fields_only_when_nonzero(self):
        stream, reporter = self.make()
        reporter.close({"done": 1, "respawns": 0, "quarantined": 0})
        assert "respawns" not in stream.getvalue()
        stream, reporter = self.make()
        reporter.close({"done": 1, "respawns": 3, "quarantined": 1})
        assert "respawns 3" in stream.getvalue()
        assert "quarantined 1" in stream.getvalue()

    def test_ticks_are_throttled_but_final_always_renders(self):
        stream, reporter = self.make(total=10, interval=10.0)
        for done in range(5):
            reporter.tick({"done": done})
        assert stream.getvalue().count("\r") == 1  # only the first landed
        reporter.tick({"done": 10})  # done == total bypasses the throttle
        assert "profiles 10/10" in stream.getvalue()

    def test_silent_reporter_writes_nothing(self):
        stream, reporter = self.make()
        reporter.close()
        assert stream.getvalue() == ""
