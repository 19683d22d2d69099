"""Self-test of the end-to-end benchmark.

    python -m pytest benchmarks/e2e -q

Outside the tier-1 ``testpaths``: it runs the real workloads (about a
minute on two cores).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(ROOT, str(tmp_path), seed=3)


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    return proc


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.LAYER_METRICS)


def test_percentile_rule():
    samples = [float(i) for i in range(1, 201)]
    p95 = run.percentile(samples, 95)
    assert p95 == 190.0
    assert sum(1 for s in samples if s > p95) == 10
    assert run.percentile(samples, 50) == 100.0
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 95) == 4.0
    assert run.percentile([7.0], 50) == 7.0


def test_every_round_requests_the_same_mix_in_seeded_order():
    params = checker.vet_params()
    size, repeats = workloads.ROUND, workloads.RESUBMITS
    mix, again = workloads.request_mix(params, repeats)
    assert len(mix) == len(set(mix)) == size - repeats
    assert len(again) == repeats and set(again) <= set(mix)
    counts = {app: sum(1 for a, _ in mix if a == app) for app in params}
    assert counts["hbase"] > counts["yarn"] > counts["flink"] >= 1

    def rounds(seed):
        stream = workloads.request_stream(seed, params, repeats)
        return [[next(stream) for _ in range(size)] for _ in range(3)]

    first = rounds(5)
    assert first == rounds(5) and first != rounds(6)
    assert first[0] != first[1]
    for requests in first:
        assert sorted(requests) == sorted(mix + again)
        for pair in again:
            positions = [i for i, p in enumerate(requests) if p == pair]
            assert len(positions) == 2  # the first submission, then again


def test_checker_rejects_doctored_report():
    from repro.apps import catalog
    from repro.core.orchestrator import Campaign, CampaignConfig
    from repro.core.report import app_report_to_dict
    spec = catalog.spec_for("flink")
    param = "akka.ssl.enabled"
    record = app_report_to_dict(Campaign(
        "flink", spec.registry, dependency_rules=spec.dependency_rules,
        config=CampaignConfig(only_params=frozenset([param]))).run())
    golden = checker.load_golden("vet")
    key = "flink::" + param
    assert checker.check_app(record, golden, key) == []
    assert checker.table3_counts(record, [param]) == (1, 1)

    doctored = json.loads(json.dumps(record))
    doctored["true_problems"] = []
    assert checker.check_app(doctored, golden, key)
    assert checker.table3_counts(doctored, [param]) == (0, 1)
    assert checker.ground_truth_problems(doctored)
    doctored = json.loads(json.dumps(record))
    doctored["pool_stats"]["pool_runs"] += 1
    assert checker.check_app(doctored, golden, key)
    assert checker.check_app(record, golden, "flink::no.such.param")


def test_tag_edit_is_findings_neutral_on_a_cold_run():
    from repro.apps import catalog
    from repro.core.orchestrator import Campaign, CampaignConfig
    from repro.core.report import app_report_to_dict
    golden = checker.load_golden("evaluate")
    for app, param in (("hdfs", "fs.trash.interval"),
                       ("flink", "taskmanager.numberOfTaskSlots")):
        registry = workloads.edited_registry(app, param)
        assert workloads.EDIT_TAG in registry.get(param).tags
        assert workloads.EDIT_TAG not in \
            catalog.spec_for(app).registry.get(param).tags
        report = Campaign(app, registry,
                          dependency_rules=catalog.spec_for(
                              app).dependency_rules,
                          config=CampaignConfig()).run()
        assert checker.check_app(app_report_to_dict(report), golden,
                                 app) == []


def test_known_incremental_defect_still_reproduces(tmp_path):
    """Fails once the defect is fixed: then regenerate the goldens
    (``run.py --regen-golden``) so incremental-edit draws every edit."""
    from repro.apps import catalog
    from repro.core.orchestrator import Campaign, CampaignConfig
    from repro.core.report import app_report_to_dict
    assert "hdfs::fs.trash.interval" in \
        checker.load_golden("incremental_defects")
    store = str(tmp_path / "store")
    spec = catalog.spec_for("hdfs")
    Campaign("hdfs", spec.registry, dependency_rules=spec.dependency_rules,
             config=CampaignConfig(store_path=store)).run()
    report = workloads.incremental_rerun("hdfs", "fs.trash.interval", store)
    record = app_report_to_dict(report)
    assert record["plan"]["rerun"] == 1
    assert checker.check_app(record, checker.load_golden("evaluate"),
                             "hdfs")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_runs_clean(ctx, monkeypatch, name):
    """One pass, or one round of requests, with nothing failing."""
    monkeypatch.setattr(workloads.IncrementalEdit, "SETUPS", 1)
    monkeypatch.setattr(workloads.ServeVet, "SETUPS", 1)
    workload = workloads.make(name, ctx)
    try:
        setup, problems = workload.setup()
        phase = workload.phase(traced=False, count=1)
    finally:
        workload.close()
    assert problems == [] and setup
    assert len(phase.units) == workload.round_size
    assert all(unit.ok for unit in phase.units), \
        [unit.problems for unit in phase.units]
    assert all(unit.machine_s > 0 for unit in phase.units)
    if name.startswith("evaluate"):
        expected = 110.9 if name == "evaluate-cold" else 268.6
        assert phase.units[0].machine_s / 3600 == pytest.approx(expected,
                                                                abs=0.05)
        assert phase.units[0].table3 == (42, 42)


def test_result_line_and_layer_accounting(tmp_path):
    """The traced run: same machine hours and failures as the untraced
    one, and the layers plus unattributed time add up to its makespan."""
    out = str(tmp_path / "serve.json")
    proc = _run_bench("--workload", "serve-vet", "--seed", "2",
                      "--seconds", "2", "--trace", "1", "--json", out)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in run.LAYER_METRICS]
    attributed = sum(metrics[layer + ".self_s"] for layer in run.LAYERS)
    assert all(metrics[layer + ".self_s"] >= 0 for layer in run.LAYERS)
    makespan = metrics["traced_makespan_s"]
    assert metrics["unattributed_s"] >= -0.01 * makespan
    assert attributed + metrics["unattributed_s"] == \
        pytest.approx(makespan, rel=0.01)
    assert metrics["trace_overhead"] > 0
    assert metrics["service.requests"] == result["attempted"] / 2
    assert os.path.getsize(os.path.splitext(out)[0] + ".spans.jsonl") > 0

    proc = _run_bench("--workload", "serve-vet", "--seed", "2",
                      "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert [name for name in result["metrics"]] == \
        [name for name, _ in run.E2E_METRICS]
    printed = {line.split()[0]: line.split()[-1]
               for line in proc.stdout.strip().splitlines()[1:-1]}
    for name, unit in run.E2E_METRICS:
        assert printed[name] == unit == result["metrics"][name]["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "benchmarks" / "e2e"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py",
                           "--workload", "evaluate-cold", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
