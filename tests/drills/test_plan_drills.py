"""Incremental-plan drills: one edited registry parameter reruns to the
findings of a full cold campaign, and reruns in one warm interpreter
report exactly what fresh interpreters report.

Run the drills with ``python -m pytest tests/drills -m drill``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.apps import catalog
from repro.common.params import ParamRegistry
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import app_report_to_dict, findings_projection

pytestmark = pytest.mark.drill

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_registry_diff_rerun_equals_a_cold_run(tmp_path, monkeypatch):
    """Seed a store, rerun it warm (no profile record may be rewritten),
    edit ONE registry parameter, and gate the incremental rerun on (a)
    strictly fewer executions than a full cold rerun over the same
    edited registry and (b) byte-identical findings to it."""
    monkeypatch.chdir(tmp_path)
    app = "mapreduce"
    # Read by most profiles but not all, so the plan splits into genuine
    # RERUN and REUSE work.
    mutated = "mapreduce.fileoutputcommitter.algorithm.version"
    spec = catalog.spec_for(app)

    def findings(report):
        return json.dumps(findings_projection(app_report_to_dict(report)),
                          sort_keys=True)

    def campaign(registry, **kw):
        return Campaign(app, registry, dependency_rules=spec.dependency_rules,
                        config=CampaignConfig(**kw))

    # 1. a cold campaign seeds the store's profile records
    cold = campaign(spec.registry, store_path="plan-store").run()

    # 2. a plain warm rerun is answered from the store; its records
    #    differ from the cold ones only in accounting, so it appends none
    #    and the cold executions stay priced
    rerun = campaign(spec.registry, store_path="plan-store").run()
    assert rerun.store.appends == 0, rerun.store
    assert findings(rerun) == findings(cold), "warm rerun findings diverged"

    # 3. warm no-op: every profile folds back, findings identical, and
    #    the plan saves exactly what the cold run spent
    warm = campaign(spec.registry, store_path="plan-store",
                    incremental=True).run()
    plan = warm.plan.to_dict()
    assert plan["reused"] == len(plan["profiles"]), plan
    assert warm.executions < cold.executions
    assert plan["executions_saved"] + warm.executions == cold.executions, \
        (plan["executions_saved"], warm.executions, cold.executions)
    assert findings(warm) == findings(cold), "warm no-op findings diverged"

    # 4. an operator edits one parameter (an extra candidate value)
    registry = ParamRegistry(spec.registry.app)
    for param in spec.registry:
        if param.name == mutated:
            values = param.candidate_values()
            param = dataclasses.replace(
                param, candidates=tuple(values) + (max(values) + 1,))
        registry.register(param)

    reference = campaign(registry).run()  # full cold: ground truth
    incremental = campaign(registry, store_path="plan-store",
                           incremental=True).run()
    plan = incremental.plan.to_dict()
    assert plan["rerun"] > 0 and plan["reused"] > 0, plan
    assert incremental.executions < reference.executions, \
        (incremental.executions, reference.executions)
    assert findings(incremental) == findings(reference), \
        "incremental findings diverged from the full cold re-run"


#: The rerun both sides of the warm-process drill import: this
#: interpreter and each fresh one.
WARM_DRILL = '''\
import dataclasses, json
from repro.apps import catalog
from repro.common.params import ParamRegistry
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import app_report_to_dict

APP = "mapreduce"
SPEC = catalog.spec_for(APP)

def campaign(registry, **kw):
    return Campaign(APP, registry,
                    dependency_rules=SPEC.dependency_rules,
                    config=CampaignConfig(**kw))

def rerun(store, param, disable_ipc_sharing):
    """Tag one parameter (a one-parameter registry edit), then
    rerun incrementally; returns the report as JSON."""
    registry = ParamRegistry(SPEC.registry.app)
    for definition in SPEC.registry:
        if definition.name == param:
            definition = dataclasses.replace(
                definition, tags=definition.tags + ("ci-edit",))
        registry.register(definition)
    report = campaign(registry, store_path=store, incremental=True,
                      disable_ipc_sharing=disable_ipc_sharing).run()
    return json.dumps(app_report_to_dict(report), sort_keys=True)
'''


def test_warm_process_reruns_equal_fresh_interpreters(tmp_path,
                                                      monkeypatch):
    """Pre-runs and decoded store segments are reused within one process.
    Seed a store, then run four incremental reruns in this interpreter;
    each must report, store section included, exactly what a fresh
    interpreter reports for the same rerun against a copy of the store
    taken just before it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep
                       + os.environ.get("PYTHONPATH", ""))
    (tmp_path / "warm_drill.py").write_text(WARM_DRILL)
    spec = importlib.util.spec_from_file_location(
        "warm_drill", tmp_path / "warm_drill.py")
    warm_drill = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(warm_drill)

    warm_drill.campaign(warm_drill.SPEC.registry,
                        store_path="warm-store").run()
    edits = [("mapreduce.fileoutputcommitter.algorithm.version", False),
             ("mapreduce.job.encrypted-intermediate-data", False),
             ("hadoop.rpc.protection", False),
             ("mapreduce.fileoutputcommitter.algorithm.version", True)]
    for index, (param, disable) in enumerate(edits):
        copy = "cold-store-%d" % index
        shutil.copytree("warm-store", copy)
        cold = subprocess.run(
            [sys.executable, "-c",
             "import sys, warm_drill; sys.stdout.write("
             "warm_drill.rerun(%r, %r, %r))" % (copy, param, disable)],
            check=True, capture_output=True, text=True).stdout
        warm = warm_drill.rerun("warm-store", param, disable)
        assert warm == cold, "rerun %d (%s, disable_ipc_sharing=%s): " \
            "in-process report differs from a fresh interpreter's" \
            % (index, param, disable)
