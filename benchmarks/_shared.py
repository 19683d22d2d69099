"""Shared helpers for the benchmark harness.

The full six-application campaign takes ~20-30s; several benches need its
results, so it is computed once per process and cached here.

This module also owns the *perf trajectory*: benches call
:func:`write_bench_artifact` to persist a ``BENCH_*.json`` (CI uploads
them per commit).  A bench with a committed ratio baseline under
``benchmarks/baselines/`` also calls :func:`check_against_baseline` to
fail on a >10% regression.  Only ``BENCH_sampling.json`` has one today:
its recall and execution-savings ratios hold on any host, where
absolute wall-clock numbers would not.  ``BENCH_layers.json`` holds
exact operation counts instead, compared for equality by
``bench_layers.py``.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

from repro.apps import catalog
from repro.core.orchestrator import Campaign, CampaignConfig, run_full_campaign

BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "baselines")

#: A run regresses when a ratio drops more than this fraction below the
#: committed baseline.
REGRESSION_TOLERANCE = 0.10


def bench_artifact_path(name: str) -> str:
    """Where a ``BENCH_*.json`` artifact lands.

    ``BENCH_ARTIFACT_DIR`` (CI sets it to the upload directory) wins;
    the default is the current working directory, matching the other
    bench artifacts.
    """
    return os.path.join(os.environ.get("BENCH_ARTIFACT_DIR", "."), name)


def write_bench_artifact(name: str, rows: dict) -> str:
    """Persist one bench's measured rows as ``name``; returns the path."""
    path = bench_artifact_path(name)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as sink:
        json.dump(rows, sink, indent=2, sort_keys=True)
    print("wrote %s" % path)
    return path


def load_baseline(name: str) -> dict:
    """The committed baseline for artifact ``name`` ({} when absent)."""
    path = os.path.join(BASELINE_DIR, name)
    if not os.path.exists(path):
        return {}
    with open(path) as source:
        return json.load(source)


def check_against_baseline(name: str, rows: dict,
                           tolerance: float = REGRESSION_TOLERANCE) -> list:
    """Compare measured ratios against the committed baseline.

    Every key in the baseline file must exist in ``rows`` (dotted keys
    descend into nested dicts) and stay within ``tolerance`` of the
    committed ratio.  Returns the list of human-readable regression
    descriptions; asserting it empty is the caller's job so the bench
    can print its table first.
    """
    regressions = []
    for key, floor in load_baseline(name).items():
        value = rows
        for part in key.split("."):
            value = value[part]
        if value < floor * (1.0 - tolerance):
            regressions.append(
                "%s: measured %.3f is more than %d%% below the committed "
                "baseline %.3f" % (key, value, round(tolerance * 100), floor))
    return regressions


@lru_cache(maxsize=None)
def full_report():
    """One cached full campaign (all six applications)."""
    return run_full_campaign(CampaignConfig())


@lru_cache(maxsize=None)
def app_report(app: str, max_pool_size=None, blacklist_threshold: int = 3):
    """One cached single-application campaign with given knobs."""
    spec = catalog.spec_for(app)
    campaign = Campaign(app, spec.registry,
                        dependency_rules=spec.dependency_rules,
                        config=CampaignConfig(
                            max_pool_size=max_pool_size,
                            blacklist_threshold=blacklist_threshold))
    return campaign.run()
