"""Exact operation counts per layer, gated exactly (ROADMAP item 2a).

Wall time cannot gate a change on a shared host: run-to-run spreads of
the end-to-end timings are several percent.  Operation counts are
deterministic, so this bench counts, for each application's default
campaign, what the layers below the campaign did:

* ``configuration_get`` — ``Configuration.get`` calls;
* ``intercept_get`` — ``ConfAgent.intercept_get`` calls;
* ``rpc_call`` — ``RpcClient.call`` calls;
* ``schedule`` — ``Simulator.schedule`` calls;
* ``executions`` — the report's charged executions;
* ``simulations`` — ``TestRunner._execute_once`` calls, the executions
  the simulator actually ran.

The same campaign then runs again with ``--store`` and ``--checkpoint``
in a fresh directory, counting ``store_appends`` (the report's
``store.appends``: one per fresh execution and one per profile record),
``fsyncs`` (``os.fsync`` calls, the final report record's included) and
``journal_appends`` (``CampaignCheckpoint._append`` calls).

Counts are taken by wrapping the functions, in a fresh interpreter:
the pre-run is memoized per process, so a warm process would skip the
pre-run's reads.  The rows land in ``BENCH_layers.json`` through
``_shared.write_bench_artifact`` and must equal the committed
``benchmarks/baselines/BENCH_layers.json`` exactly.  Tier 1 recomputes
the default-campaign counts of the five small applications
(``tests/test_layers.py``); hdfs and the store runs stay here.  A
change that moves a count updates the baseline and says why.

Run it with ``python -m pytest benchmarks/bench_layers.py
--benchmark-only``, or print the counts of some applications with
``python benchmarks/bench_layers.py [--store] APP...``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ARTIFACT = "BENCH_layers.json"

#: (module, owner, function, counter) for every wrapped function of a
#: default campaign.
CAMPAIGN_COUNTERS = (
    ("repro.common.configuration", "Configuration", "get",
     "configuration_get"),
    ("repro.core.confagent", "ConfAgent", "intercept_get", "intercept_get"),
    ("repro.common.ipc", "RpcClient", "call", "rpc_call"),
    ("repro.common.simulation", "Simulator", "schedule", "schedule"),
    ("repro.core.runner", "TestRunner", "_execute_once", "simulations"),
)
#: the same for the store-and-checkpoint rerun.
STORE_COUNTERS = (
    ("os", None, "fsync", "fsyncs"),
    ("repro.core.checkpoint", "CampaignCheckpoint", "_append",
     "journal_appends"),
)


@contextlib.contextmanager
def counting(counters: Sequence[tuple]) -> Iterator[Dict[str, int]]:
    """Count calls to each ``counters`` function while the block runs."""
    counts = {name: 0 for _, _, _, name in counters}
    restore = []
    for module, owner, function, name in counters:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = getattr(target, function)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        setattr(target, function, wrapper)
        restore.append((target, function, original))
    try:
        yield counts
    finally:
        for target, function, original in restore:
            setattr(target, function, original)


def _campaign(app: str, **config_kwargs):
    from repro.apps import catalog
    from repro.core.orchestrator import Campaign, CampaignConfig
    spec = catalog.spec_for(app)
    return Campaign(app, spec.registry,
                    dependency_rules=spec.dependency_rules,
                    config=CampaignConfig(**config_kwargs))


def count_app(app: str, store: bool) -> Dict[str, int]:
    """One application's counts, in this process."""
    with counting(CAMPAIGN_COUNTERS) as counts:
        counts["executions"] = _campaign(app).run().executions
    if store:
        with tempfile.TemporaryDirectory() as directory, \
                counting(STORE_COUNTERS) as stored:
            report = _campaign(
                app, store_path=os.path.join(directory, "store"),
                checkpoint_path=os.path.join(directory, "ck.jsonl")).run()
        counts.update(stored, store_appends=report.store.appends)
    return counts


def measure(apps: Sequence[str], store: bool = True) -> Dict[str, dict]:
    """Counts of ``apps``, taken in one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(HERE), "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    argv = [sys.executable, os.path.abspath(__file__)]
    argv += ["--store"] if store else []
    completed = subprocess.run(argv + list(apps), env=env, check=True,
                               stdout=subprocess.PIPE)
    return json.loads(completed.stdout)


def load_layer_baseline() -> Dict[str, dict]:
    with open(os.path.join(HERE, "baselines", ARTIFACT)) as source:
        return json.load(source)


def test_layer_counts_match_the_baseline(benchmark):
    from _shared import write_bench_artifact
    from repro.apps import catalog
    from repro.core.report import render_table
    rows = benchmark.pedantic(measure, args=(catalog.APP_NAMES,),
                              rounds=1, iterations=1)
    columns = [name for _, _, _, name in CAMPAIGN_COUNTERS[:4]] \
        + ["executions", "simulations", "store_appends"] \
        + [name for _, _, _, name in STORE_COUNTERS]
    print("\nOperation counts per default campaign (store runs last "
          "three columns):")
    print(render_table(["app"] + columns,
                       [[app] + [rows[app][c] for c in columns]
                        for app in rows]))
    write_bench_artifact(ARTIFACT, rows)
    assert rows == load_layer_baseline(), \
        "a count moved: update benchmarks/baselines/%s and say why" \
        % ARTIFACT


def main(argv: List[str]) -> int:
    store = "--store" in argv
    apps = [arg for arg in argv if arg != "--store"]
    json.dump({app: count_app(app, store) for app in apps}, sys.stdout,
              indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
