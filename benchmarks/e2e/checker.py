"""Correctness oracle for every report the benchmark produces.

A report is correct when the sha256 of its canonical findings
projection (``repro.core.report.findings_projection``, serialised with
sorted keys and no whitespace) equals the committed golden for the same
campaign.  Full-application reports are also checked against the
paper's Table 3 ground truth in the catalog: every ``expected_unsafe``
parameter must be a true problem and every ``expected_false_positives``
parameter a false positive.

Goldens live in ``golden/`` and are rebuilt by ``run.py --regen-golden``:

* ``evaluate.json`` — per application, default settings;
* ``evaluate_threshold999.json`` — per application,
  ``--blacklist-threshold 999`` (the supervised workload's setting);
* ``vet.json`` — ``"app::param"`` for every registry parameter, a
  single-parameter campaign at the service's default spec, and
  ``vet_executions.json``, the executions each of those took (the
  request mix uses it to cover cheap and expensive parameters evenly);
* ``incremental_defects.json`` — the ``"app::param"`` edits after which
  an ``--incremental`` rerun is *not* findings-identical to a cold run
  (a known defect, see README.md); incremental-edit does not draw them.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Mapping, Tuple

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")


def findings_digest(record: Mapping[str, Any]) -> str:
    """sha256 of one app report's canonical findings projection."""
    from repro.core.report import findings_projection
    blob = json.dumps(findings_projection(dict(record)), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_golden(name: str) -> Any:
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as handle:
        return json.load(handle)


def write_golden(name: str, value: Any) -> str:
    path = os.path.join(GOLDEN_DIR, name + ".json")
    with open(path, "w") as handle:
        json.dump(value, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def check_app(record: Mapping[str, Any], golden: Mapping[str, str],
              key: str) -> List[str]:
    """Problems with one app report against ``golden[key]`` (empty = ok)."""
    expected = golden.get(key)
    if expected is None:
        return ["%s: no golden digest" % key]
    actual = findings_digest(record)
    if actual != expected:
        return ["%s: findings digest %s != golden %s"
                % (key, actual[:12], expected[:12])]
    return []


def ground_truth_problems(record: Mapping[str, Any]) -> List[str]:
    """Table 3 checks for a full-application report."""
    from repro.apps import catalog
    spec = catalog.spec_for(str(record["app"]))
    problems = []
    missing = set(spec.expected_unsafe) - set(record["true_problems"])
    if missing:
        problems.append("%s: Table 3 parameters not reported as true "
                        "problems: %s" % (record["app"],
                                          ", ".join(sorted(missing))))
    missing = (set(spec.expected_false_positives)
               - set(record["false_positives"]))
    if missing:
        problems.append("%s: expected false positives not reported: %s"
                        % (record["app"], ", ".join(sorted(missing))))
    return problems


def table3_counts(record: Mapping[str, Any],
                  tested: Iterable[str] = ()) -> Tuple[int, int]:
    """(found, expected) Table 3 parameters in one app report.

    ``tested`` restricts the expectation to the parameters a campaign
    tested (a single-parameter vet); empty means the whole catalog entry.
    """
    from repro.apps import catalog
    expected = set(catalog.spec_for(str(record["app"])).expected_unsafe)
    tested = set(tested)
    if tested:
        expected &= tested
    return len(expected & set(record["true_problems"])), len(expected)


def check_evaluate(record: Mapping[str, Any],
                   golden: Mapping[str, str]) -> List[str]:
    """All checks for one ``repro evaluate --json`` report."""
    problems: List[str] = []
    apps = [app["app"] for app in record["apps"]]
    if sorted(apps) != sorted(golden):
        problems.append("apps %s != golden %s" % (apps, sorted(golden)))
    for app in record["apps"]:
        problems += check_app(app, golden, app["app"])
        problems += ground_truth_problems(app)
    return problems


def vet_params() -> Dict[str, List[str]]:
    """The registry as the goldens record it: app -> parameters, each
    app's list ordered by the executions its cold single-parameter vet
    took (``vet_executions.json``), cheapest first."""
    executions = load_golden("vet_executions")
    by_app: Dict[str, List[str]] = {}
    for key in sorted(load_golden("vet"),
                      key=lambda key: (executions[key], key)):
        app, param = key.split("::", 1)
        by_app.setdefault(app, []).append(param)
    return by_app
