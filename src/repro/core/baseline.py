"""Baseline comparison: track heterogeneous-safety across versions.

The paper notes campaigns "do not need to be run frequently"; the
operational pattern is: run once, record the verdicts, and on the next
release compare — new unsafe parameters are regressions, disappeared
ones are fixes (or lost test coverage).  This module implements that
record/compare cycle over the JSON report format.

CLI: ``python -m repro campaign hdfs --json baseline.json`` once, then
``python -m repro campaign hdfs --compare baseline.json`` in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.core.report import AppReport, app_report_to_dict


@dataclass(frozen=True)
class BaselineDiff:
    """Outcome of comparing a fresh report against a stored baseline."""

    app: str
    new_unsafe: List[str]
    fixed_unsafe: List[str]
    new_false_positives: List[str]
    resolved_false_positives: List[str]

    @property
    def has_regressions(self) -> bool:
        return bool(self.new_unsafe)

    @property
    def clean(self) -> bool:
        return not (self.new_unsafe or self.fixed_unsafe
                    or self.new_false_positives
                    or self.resolved_false_positives)

    def render(self) -> str:
        if self.clean:
            return ("baseline match: no heterogeneous-safety changes in %r"
                    % self.app)
        lines = ["baseline drift in %r:" % self.app]
        for label, params in (
                ("NEW UNSAFE (regressions)", self.new_unsafe),
                ("no longer unsafe (fixed, or coverage lost)",
                 self.fixed_unsafe),
                ("new false positives", self.new_false_positives),
                ("resolved false positives", self.resolved_false_positives)):
            for param in params:
                lines.append("  %-45s %s" % (label, param))
        return "\n".join(lines)


def save_baseline(report: AppReport, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(app_report_to_dict(report), handle, indent=2)


def load_baseline(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def compare_to_baseline(report: AppReport,
                        baseline: Mapping[str, object]) -> BaselineDiff:
    """Diff a fresh report against a stored one (same application)."""
    if baseline.get("app") != report.app:
        raise ValueError("baseline is for %r, report is for %r"
                         % (baseline.get("app"), report.app))
    old_unsafe = set(baseline.get("true_problems", ()))
    old_fp = set(baseline.get("false_positives", ()))
    new_unsafe = {v.param for v in report.true_problems}
    new_fp = {v.param for v in report.false_positives}
    return BaselineDiff(
        app=report.app,
        new_unsafe=sorted(new_unsafe - old_unsafe),
        fixed_unsafe=sorted(old_unsafe - new_unsafe),
        new_false_positives=sorted(new_fp - old_fp),
        resolved_false_positives=sorted(old_fp - new_fp))
