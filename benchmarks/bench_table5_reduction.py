"""Table 5: test-instance counts after each successively applied method,
plus the §4 machine-time accounting.

The paper's headline: pre-running + uncertainty removal + pooled testing
cut the instances to run by **two to four orders of magnitude** per
application, bringing the whole evaluation to 4,652 machine hours.  Our
corpus is smaller, so the bench asserts the *shape*: monotone reduction,
at least ~one order of magnitude end to end per application, small
uncertainty exclusions, and a bounded machine-time total.
"""

from __future__ import annotations

import math

from _shared import full_report
from repro.apps import catalog
from repro.core.report import render_stage_counts, render_table


def test_table5_instance_reduction(benchmark):
    report = full_report()  # cached campaign (~20-30s on first use)
    table = benchmark(render_stage_counts, report.apps)

    print("\nTable 5 — instances after successively applied methods (ours):")
    print(table)

    print("\npaper's Table 5:")
    stages = ("Original", "After pre-running unit tests",
              "After removing uncertainty", "After pooled testing")
    print(render_table(
        ["Stage"] + list(catalog.APP_NAMES),
        [[stage] + [format(catalog.PAPER_TABLE5[a][i], ",")
                    for a in catalog.APP_NAMES]
         for i, stage in enumerate(stages)]))

    print("\nreduction in orders of magnitude (ours vs paper):")
    for app_report in report.apps:
        paper = catalog.PAPER_TABLE5[app_report.app]
        paper_orders = math.log10(paper[0] / paper[3])
        print("  %-12s %.1f orders (paper: %.1f)"
              % (app_report.app, app_report.stage_counts.reduction_orders(),
                 paper_orders))

    for app_report in report.apps:
        counts = app_report.stage_counts
        # monotone: each technique only removes instances
        assert counts.original >= counts.after_prerun
        assert counts.after_prerun >= counts.after_uncertainty
        assert counts.after_uncertainty >= counts.after_pooling
        # substantial end-to-end reduction on every application
        assert counts.reduction_orders() >= 1.0
        # uncertainty exclusions are a small fraction (<10%, §6.2)
        if counts.after_prerun:
            excluded = counts.after_prerun - counts.after_uncertainty
            assert excluded / counts.after_prerun <= 0.10

    hours = report.total_machine_hours
    # the paper's testbed: "up to 100 physical machines and allocate 20
    # Docker containers on each"
    projected = hours / (100 * 20)
    print("\nmodelled machine time: %.1f hours (paper: 4,652 machine hours "
          "on up to 100 machines)" % hours)
    print("projected wall time on the paper's 100x20-container testbed: "
          "%.2f hours (paper's equivalent: %.2f hours)"
          % (projected, 4652 / 2000))
    assert hours > 0
    assert projected < hours
