"""Markdown rendering of campaign reports (the CLI's ``--markdown``).

CI systems and code review surfaces consume markdown; this renders the
same content as the text renderers — verdicts, stage counts, §7.2
statistics — as pipe tables, one document per campaign or evaluation.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.report import AppReport, CampaignReport


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def app_report_markdown(report: AppReport) -> str:
    sections: List[str] = ["# ZebraConf campaign: %s" % report.app, ""]

    sections.append("## Instances per stage")
    sections.append(_table(["Stage", "Instances"],
                           [[stage, format(count, ",")]
                            for stage, count in report.stage_counts.rows()]))
    sections.append("")

    sections.append("## Reported parameters")
    if report.verdicts:
        sections.append(_table(
            ["Parameter", "Verdict", "Category / cause", "Failing tests"],
            [[v.param,
              "**TRUE PROBLEM**" if v.is_true_problem else "false positive",
              v.category if v.is_true_problem else v.fp_reason,
              len(v.failing_tests)] for v in report.verdicts]))
    else:
        sections.append("_none_")
    sections.append("")

    audit = report.audit
    if audit is not None:
        sections.append("## Wiring audit")
        sections.append(_table(["metric", "value"], [
            ["parameters audited", audit.params_total],
            ["WIRED", audit.wired],
            ["UNREAD", audit.unread],
            ["READ_BUT_INERT", audit.inert],
            ["flagged but exempt", audit.exempt_flagged],
            ["differential probe executions",
             format(audit.probe_executions, ",")],
            ["probe cache hits", format(audit.probe_cache_hits, ",")],
            ["probes collapsed onto baseline",
             format(audit.probes_collapsed, ",")],
            ["audit machine hours (separate budget)",
             "%.1f" % (audit.machine_time_s / 3600)],
        ]))
        sections.append("")
        flagged = audit.flagged()
        if flagged:
            sections.append(_table(
                ["Parameter", "Verdict", "Read sites", "Detail"],
                [["`%s`" % f.param, "**%s**" % f.verdict,
                  len(f.read_sites), f.detail] for f in flagged]))
        else:
            sections.append("_every audited parameter is wired_")
        sections.append("")

    hypo = report.hypothesis_stats
    sections.append("## Run statistics")
    stats_rows = [
        ["unit-test executions", format(report.executions, ",")],
        ["modelled machine hours", "%.1f" % (report.machine_time_s / 3600)],
        ["suspicious first trials", hypo.suspicious_first_trial],
        ["filtered as flaky", hypo.filtered_as_flaky],
        ["blacklisted parameters", len(report.blacklisted)],
    ]
    pool = report.pool_stats
    if pool.pool_voids or pool.pool_infra_giveups:
        stats_rows.append(["voided pool runs (re-drawn)", pool.pool_voids])
        stats_rows.append(["pools abandoned as infra",
                           pool.pool_infra_giveups])
    if report.exec_cache_enabled:
        stats_rows.append(["exec-cache hits", format(pool.exec_cache_hits,
                                                     ",")])
        stats_rows.append(["exec-cache misses",
                           format(pool.exec_cache_misses, ",")])
        stats_rows.append(["exec-cache bypasses", pool.exec_cache_bypasses])
    sections.append(_table(["metric", "value"], stats_rows))
    sections.append("")

    plan = report.plan
    if plan is not None:
        from repro.core.plan import PLAN_NEW, PLAN_RERUN, PLAN_REUSE
        sections.append("## Campaign plan")
        sections.append(_table(["metric", "value"], [
            ["profiles reused from store", plan.count(PLAN_REUSE)],
            ["profiles rerun (substrate changed)", plan.count(PLAN_RERUN)],
            ["profiles new to the store", plan.count(PLAN_NEW)],
            ["reuse demoted by blacklist coupling", plan.demoted],
            ["executions saved", format(plan.executions_saved, ",")],
        ]))
        sections.append("")
        sections.append(_table(
            ["Unit test", "Decision", "Reason", "Executions saved"],
            [["`%s`" % p.test, p.decision.upper(), p.reason,
              format(p.executions_saved, ",")] for p in plan.profiles]))
        sections.append("")

    if report.cost_centers:
        sections.append("## Top cost centers")
        sections.append(_table(
            ["Unit test", "Executions", "Modelled hours", "Instances"],
            [["`%s`" % center.test, format(center.executions, ","),
              "%.1f" % (center.machine_time_s / 3600), center.instances]
             for center in report.cost_centers]))
        sections.append("")

    if report.observation is not None:
        from repro.core.observe import phase_costs
        rows = phase_costs(report.observation)
        if rows:
            sections.append("## Where time went")
            sections.append(_table(
                ["Phase", "Spans", "Modelled hours (self time)"],
                [[kind, count, "%.1f" % (self_s / 3600)]
                 for kind, count, self_s in rows]))
            sections.append("")

    supervision = report.supervision
    if supervision.enabled:
        sections.append("## Worker supervision")
        sections.append(_table(["metric", "value"], [
            ["workers spawned", supervision.workers_spawned],
            ["worker crashes", supervision.crashes],
            ["respawns", supervision.respawns],
            ["profile redeliveries", supervision.redeliveries],
            ["deadline kills", supervision.deadline_kills],
            ["heartbeat kills", supervision.heartbeat_kills],
            ["profiles quarantined", supervision.quarantined],
            ["circuit breaker tripped",
             "**yes — partial report**" if supervision.circuit_breaker_tripped
             else "no"],
        ]))
        sections.append("")

    store = report.store
    if store is not None and store.enabled:
        sections.append("## Result store")
        store_rows = [
            ["segments", store.segments],
            ["entries loaded at open", format(store.entries_loaded, ",")],
            ["reports loaded at open", store.reports_loaded],
            ["store hits", format(store.hits, ",")],
            ["store misses", format(store.misses, ",")],
            ["entries appended", format(store.appends, ",")],
        ]
        if store.salvaged_records or store.corrupt_records \
                or store.truncated_tails:
            store_rows.append(["records salvaged from damaged segments",
                               store.salvaged_records])
            store_rows.append(["corrupt records skipped",
                               store.corrupt_records])
            store_rows.append(["truncated tails skipped",
                               store.truncated_tails])
        if store.stale_refused:
            store_rows.append(["stale entries refused (digest mismatch)",
                               store.stale_refused])
        if store.write_errors:
            store_rows.append(
                ["write errors (store degraded to read-only)",
                 "**%d**" % store.write_errors])
        sections.append(_table(["metric", "value"], store_rows))
        sections.append("")

    distribution = report.distribution
    if distribution.enabled:
        sections.append("## Fleet")
        fleet_rows = [
            ["coordinator listen address", distribution.listen],
            ["workers joined", distribution.workers_joined],
            ["workers lost", distribution.workers_lost],
            ["leases granted", distribution.leases_granted],
            ["lease redeliveries", distribution.redeliveries],
            ["work-stealing copies", distribution.steals],
            ["duplicate outcomes suppressed",
             distribution.duplicates_suppressed],
            ["heartbeat expiries", distribution.heartbeat_expiries],
            ["lease deadline expiries", distribution.lease_expiries],
            ["connections refused by auth handshake",
             distribution.auth_rejects],
            ["profiles quarantined", distribution.quarantined],
            ["profiles run remotely", distribution.remote_profiles],
            ["profiles run by local fallback", distribution.local_profiles],
            ["degraded to local pool",
             "**yes**" if distribution.degraded_to_local else "no"],
        ]
        for kind, count in sorted(distribution.net_faults.items()):
            fleet_rows.append(["injected net faults (%s)" % kind, count])
        sections.append(_table(["metric", "value"], fleet_rows))
        sections.append("")
        if distribution.fleet:
            sections.append(_table(
                ["Worker", "Connects", "Profiles", "Leases lost"],
                [[w.worker, w.connects, w.profiles, w.leases_lost]
                 for w in sorted(distribution.fleet,
                                 key=lambda w: w.worker)]))
            sections.append("")

    if report.degraded_tests:
        sections.append("## Infrastructure failures")
        quarantined = set(report.quarantined_tests)
        sections.append(_table(["Unit test", "Failure"], [
            ["`%s`" % name,
             "worker crash (profile quarantined)" if name in quarantined
             else "harness error (profile degraded)"]
            for name in report.degraded_tests]))
        sections.append("")
        for name in report.degraded_tests:
            error = report.degraded_errors.get(name, "")
            if not error:
                continue
            sections.append("### `%s`" % name)
            sections.append("```\n%s\n```" % error.rstrip("\n"))
            sections.append("")
    return "\n".join(sections)


def campaign_report_markdown(report: CampaignReport) -> str:
    sections: List[str] = ["# ZebraConf evaluation", ""]
    sections.append(_table(
        ["", "count"],
        [["reported parameters", len(report.unique_verdicts())],
         ["true problems", len(report.unique_true_problems())],
         ["false positives", len(report.unique_false_positives())],
         ["machine hours (modelled)",
          "%.1f" % report.total_machine_hours]]))
    sections.append("")
    sections.append("## True heterogeneous-unsafe parameters")
    from repro.apps.catalog import TABLE3_WHY, section_for_param
    sections.append(_table(
        ["Section", "Parameter", "Why (paper's Table 3)"],
        [[section_for_param(v.param), "`%s`" % v.param,
          TABLE3_WHY.get(v.param, v.category)]
         for v in report.unique_true_problems()]))
    sections.append("")
    for app_report in report.apps:
        sections.append(app_report_markdown(app_report))
    return "\n".join(sections)
