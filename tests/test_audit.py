"""Registry wiring audit: verdict engine, fixtures, campaign integration.

The headline invariants:

* the deliberately mis-wired fixture parameters planted in the HDFS and
  YARN registries are flagged with exactly their planted verdicts;
* the audit never flags a parameter the campaign evaluation reports
  (true problem or §7.1 false positive) — zero false positives on the
  untouched registries;
* switching ``--audit`` on changes *nothing* about the unsafe findings:
  verdicts, executions, and modelled machine time are byte-identical,
  the audit only attaches its own separately-budgeted section.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.apps import catalog
from repro.cli import main
from repro.core.audit import (AUDIT_EXEMPT_TAG, FIXTURE_INERT_TAG,
                              FIXTURE_UNREAD_TAG, READ_BUT_INERT, UNREAD,
                              WIRED, audit_app)
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import app_report_to_dict
from repro.core.reportmd import app_report_markdown

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: the living fixtures planted in apps/*/params.py
FIXTURES = {
    "hdfs": {"dfs.namenode.lock.detailed-metrics.enabled": UNREAD,
             "dfs.datanode.metrics.logger.period.seconds": READ_BUT_INERT},
    "yarn": {"yarn.nodemanager.disk-health-checker.enable": UNREAD,
             "yarn.nodemanager.container-metrics.period-ms": READ_BUT_INERT},
}


@pytest.fixture(scope="session")
def _audits():
    """audit_app(app) at default settings, by app, run on first use."""
    return {}


@pytest.fixture
def audit_of(_audits):
    """One default audit per app per session; each call returns an
    independent copy.  Tests that edit a registry, scope the audit or
    compare two runs keep calling audit_app themselves."""
    def audit(app):
        if app not in _audits:
            _audits[app] = audit_app(app)
        return copy.deepcopy(_audits[app])
    return audit


def flink_campaign(**kw):
    spec = catalog.spec_for("flink")
    return Campaign("flink", spec.registry,
                    dependency_rules=spec.dependency_rules,
                    config=CampaignConfig(**kw)).run()


# ---------------------------------------------------------------------------
# planted fixtures
# ---------------------------------------------------------------------------
class TestFixtures:
    @pytest.mark.parametrize("app", sorted(FIXTURES))
    def test_fixtures_get_their_planted_verdicts(self, app, audit_of):
        stats = audit_of(app)
        for param, verdict in FIXTURES[app].items():
            assert stats.verdict_for(param) == verdict, param

    @pytest.mark.parametrize("app", sorted(FIXTURES))
    def test_fixture_tags_match_verdicts(self, app, audit_of):
        """The tags are the contract: anything tagged as a fixture must
        be flagged with the verdict its tag announces."""
        stats = audit_of(app)
        spec = catalog.spec_for(app)
        tagged = {p.name: p.tags for p in spec.registry
                  if FIXTURE_UNREAD_TAG in p.tags or FIXTURE_INERT_TAG in p.tags}
        assert len(tagged) >= 2
        for name, tags in tagged.items():
            want = UNREAD if FIXTURE_UNREAD_TAG in tags else READ_BUT_INERT
            assert stats.verdict_for(name) == want

    def test_fixtures_are_flagged_not_exempt(self, audit_of):
        stats = audit_of("hdfs")
        flagged = {f.param for f in stats.flagged()}
        for param in FIXTURES["hdfs"]:
            assert param in flagged

    def test_inert_fixture_has_read_sites_and_probes(self, audit_of):
        stats = audit_of("hdfs")
        finding = next(f for f in stats.findings
                       if f.param == "dfs.datanode.metrics.logger.period.seconds")
        assert finding.verdict == READ_BUT_INERT
        assert finding.read_sites, "INERT requires at least one read site"
        assert finding.probes > 0, "INERT must be established by probing"

    def test_unread_fixture_never_probed(self, audit_of):
        stats = audit_of("yarn")
        finding = next(f for f in stats.findings
                       if f.param == "yarn.nodemanager.disk-health-checker.enable")
        assert finding.verdict == UNREAD
        assert not finding.read_sites and finding.probes == 0


# ---------------------------------------------------------------------------
# zero false positives on the untouched registries
# ---------------------------------------------------------------------------
class TestNoFalsePositives:
    @pytest.mark.parametrize("app", catalog.APP_NAMES)
    def test_no_reported_parameter_is_flagged(self, app, audit_of):
        """A parameter the evaluation reports (true problem or §7.1 FP)
        is by construction read AND behaviourally live — the audit must
        never flag it."""
        stats = audit_of(app)
        spec = catalog.spec_for(app)
        reported = set(spec.expected_unsafe) | set(spec.expected_false_positives)
        flagged = {f.param for f in stats.flagged()}
        assert not (flagged & reported)

    def test_single_candidate_params_conservatively_wired(self, audit_of):
        """Path-like parameters offer no candidate value pairs, so there
        is nothing to probe with — the audit must not guess INERT."""
        stats = audit_of("hdfs")
        finding = next(f for f in stats.findings
                       if f.param == "dfs.datanode.data.dir")
        assert finding.verdict == WIRED
        assert finding.probes == 0

    def test_exempt_tag_suppresses_flagging(self):
        """`audit-exempt` keeps the verdict but drops it from flagged()."""
        spec = catalog.spec_for("yarn")
        for p in spec.registry:
            if FIXTURE_UNREAD_TAG in p.tags:
                object.__setattr__(p, "tags", p.tags + (AUDIT_EXEMPT_TAG,))
                exempted = p.name
                break
        try:
            stats = audit_app("yarn")
            assert stats.verdict_for(exempted) == UNREAD
            assert exempted not in {f.param for f in stats.flagged()}
            assert stats.exempt_flagged >= 1
        finally:
            for p in spec.registry:
                if p.name == exempted:
                    object.__setattr__(
                        p, "tags",
                        tuple(t for t in p.tags if t != AUDIT_EXEMPT_TAG))


# ---------------------------------------------------------------------------
# determinism and accounting
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_two_runs_identical(self):
        assert audit_app("flink").to_dict() == audit_app("flink").to_dict()

    def test_counts_reconcile(self, audit_of):
        stats = audit_of("flink")
        assert (stats.wired + stats.unread + stats.inert
                == stats.params_total == len(stats.findings))
        assert stats.machine_time_s == stats.probe_executions * 60.0

    def test_param_scoping(self):
        target = "dfs.datanode.metrics.logger.period.seconds"
        stats = audit_app("hdfs", params=[target])
        assert stats.params_total == 1
        assert stats.verdict_for(target) == READ_BUT_INERT


# ---------------------------------------------------------------------------
# campaign integration: --audit must not move the findings
# ---------------------------------------------------------------------------
class TestCampaignIntegration:
    @pytest.fixture(scope="class")
    def reports(self):
        return flink_campaign(audit=False), flink_campaign(audit=True)

    def test_findings_identical(self, reports):
        base, audited = reports
        assert base.audit is None and audited.audit is not None

        def findings(r):
            return [(v.param, v.is_true_problem, v.category, v.fp_reason,
                     tuple(v.failing_tests)) for v in r.verdicts]
        assert findings(base) == findings(audited)
        assert base.executions == audited.executions
        assert base.machine_time_s == audited.machine_time_s

    def test_report_dict_carries_audit_block(self, reports):
        base, audited = reports
        assert app_report_to_dict(base)["audit"] is None
        block = app_report_to_dict(audited)["audit"]
        assert block["params_total"] == audited.audit.params_total
        json.dumps(block)  # must be JSON-serializable

    def test_markdown_section_only_when_audited(self, reports):
        base, audited = reports
        assert "## Wiring audit" not in app_report_markdown(base)
        assert "## Wiring audit" in app_report_markdown(audited)

    def test_audit_metrics_in_separate_budget(self):
        report = flink_campaign(audit=True, observe=True)
        metrics = report.observation.metrics
        assert metrics.total("zc_audit_probe_executions_total") > 0
        assert metrics.total("zc_audit_params_total") == report.audit.params_total
        # the campaign's own budget is untouched by audit probes
        assert (metrics.total("zc_executions_total")
                + metrics.total("zc_prerun_executions_total")
                == report.executions)
        assert any(s.kind == "audit" for s in report.observation.spans)


# ---------------------------------------------------------------------------
# golden markdown section
# ---------------------------------------------------------------------------
def audit_markdown_section(markdown):
    lines = markdown.splitlines()
    start = lines.index("## Wiring audit")
    end = next(i for i in range(start + 1, len(lines))
               if lines[i].startswith("## "))
    return "\n".join(lines[start:end]) + "\n"


def regenerate_golden_files():
    """import test_audit; test_audit.regenerate_golden_files()"""
    report = flink_campaign(audit=True)
    section = audit_markdown_section(app_report_markdown(report))
    with open(os.path.join(GOLDEN_DIR, "audit_section.md"), "w") as handle:
        handle.write(section)


class TestGolden:
    def test_wiring_audit_section_matches_golden(self):
        report = flink_campaign(audit=True)
        section = audit_markdown_section(app_report_markdown(report))
        with open(os.path.join(GOLDEN_DIR, "audit_section.md")) as expected:
            assert section == expected.read(), (
                "regenerate with 'import test_audit; "
                "test_audit.regenerate_golden_files()'")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_audit_subcommand(self, capsys):
        assert main(["audit", "yarn"]) == 0
        out = capsys.readouterr().out
        assert "wiring audit over 'yarn'" in out
        for param in FIXTURES["yarn"]:
            assert param in out

    def test_audit_param_scoping(self, capsys):
        target = "yarn.nodemanager.container-metrics.period-ms"
        assert main(["audit", "yarn", "--param", target]) == 0
        out = capsys.readouterr().out
        assert "1 parameters" in out and target in out

    def test_audit_all_prints_wired_verdicts_too(self, capsys):
        target = "ipc.client.kill.max"
        assert main(["audit", "hadooptools", "--param", target]) == 0
        out = capsys.readouterr().out
        assert "every audited parameter is wired" in out
        assert target not in out
        assert main(["audit", "hadooptools", "--param", target,
                     "--all"]) == 0
        assert target in capsys.readouterr().out

    def test_audit_json(self, tmp_path, capsys):
        path = str(tmp_path / "audit.json")
        assert main(["audit", "hdfs", "--json", path]) == 0
        capsys.readouterr()
        with open(path) as handle:
            record = json.load(handle)
        for param, verdict in FIXTURES["hdfs"].items():
            assert record["verdicts"][param] == verdict

    def test_campaign_audit_flag(self, capsys):
        assert main(["campaign", "flink", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "wiring audit:" in out
