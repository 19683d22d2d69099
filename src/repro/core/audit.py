"""Registry wiring audit: WIRED / UNREAD / READ_BUT_INERT verdicts.

The campaigns assume every registry parameter is actually wired into the
runtime, but registries drift: "paper parameters" survive in config long
after the code that read them is gone, silently invalidating
reproduction and ablation attempts.  The audit inverts the pre-run
phase's read recording into a per-parameter verdict:

* ``WIRED``          — some runtime path reads the parameter *and* its
  value demonstrably alters at least one outcome stream;
* ``UNREAD``         — the parameter is never read by any runtime path
  across the whole corpus;
* ``READ_BUT_INERT`` — the parameter is read, but differential probes
  found no assignment (heterogeneous or homogeneous) whose behaviour
  diverges from the original run.

**Differential probes.**  For every reading test, group, §4 strategy and
value pair the TestGenerator would produce, the auditor executes the
test under the assignment *and all of its homogeneous sides* and
compares a behavioural fingerprint against the original-configuration
baseline.  Heterogeneous variants are essential: a wire-format parameter
(e.g. a checksum type) keeps both sides agreeing under any homogeneous
change and only misbehaves heterogeneously — homo-only probing would
flag exactly the paper's Table-3 findings as inert.  The fingerprint
deliberately exceeds pass/fail: it folds in the full read-site count
map, started node groups, explicitly-set parameters and the number of
``ctx.rng`` draws, so a value that changes *behaviour* without flipping
the oracle still counts as wired.  Baseline and variants run under the
same content-derived seed (:func:`repro.core.execcache.execution_seed`
over the ORIGINAL form), making the rng stream a constant of the
comparison — any divergence is attributable to the injected values.

**Probe economy.**  Probes reuse the execution cache's canonical forms:
a homogeneous variant that collapses onto ``ORIGINAL`` (injecting a
default the test never sets) is behaviourally identical to the baseline
by construction and is skipped outright (*collapsed*), and outcomes are
memoized per ``(test, canonical fingerprint)`` so the homogeneous sides
shared across strategies and parameters execute once (*cache hits*).
The first divergence short-circuits the sweep.

Parameters that are read only through unmappable configuration objects
or only by unusable tests cannot be probed soundly (injection through an
uncertain conf would fabricate divergence); they stay conservatively
``WIRED``.  Intentionally-dormant parameters are exempted from flagging
with the ``audit-exempt`` registry tag (see docs/AUDIT.md) — their
verdict is still computed and reported.

Audit executions are accounted separately from campaign executions
(``zc_audit_*`` metrics, ``AuditStats.machine_time_s``) so campaign
reports with the audit enabled stay byte-identical to seed reports in
their unsafe-findings sections.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.common.params import ParamDef, ParamRegistry
from repro.common.simulation import SimTimeLimitExceeded, sim_time_limit
from repro.core.confagent import UNCERTAIN, UNIT_TEST, ConfAgent
from repro.core.execcache import (ORIGINAL, canonical_assignment,
                                  execution_seed, fingerprint)
from repro.core.prerun import TestProfile
from repro.core.registry import TestContext
from repro.core.runner import DEFAULT_WATCHDOG_SIM_S
from repro.core.testgen import HeteroAssignment, TestGenerator

#: audit verdicts
WIRED = "WIRED"
UNREAD = "UNREAD"
READ_BUT_INERT = "READ_BUT_INERT"

#: ParamDef tag that exempts an intentionally-dormant parameter from the
#: flagged list (its verdict is still computed and reported).
AUDIT_EXEMPT_TAG = "audit-exempt"

#: tags marking the living audit fixtures planted in app registries.
FIXTURE_UNREAD_TAG = "audit-fixture-unread"
FIXTURE_INERT_TAG = "audit-fixture-inert"


def _owner_label(node_type: str, node_index: int) -> str:
    """Human-readable read-site component: ``NameNode#0``, or the
    pseudo-entities ``unit-test`` / ``uncertain``."""
    if node_type == UNIT_TEST:
        return "unit-test"
    if node_type == UNCERTAIN:
        return "uncertain"
    return "%s#%d" % (node_type, node_index)


@dataclass(frozen=True)
class ReadSite:
    """One attributed read site: which component of which test read the
    parameter, and how many ``get`` calls it issued during the pre-run."""

    test: str
    owner: str
    count: int

    def to_list(self) -> List[Any]:
        return [self.test, self.owner, self.count]


@dataclass
class ParamAudit:
    """The audit verdict for one registry parameter."""

    param: str
    verdict: str
    exempt: bool = False
    #: differential probe comparisons performed before the verdict
    #: settled (0 for UNREAD; small for WIRED thanks to short-circuit).
    probes: int = 0
    #: first observed divergence (WIRED), or why probing was impossible.
    detail: str = ""
    read_sites: Tuple[ReadSite, ...] = ()

    @property
    def flagged(self) -> bool:
        return self.verdict != WIRED and not self.exempt

    def to_dict(self) -> Dict[str, Any]:
        return {
            "param": self.param,
            "verdict": self.verdict,
            "exempt": self.exempt,
            "probes": self.probes,
            "detail": self.detail,
            "read_sites": [site.to_list() for site in self.read_sites],
        }


@dataclass
class AuditStats:
    """Wiring-audit results for one application registry.

    ``machine_time_s`` models probe cost (probe executions x run_cost_s)
    and is kept separate from ``AppReport.machine_time_s`` so enabling
    the audit never perturbs campaign execution accounting.
    """

    params_total: int = 0
    wired: int = 0
    unread: int = 0
    inert: int = 0
    #: parameters whose verdict would flag them but that carry the
    #: ``audit-exempt`` tag (intentionally dormant).
    exempt_flagged: int = 0
    probe_executions: int = 0
    probe_cache_hits: int = 0
    probes_collapsed: int = 0
    machine_time_s: float = 0.0
    findings: Tuple[ParamAudit, ...] = ()

    def flagged(self) -> Tuple[ParamAudit, ...]:
        """Non-exempt UNREAD / READ_BUT_INERT findings, sorted by
        (verdict, parameter) for stable reporting."""
        order = {UNREAD: 0, READ_BUT_INERT: 1}
        return tuple(sorted((f for f in self.findings if f.flagged),
                            key=lambda f: (order[f.verdict], f.param)))

    def verdict_for(self, param: str) -> Optional[str]:
        for finding in self.findings:
            if finding.param == param:
                return finding.verdict
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "params_total": self.params_total,
            "wired": self.wired,
            "unread": self.unread,
            "read_but_inert": self.inert,
            "exempt_flagged": self.exempt_flagged,
            "probe_executions": self.probe_executions,
            "probe_cache_hits": self.probe_cache_hits,
            "probes_collapsed": self.probes_collapsed,
            "machine_time_s": self.machine_time_s,
            "flagged": [f.to_dict() for f in self.flagged()],
            "verdicts": {f.param: f.verdict for f in self.findings},
        }


@dataclass(frozen=True)
class _Probe:
    """One memoized probe execution, reduced to what comparison needs."""

    fingerprint: str
    ok: bool
    error_type: str
    timed_out: bool


class _CountingRandom(random.Random):
    """Counts every draw.  Unlike ``runner._TrackedRandom`` (which only
    needs a used/unused bit and rebinds to the C implementation after
    its first draw), the *number* of draws is part of the behavioural
    fingerprint, so each one must pass through the counter."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)


class WiringAuditor:
    """Runs the wiring audit over one registry and its pre-run profiles."""

    def __init__(self, registry: ParamRegistry,
                 profiles: Sequence[TestProfile],
                 generator: Optional[TestGenerator] = None,
                 watchdog_sim_s: float = DEFAULT_WATCHDOG_SIM_S,
                 run_cost_s: float = 60.0,
                 param_allowed: Optional[Callable[[str], bool]] = None
                 ) -> None:
        self.registry = registry
        self.profiles = list(profiles)
        self.generator = (generator if generator is not None
                          else TestGenerator(registry))
        self.watchdog_sim_s = watchdog_sim_s
        self.run_cost_s = run_cost_s
        self.param_allowed = param_allowed
        #: (test full name, canonical fingerprint) -> memoized probe.
        self._memo: Dict[Tuple[str, str], _Probe] = {}
        self.probe_executions = 0
        self.probe_cache_hits = 0
        self.probes_collapsed = 0

    # ------------------------------------------------------------------
    # probe execution
    # ------------------------------------------------------------------
    def _probe(self, profile: TestProfile, assignment: Optional[Any],
               canonical: Tuple[Any, ...]) -> _Probe:
        test = profile.test
        key = (test.full_name, fingerprint(canonical))
        memoized = self._memo.get(key)
        if memoized is not None:
            self.probe_cache_hits += 1
            return memoized
        self.probe_executions += 1
        # Baseline and every variant share the baseline's content-derived
        # seed: the rng stream is a constant of the comparison, so any
        # fingerprint divergence is attributable to the injected values.
        seed = execution_seed(test.full_name, ORIGINAL, 0)
        agent = ConfAgent(assignment=assignment, record_usage=True)
        rng = _CountingRandom(seed)
        ctx = TestContext(rng=rng)
        ok, error_type, error_message, timed_out = True, "", "", False
        try:
            with agent, sim_time_limit(self.watchdog_sim_s):
                test.fn(ctx)
        except SimTimeLimitExceeded as exc:
            ok, timed_out = False, True
            error_type, error_message = "TestTimeout", str(exc)
        except Exception as exc:  # noqa: BLE001 - oracle: any exception
            ok = False
            error_type, error_message = type(exc).__name__, str(exc)
        behaviour = (
            ok, error_type, error_message, timed_out, rng.draws,
            tuple(sorted((owner, index, name, count)
                         for (owner, index), reads
                         in agent.read_sites.items()
                         for name, count in reads.items())),
            tuple(sorted(agent.node_counts.items())),
            tuple(sorted(agent.set_params)),
        )
        probe = _Probe(fingerprint=fingerprint(behaviour), ok=ok,
                       error_type=error_type, timed_out=timed_out)
        self._memo[key] = probe
        return probe

    @staticmethod
    def _outcome_label(probe: _Probe) -> str:
        if probe.ok:
            return "pass"
        return probe.error_type or "fail"

    def _describe(self, baseline: _Probe, outcome: _Probe,
                  profile: TestProfile, group: str, strategy: str,
                  variant: str, pair: Tuple[Any, Any]) -> str:
        if baseline.ok != outcome.ok or baseline.error_type != outcome.error_type:
            delta = "outcome %s -> %s" % (self._outcome_label(baseline),
                                          self._outcome_label(outcome))
        else:
            delta = "behaviour stream diverged (reads/rng/nodes/sets)"
        return "%s [%s/%s/%s] pair=%r: %s" % (
            profile.test.full_name, group, strategy, variant, pair, delta)

    # ------------------------------------------------------------------
    # per-parameter sweep
    # ------------------------------------------------------------------
    def _probe_param(self, param: ParamDef,
                     readers: Sequence[TestProfile]
                     ) -> Tuple[str, int, str]:
        """Sweep every (reading test, group, strategy, pair) the campaign
        would generate, hetero variant plus all homogeneous sides, and
        short-circuit to WIRED on the first behavioural divergence."""
        pairs = self.generator.value_pairs(param)
        if not pairs:
            return WIRED, 0, ("no candidate value pairs to probe with; "
                              "not probeable, conservatively WIRED")
        probes = 0
        probeable = False
        for profile in readers:
            if not profile.usable:
                continue
            groups = [g for g in sorted(profile.groups)
                      if param.name in profile.testable_params(g)]
            if not groups:
                continue
            probeable = True
            baseline = self._probe(profile, None, ORIGINAL)
            for group in groups:
                strategies = self.generator.strategies_for_group(
                    profile.groups[group])
                for pair in pairs:
                    for strategy in strategies:
                        hetero = HeteroAssignment((self.generator.assignment(
                            param, group, strategy, pair),))
                        variants: List[Tuple[str, Any]] = [("hetero", hetero)]
                        for side in range(hetero.sides()):
                            variants.append(("homo[%d]" % side,
                                             hetero.homo_variant(side)))
                        for label, variant in variants:
                            canonical = canonical_assignment(
                                variant, registry=self.registry,
                                no_collapse=profile.explicit_sets)
                            if canonical == ORIGINAL:
                                # Injecting the default where the test
                                # never sets it is indistinguishable from
                                # not injecting — identical to the
                                # baseline by construction.
                                self.probes_collapsed += 1
                                continue
                            probes += 1
                            outcome = self._probe(profile, variant,
                                                  canonical)
                            if outcome.fingerprint != baseline.fingerprint:
                                return WIRED, probes, self._describe(
                                    baseline, outcome, profile, group,
                                    strategy, label, pair)
        if not probeable:
            return WIRED, probes, ("read only through uncertain confs or "
                                   "unusable tests; not probeable, "
                                   "conservatively WIRED")
        return READ_BUT_INERT, probes, (
            "no divergence across %d differential probes" % probes)

    # ------------------------------------------------------------------
    # verdict engine
    # ------------------------------------------------------------------
    def run(self) -> AuditStats:
        sites: Dict[str, List[ReadSite]] = {}
        readers: Dict[str, List[TestProfile]] = {}
        for profile in self.profiles:
            seen: Set[str] = set()
            for (owner, index), counts in sorted(profile.read_sites.items()):
                label = _owner_label(owner, index)
                for name in sorted(counts):
                    sites.setdefault(name, []).append(ReadSite(
                        test=profile.test.full_name, owner=label,
                        count=counts[name]))
                    if name not in seen:
                        seen.add(name)
                        readers.setdefault(name, []).append(profile)
        findings: List[ParamAudit] = []
        for param in sorted(self.registry, key=lambda p: p.name):
            if (self.param_allowed is not None
                    and not self.param_allowed(param.name)):
                continue
            param_sites = tuple(sites.get(param.name, ()))
            if not param_sites:
                verdict, probes, detail = UNREAD, 0, (
                    "never read by any runtime path across the corpus")
            else:
                verdict, probes, detail = self._probe_param(
                    param, readers.get(param.name, ()))
            findings.append(ParamAudit(
                param=param.name, verdict=verdict,
                exempt=AUDIT_EXEMPT_TAG in param.tags,
                probes=probes, detail=detail, read_sites=param_sites))
        stats = AuditStats(
            params_total=len(findings),
            wired=sum(1 for f in findings if f.verdict == WIRED),
            unread=sum(1 for f in findings if f.verdict == UNREAD),
            inert=sum(1 for f in findings
                      if f.verdict == READ_BUT_INERT),
            exempt_flagged=sum(1 for f in findings
                               if f.verdict != WIRED and f.exempt),
            probe_executions=self.probe_executions,
            probe_cache_hits=self.probe_cache_hits,
            probes_collapsed=self.probes_collapsed,
            machine_time_s=self.probe_executions * self.run_cost_s,
            findings=tuple(findings))
        return stats


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def audit_campaign(campaign: Any,
                   profiles: Sequence[TestProfile]) -> AuditStats:
    """Audit phase of a running campaign: reuse its registry, generator
    and pre-run profiles (no extra pre-run executions)."""
    config = campaign.config
    auditor = WiringAuditor(campaign.registry, profiles,
                            generator=campaign.generator,
                            watchdog_sim_s=config.watchdog_sim_s,
                            run_cost_s=config.run_cost_s,
                            param_allowed=config.param_allowed)
    return auditor.run()


def audit_app(app: str, max_value_pairs: int = 3,
              watchdog_sim_s: float = DEFAULT_WATCHDOG_SIM_S,
              run_cost_s: float = 60.0,
              params: Optional[Sequence[str]] = None) -> AuditStats:
    """Standalone audit of one application (the ``repro audit`` path):
    pre-runs the corpus, then runs the verdict engine."""
    from repro.apps import catalog
    from repro.core.prerun import prerun_corpus
    from repro.core.registry import load_all_suites

    spec = catalog.spec_for(app)
    corpus = load_all_suites()
    profiles = prerun_corpus(corpus.for_app(app))
    generator = TestGenerator(spec.registry,
                              dependency_rules=spec.dependency_rules,
                              max_value_pairs=max_value_pairs)
    allowed = None
    if params is not None:
        wanted = frozenset(params)
        allowed = lambda name: name in wanted  # noqa: E731
    auditor = WiringAuditor(spec.registry, profiles, generator=generator,
                            watchdog_sim_s=watchdog_sim_s,
                            run_cost_s=run_cost_s, param_allowed=allowed)
    return auditor.run()
