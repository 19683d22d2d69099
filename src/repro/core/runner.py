"""TestRunner: execute test instances and confirm suspicions (§5).

For a test instance (unit test + heterogeneous assignment), TestRunner
follows Definition 3.1: run the heterogeneous configuration and every
corresponding homogeneous configuration.  Only "hetero fails, all homos
pass" makes an instance *suspicious*; suspicious instances then enter the
multi-trial confirmation loop governed by :mod:`repro.core.stats`, which
filters the false positives that nondeterministic tests produce.

To minimise run time, multiple trials happen **only** for suspicious
instances (§5: "we run multiple trials of a test instance only if its
heterogeneous configuration fails and none of its homogeneous
configurations fail in the first trial").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import InfrastructureError
from repro.common.faults import FaultInjector, FaultPlan, fault_scope
from repro.common.simulation import SimTimeLimitExceeded, sim_time_limit
from repro.core.confagent import ConfAgent
from repro.core.execcache import (ExecutionCache, canonical_content,
                                  execution_seed, stable_seed)
from repro.core.registry import TestContext, UnitTest
from repro.core.stats import DEFAULT_ALPHA, TrialTally
from repro.core.testgen import HeteroAssignment, TestInstance

# verdicts
PASS = "pass"
BASELINE_FAIL = "baseline-fail"          # a homogeneous side also fails
SUSPICIOUS = "suspicious"                # first trial pattern matched
CONFIRMED_UNSAFE = "confirmed-unsafe"    # hypothesis test significant
FLAKY_DISMISSED = "flaky-dismissed"      # hypothesis test filtered it
INFRA_ERROR = "infra-error"              # harness failed even after retries
#: profile-level infra verdict: the worker *process* running the profile
#: died (segfault/OOM/os._exit/deadline kill) and the supervisor
#: quarantined the profile instead of aborting the campaign.  Lives in
#: ProfileOutcome.error_kind, not InstanceResult.verdict: a dead worker
#: produces no instances.
WORKER_CRASH = "worker-crash"

#: default simulated-time budget per execution: generous (a month of
#: cluster time) so only genuinely runaway tests trip it.
DEFAULT_WATCHDOG_SIM_S = 30 * 24 * 3600.0

#: base of the exponential backoff charged (in modelled machine seconds)
#: before an infrastructure-error retry.
INFRA_BACKOFF_BASE_S = 5.0


@dataclass
class RunOutcome:
    """Result of one execution of one unit test under one assignment."""

    ok: bool
    error_type: str = ""
    error_message: str = ""
    #: the simulated-time watchdog killed the execution.
    timed_out: bool = False
    #: the failure was infrastructural (harness/environment), not the
    #: test oracle — never evidence of heterogeneous unsafety.
    infra: bool = False
    #: infra-error retries burned before this outcome was produced.
    retries: int = 0
    #: discrete faults injected during this execution.
    faults: int = 0
    #: the test consulted ``ctx.rng`` — its outcome may depend on the
    #: trial seed, so the execution cache must key it by seed.
    rng_used: bool = False

    @property
    def failed(self) -> bool:
        return not self.ok


@dataclass
class InstanceResult:
    """Verdict for one test instance after first trial (+ confirmation)."""

    instance: TestInstance
    verdict: str
    hetero_error: str = ""
    tally: Optional[TrialTally] = None
    executions: int = 0


class _TrackedRandom(random.Random):
    """A ``random.Random`` that records whether it was ever consulted.

    Every public drawing method bottoms out in ``random()`` or
    ``getrandbits()``, so flagging those two covers them all.  The flag
    is what lets the execution cache distinguish seed-sensitive
    executions from purely configuration-determined ones.
    """

    used = False

    def random(self) -> float:
        self.used = True
        # First draw proved the point; rebind to the C implementation so
        # the remaining draws skip this Python frame entirely.  (Instance
        # attributes shadow class methods on lookup, and random.py's
        # mixing methods all fetch via ``self``.)
        self.random = super().random
        return self.random()

    def getrandbits(self, k: int) -> int:
        self.used = True
        self.getrandbits = super().getrandbits
        return self.getrandbits(k)


class TestRunner:
    """Executes unit tests under ConfAgent sessions and renders verdicts."""

    def __init__(self, alpha: float = DEFAULT_ALPHA, max_trials: int = 40,
                 run_cost_s: float = 60.0,
                 fault_plan: Optional[FaultPlan] = None,
                 infra_retries: int = 2,
                 watchdog_sim_s: float = DEFAULT_WATCHDOG_SIM_S,
                 registry: Optional[Any] = None,
                 cache: Optional[ExecutionCache] = None,
                 collapse_exclude: Iterable[str] = (),
                 observe: Optional[Any] = None) -> None:
        self.alpha = alpha
        self.max_trials = max_trials
        #: charged per execution when estimating machine time; the paper's
        #: whole-system unit tests average minutes because real clusters
        #: must boot — ours run in simulated time, so machine-time figures
        #: are (executions x run_cost_s).
        self.run_cost_s = run_cost_s
        #: chaos schedule applied to every execution (None = clean runs).
        self.fault_plan = (fault_plan
                           if fault_plan is not None and fault_plan.active
                           else None)
        #: bounded retry budget for *infrastructure* errors only; oracle
        #: failures are data and are never retried outside the §5 loop.
        self.infra_retries = max(infra_retries, 0)
        #: simulated-seconds budget per execution (the TEST_TIMEOUT cap).
        self.watchdog_sim_s = watchdog_sim_s
        #: parameter registry for the homogeneous default-value collapse
        #: (None = no collapse; canonical forms stay purely structural).
        self.registry = registry
        #: shared per-campaign execution cache (None = always execute);
        #: its ``charge_hits`` picks the accounting of a hit.
        self.cache = cache
        #: parameters the unit test explicitly ``set``s during its
        #: pre-run: injecting their default would shadow the set, so the
        #: default-value collapse must not apply to them.
        self.collapse_exclude = frozenset(collapse_exclude)
        #: optional repro.core.observe.Observation: trial/instance spans,
        #: retry/fault events, metric histograms, and the deterministic sim
        #: clock (advanced run_cost_s per execution plus retry backoff).
        self.obs = observe
        #: executions charged (simulated, or replayed under paper
        #: accounting); the figure the paper prices a campaign by.
        self.executions = 0
        #: executions the simulator actually ran (``_execute_once``).
        self.simulations = 0
        self.retries_performed = 0
        #: free-hit cache counters for this runner's share of the work
        #: (untouched under paper accounting).
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_bypasses = 0
        #: fault kind -> total injections across all executions.
        self.fault_counts: Dict[str, int] = {}
        #: extra modelled machine seconds charged by retry backoff.
        self.backoff_cost_s = 0.0

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def canonical_form(self, assignment: Optional[Any]) -> Tuple[Any, ...]:
        """Canonical content form of ``assignment`` under this runner's
        registry and collapse exclusions (see repro.core.execcache)."""
        return self._content(assignment)[0]

    def _content(self, assignment: Optional[Any]
                 ) -> Tuple[Tuple[Any, ...], str]:
        """``(canonical form, its repr)`` of ``assignment``."""
        return canonical_content(assignment, self.registry,
                                 self.collapse_exclude)

    # ------------------------------------------------------------------
    # single execution
    # ------------------------------------------------------------------
    def execute(self, test: UnitTest, assignment: Optional[Any],
                seed: int, canonical: Optional[Tuple[Any, ...]] = None
                ) -> RunOutcome:
        """Run one unit test once under ``assignment`` (None = original).

        Crash containment: the watchdog bounds simulated time, oracle
        failures (any exception from the test body) are data, and
        infrastructure errors are retried with exponential backoff up to
        ``infra_retries`` times before being reported as infrastructural.

        With an execution cache attached, a memoized outcome for the same
        (test, canonical assignment, seed) is returned without running,
        charged as a fresh execution under paper accounting and free
        otherwise; ``canonical`` lets callers that already computed the
        content form avoid recomputing it.
        """
        if self.obs is None:
            return self._execute(test, assignment, seed, canonical)
        before = self.executions
        with self.obs.span(test.full_name, kind="trial",
                           seed=seed) as span:
            outcome = self._execute(test, assignment, seed, canonical)
            span.attrs["ok"] = outcome.ok
            if self.executions == before:
                span.attrs["cached"] = True
            if outcome.retries:
                span.attrs["retries"] = outcome.retries
            if outcome.infra:
                span.attrs["infra"] = True
            if outcome.timed_out:
                span.attrs["timed_out"] = True
        return outcome

    def _execute(self, test: UnitTest, assignment: Optional[Any],
                 seed: int, canonical: Optional[Tuple[Any, ...]] = None
                 ) -> RunOutcome:
        cache = self.cache
        text = None
        if cache is not None:
            # the assignment's cached form comes with its cached text
            content = self._content(assignment)
            if canonical is None or canonical is content[0]:
                canonical, text = content
            cached = cache.lookup(test.full_name, canonical, seed, text)
            if cached is not None:
                if cache.charge_hits:
                    self._charge()
                else:
                    self.cache_hits += 1
                return cached
            if not cache.charge_hits:
                self.cache_misses += 1
        outcome = self._execute_once(test, assignment, seed, attempt=0)
        attempt = 0
        while outcome.infra and attempt < self.infra_retries:
            attempt += 1
            backoff = INFRA_BACKOFF_BASE_S * (2 ** (attempt - 1))
            self.backoff_cost_s += backoff
            self.retries_performed += 1
            if self.obs is not None:
                self.obs.advance_sim(backoff)
                self.obs.event(test.full_name, kind="retry", attempt=attempt,
                               backoff_s=backoff, error=outcome.error_message)
            outcome = self._execute_once(test, assignment, seed,
                                         attempt=attempt)
            outcome.retries = attempt
        if cache is not None:
            seed_sensitive = self.fault_plan is not None or outcome.rng_used
            if not cache.store(test.full_name, canonical, seed, outcome,
                               seed_sensitive=seed_sensitive, text=text) \
                    and not cache.charge_hits:
                self.cache_bypasses += 1
        return outcome

    def _charge(self) -> None:
        """Account one execution: the count and its modelled machine
        time on the observation's sim clock."""
        self.executions += 1
        if self.obs is not None:
            self.obs.advance_sim(self.run_cost_s)

    def _execute_once(self, test: UnitTest, assignment: Optional[Any],
                      seed: int, attempt: int) -> RunOutcome:
        self._charge()
        self.simulations += 1
        agent = ConfAgent(assignment=assignment, record_usage=False)
        rng = _TrackedRandom(seed)
        ctx = TestContext(rng=rng)
        injector = self._injector(seed, attempt)
        try:
            with agent, fault_scope(injector), \
                    sim_time_limit(self.watchdog_sim_s):
                if injector is not None:
                    injector.check_infra("setup")
                test.fn(ctx)
        except SimTimeLimitExceeded as exc:
            outcome = RunOutcome(ok=False, error_type="TestTimeout",
                                 error_message=str(exc), timed_out=True)
        except InfrastructureError as exc:
            outcome = RunOutcome(ok=False, error_type=type(exc).__name__,
                                 error_message=str(exc), infra=True)
        except Exception as exc:  # noqa: BLE001 - oracle: any exception
            outcome = RunOutcome(ok=False, error_type=type(exc).__name__,
                                 error_message=str(exc))
        else:
            outcome = RunOutcome(ok=True)
        outcome.faults = self._collect_faults(injector)
        outcome.rng_used = rng.used
        return outcome

    def _injector(self, seed: int, attempt: int) -> Optional[FaultInjector]:
        if self.fault_plan is None:
            return None
        on_fault = None
        obs = self.obs
        if obs is not None:
            def on_fault(fault: str, data: Dict[str, Any]) -> None:
                obs.event(fault, kind="fault", attempt=attempt, **data)

        # Each (execution, attempt) draws its own schedule so hetero and
        # homo trials are hit independently and retries are not doomed to
        # repeat an injected infrastructure failure.
        return FaultInjector(self.fault_plan,
                             stable_seed(self.fault_plan.seed, seed, attempt),
                             on_fault=on_fault)

    def _collect_faults(self, injector: Optional[FaultInjector]) -> int:
        if injector is None:
            return 0
        for kind, count in injector.counts.items():
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + count
        return injector.total_faults

    # ------------------------------------------------------------------
    # Definition 3.1 first trial
    # ------------------------------------------------------------------
    def first_trial(self, test: UnitTest, assignment: HeteroAssignment
                    ) -> Tuple[RunOutcome, List[RunOutcome]]:
        """Seeds derive from execution *content*, not display labels, so
        identical executions (e.g. the all-defaults homogeneous baseline
        shared by every parameter of a test) share seeds — and therefore
        outcomes, and therefore cache slots."""
        name = test.full_name
        hetero_c, hetero_t = self._content(assignment)
        hetero = self.execute(test, assignment,
                              execution_seed(name, hetero_c, 0, hetero_t),
                              canonical=hetero_c)
        homos: List[RunOutcome] = []
        for side in range(assignment.sides()):
            homo = assignment.homo_variant(side)
            homo_c, homo_t = self._content(homo)
            homos.append(self.execute(
                test, homo, execution_seed(name, homo_c, 0, homo_t),
                canonical=homo_c))
        return hetero, homos

    # ------------------------------------------------------------------
    # full instance evaluation
    # ------------------------------------------------------------------
    def evaluate(self, instance: TestInstance) -> InstanceResult:
        if self.obs is None:
            return self._evaluate(instance)
        with self.obs.span(instance.test.full_name, kind="instance",
                           group=instance.group,
                           strategy=instance.strategy,
                           params=list(instance.params)) as span:
            result = self._evaluate(instance)
            span.attrs["verdict"] = result.verdict
            span.attrs["executions"] = result.executions
            if result.hetero_error:
                span.attrs["hetero_error"] = result.hetero_error
            tally = result.tally
            if tally is not None:
                # the §5 evidence behind the verdict
                span.attrs["trials"] = {
                    "hetero": [tally.hetero_failures, tally.hetero_trials],
                    "homo": [tally.homo_failures, tally.homo_trials],
                    "p_value": tally.p_value()}
        metrics = self.obs.metrics
        metrics.counter_inc("zc_instance_verdicts_total",
                            verdict=result.verdict)
        metrics.hist_observe("zc_instance_executions", result.executions)
        metrics.hist_observe("zc_instance_machine_seconds",
                             result.executions * self.run_cost_s)
        return result

    def _evaluate(self, instance: TestInstance) -> InstanceResult:
        start = self.executions
        hetero, homos = self.first_trial(instance.test, instance.assignment)
        if hetero.infra or any(h.infra for h in homos):
            # The harness, not the configuration, failed — even after the
            # bounded retries.  Contained: reported as INFRA_ERROR, never
            # counted as heterogeneous-unsafe evidence.
            infra_error = (hetero.error_message if hetero.infra else
                           next(h.error_message for h in homos if h.infra))
            return self._done(instance, INFRA_ERROR, start,
                              hetero_error=infra_error)
        if hetero.ok:
            return self._done(instance, PASS, start)
        if any(h.failed for h in homos):
            return self._done(instance, BASELINE_FAIL, start,
                              hetero_error=hetero.error_message)
        tally = self.confirm(instance.test, instance.assignment,
                             first_hetero=hetero, first_homos=homos)
        verdict = CONFIRMED_UNSAFE if tally.significant(self.alpha) else FLAKY_DISMISSED
        return self._done(instance, verdict, start,
                          hetero_error=hetero.error_message, tally=tally)

    def confirm(self, test: UnitTest, assignment: HeteroAssignment,
                first_hetero: RunOutcome,
                first_homos: List[RunOutcome]) -> TrialTally:
        """Multi-trial confirmation loop for a suspicious instance.

        Trials of a seed-insensitive (rng-free, fault-free) test are
        byte-identical re-executions; with a cache attached the simulator
        runs them once (and, with free hits, charges them once).
        """
        tally = TrialTally()
        tally.record_hetero(first_hetero.failed)
        for outcome in first_homos:
            tally.record_homo(outcome.failed)
        trial = 1
        void_trials = 0
        sides = assignment.sides()
        name = test.full_name
        hetero_c, hetero_t = self._content(assignment)
        homo_cs = [self._content(assignment.homo_variant(side))
                   for side in range(sides)]
        while (not tally.significant(self.alpha)
               and tally.hetero_trials < self.max_trials
               and not tally.hopeless(self.alpha, self.max_trials)):
            hetero = self.execute(
                test, assignment,
                execution_seed(name, hetero_c, trial, hetero_t),
                canonical=hetero_c)
            side = trial % sides
            homo_c, homo_t = homo_cs[side]
            homo = self.execute(
                test, assignment.homo_variant(side),
                execution_seed(name, homo_c, trial, homo_t),
                canonical=homo_c)
            trial += 1
            if hetero.infra or homo.infra:
                # A persistent harness failure is not evidence either way;
                # the trial is void, with a bound so confirmation cannot
                # spin against a dead environment.
                void_trials += 1
                if void_trials >= self.max_trials:
                    break
                continue
            tally.record_hetero(hetero.failed)
            tally.record_homo(homo.failed)
        return tally

    # ------------------------------------------------------------------
    def _done(self, instance: TestInstance, verdict: str, start_executions: int,
              hetero_error: str = "", tally: Optional[TrialTally] = None) -> InstanceResult:
        return InstanceResult(instance=instance, verdict=verdict,
                              hetero_error=hetero_error, tally=tally,
                              executions=self.executions - start_executions)

    # ------------------------------------------------------------------
    @property
    def machine_time_s(self) -> float:
        return self.executions * self.run_cost_s + self.backoff_cost_s
