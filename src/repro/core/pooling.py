"""Pooled testing: divide and conquer over parameters (§4).

Most parameters are heterogeneous *safe*, so instead of one unit-test run
per parameter, ZebraConf tests a whole **pool** of parameters in one run —
each pooled parameter gets its own heterogeneous assignment
simultaneously.  A passing pooled run clears every member; a failing one
is bisected recursively until the offending singletons are isolated, and
singletons get the full Definition-3.1 treatment (homogeneous baselines +
hypothesis-testing confirmation) from :class:`~repro.core.runner.TestRunner`.

A small number of unsafe parameters (encryption, compression, ...) fail
almost every unit test and would drag every pool into bisection.  The
:class:`FrequentFailureTracker` implements the paper's countermeasure: a
parameter confirmed unsafe by enough distinct unit tests is marked unsafe
outright and excluded from future pools.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.execcache import execution_seed
from repro.core.runner import CONFIRMED_UNSAFE, InstanceResult, TestRunner
from repro.core.registry import UnitTest
from repro.core.testgen import HeteroAssignment, ParamAssignment, TestInstance


class FrequentFailureTracker:
    """Blacklist parameters that keep failing unit tests (§4).

    ``threshold`` distinct unit tests confirming a parameter unsafe are
    enough to stop testing it: it is reported unsafe and never pooled
    again.

    One tracker serves a whole campaign, and a distributed coordinator
    commits into it from its connection threads, so the read-modify-write
    in :meth:`record_unsafe` is guarded by a lock — without it two threads
    confirming the same parameter concurrently could each observe a
    below-threshold set and the parameter would never be blacklisted.
    """

    def __init__(self, threshold: int = 3) -> None:
        self.threshold = threshold
        self._lock = threading.Lock()
        self._failed_tests: Dict[str, Set[str]] = {}
        self.blacklisted: Set[str] = set()

    def record_unsafe(self, param: str, test_name: str) -> None:
        with self._lock:
            tests = self._failed_tests.setdefault(param, set())
            tests.add(test_name)
            if len(tests) >= self.threshold:
                self.blacklisted.add(param)

    def failure_count(self, param: str) -> int:
        with self._lock:
            return len(self._failed_tests.get(param, set()))

    def allowed(self, param: str) -> bool:
        with self._lock:
            return param not in self.blacklisted


@dataclass
class PoolStats:
    """Bookkeeping for the Table-5 "after pooled testing" row."""

    pool_runs: int = 0
    bisection_runs: int = 0
    singleton_instances: int = 0
    pools_cleared: int = 0
    params_cleared_in_pools: int = 0
    interference_events: int = 0
    blacklist_skips: int = 0
    already_confirmed_skips: int = 0
    #: pool executions voided (infra error or watchdog timeout) and
    #: re-drawn under a fresh seed instead of bisected.
    pool_voids: int = 0
    #: pools abandoned after every re-draw came back infrastructural —
    #: no oracle signal, so bisection would only burn executions.
    pool_infra_giveups: int = 0
    #: execution-cache counters (merged from the campaign's runners).
    exec_cache_hits: int = 0
    exec_cache_misses: int = 0
    exec_cache_bypasses: int = 0

    @property
    def total_instances_run(self) -> int:
        return self.pool_runs + self.bisection_runs + self.singleton_instances


class PooledTester:
    """Runs one (unit test, group, strategy) worth of parameters as pools."""

    def __init__(self, runner: TestRunner,
                 tracker: Optional[FrequentFailureTracker] = None,
                 max_pool_size: Optional[int] = None,
                 on_result: Optional[Callable[[InstanceResult], None]] = None,
                 max_pool_redraws: int = 2) -> None:
        self.runner = runner
        self.tracker = tracker if tracker is not None else FrequentFailureTracker()
        #: None reproduces the paper's setting: "we set the maximal pool
        #: size to be equal to the number of parameters".
        self.max_pool_size = max_pool_size
        #: how many times a voided (infra/timed-out) pool execution is
        #: re-drawn under a fresh seed before the pool gives up (infra)
        #: or the failure is accepted as oracle evidence (timeout).
        self.max_pool_redraws = max(max_pool_redraws, 0)
        #: invoked with each InstanceResult the moment it is produced
        #: (campaign checkpoints journal through this).
        self.on_result = on_result
        self.stats = PoolStats()
        #: test full name -> parameters already confirmed unsafe on it;
        #: once a parameter is confirmed for a unit test, its remaining
        #: (strategy, value-pair) instances on that test are redundant.
        self._confirmed_on_test: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    def run(self, test: UnitTest, group: str, strategy: str,
            units: Sequence[ParamAssignment]) -> List[InstanceResult]:
        """Test all ``units`` (one per parameter), pooling then bisecting."""
        allowed = []
        confirmed_here = self._confirmed_on_test.setdefault(test.full_name, set())
        for unit in units:
            if not self.tracker.allowed(unit.param):
                self.stats.blacklist_skips += 1
            elif unit.param in confirmed_here:
                self.stats.already_confirmed_skips += 1
            else:
                allowed.append(unit)
        results: List[InstanceResult] = []
        pool_size = self.max_pool_size or len(allowed) or 1
        for start in range(0, len(allowed), pool_size):
            pool = list(allowed[start:start + pool_size])
            results.extend(self._run_pool(test, group, strategy, pool, depth=0))
        return results

    # ------------------------------------------------------------------
    def _run_pool(self, test: UnitTest, group: str, strategy: str,
                  units: List[ParamAssignment], depth: int) -> List[InstanceResult]:
        if not units:
            return []
        obs = getattr(self.runner, "obs", None)
        if obs is None or len(units) == 1:
            return self._run_pool_inner(test, group, strategy, units, depth)
        kind = "pool" if depth == 0 else "bisection"
        metrics = obs.metrics
        if depth == 0:
            metrics.hist_observe("zc_pool_size", len(units))
        else:
            metrics.gauge_max("zc_pool_max_depth", depth)
        with obs.span(test.full_name, kind=kind, size=len(units),
                      depth=depth, params=[u.param for u in units]):
            return self._run_pool_inner(test, group, strategy, units, depth)

    def _run_pool_inner(self, test: UnitTest, group: str, strategy: str,
                        units: List[ParamAssignment],
                        depth: int) -> List[InstanceResult]:
        if len(units) == 1:
            param = units[0].param
            confirmed_here = self._confirmed_on_test.setdefault(test.full_name,
                                                                set())
            if param in confirmed_here:
                self.stats.already_confirmed_skips += 1
                return []
            self.stats.singleton_instances += 1
            instance = TestInstance(test=test, group=group, strategy=strategy,
                                    assignment=HeteroAssignment(tuple(units)))
            result = self.runner.evaluate(instance)
            if result.verdict == CONFIRMED_UNSAFE:
                confirmed_here.add(param)
                self.tracker.record_unsafe(param, test.full_name)
            if self.on_result is not None:
                self.on_result(result)
            return [result]

        assignment = HeteroAssignment(tuple(units))
        canonical = self.runner.canonical_form(assignment)
        if depth == 0:
            self.stats.pool_runs += 1
        else:
            self.stats.bisection_runs += 1
        # Pool seeds derive from the assignment *content* (not the group/
        # strategy/depth labels), so a bisection half that reconstitutes an
        # already-seen parameter set re-uses its execution via the cache.
        outcome = self.runner.execute(
            test, assignment, execution_seed(test.full_name, canonical, 0),
            canonical=canonical)
        redraws = 0
        while ((outcome.infra or outcome.timed_out)
               and redraws < self.max_pool_redraws):
            # An infrastructure error (or a watchdog kill) carries no
            # oracle signal about any pooled parameter; bisecting on it
            # would waste up to 2·|pool| executions.  Void the run and
            # re-draw under a fresh seed.
            redraws += 1
            self.stats.pool_voids += 1
            outcome = self.runner.execute(
                test, assignment,
                execution_seed(test.full_name, canonical, redraws),
                canonical=canonical)
        if outcome.infra:
            # Still infrastructural after every re-draw: the harness, not
            # the configuration, is failing.  Give the pool up rather than
            # feeding bisection garbage; the campaign surfaces this via
            # PoolStats.pool_infra_giveups.
            self.stats.pool_infra_giveups += 1
            return []
        if outcome.ok:
            if depth == 0:
                self.stats.pools_cleared += 1
                self.stats.params_cleared_in_pools += len(units)
            return []

        mid = len(units) // 2
        left = self._run_pool(test, group, strategy, units[:mid], depth + 1)
        right = self._run_pool(test, group, strategy, units[mid:], depth + 1)
        if not any(r.verdict == CONFIRMED_UNSAFE for r in left + right):
            # Both halves exonerated every parameter although the pool
            # failed: either a parameter interaction (violating the §4
            # independence assumption) or nondeterminism.  Recorded, not
            # reported — matching the paper's stated assumption.
            self.stats.interference_events += 1
        return left + right
