"""Per-profile cost model and makespan-aware (LPT) campaign scheduling.

With ``workers > 1`` the campaign fans whole unit-test profiles over a
worker pool.  Catalog order is makespan-hostile: when the most expensive
profile happens to sit at the end of the corpus, it starts last and the
pool drains to a single busy worker while the rest idle — the classic
multiprocessor-scheduling pathology.  Longest-Processing-Time-first
(LPT) dispatch is the standard 4/3-approximation fix: sort the work
items by predicted cost, descending, and hand the big rocks out first.

The predicted cost of a profile has two factors:

* **How many executions it will take** — analytic, derived from exactly
  the enumeration :meth:`Campaign._profile_body` performs (groups x
  strategies x value-pair layers), the same math behind the report's
  ``StageCounts``.  Each non-empty (strategy, layer) pool costs one
  pooled execution when it passes; a fixed prior for unsafe parameters
  (the paper finds a small minority of parameters heterogeneous-unsafe)
  prices the bisection + Definition-3.1 singleton work the failing
  fraction will add.  Integer arithmetic only, so the prediction is
  bit-identical on every host and backend — it feeds the deterministic
  ``zc_sched_*`` metrics and the report's cost-centers table.
* **How long one execution of this test runs** — measured, taken from
  the pre-run span (every usable test executed exactly once in the
  parent before any dispatch).  Wall-clock weights are host-dependent,
  so they influence *scheduling order only*, never findings: outcomes
  are folded back in catalog order regardless of dispatch order.

Profiles likely to be answered from the execution cache are discounted
(so they sort *later*): a cache hit costs microseconds, and burning a
worker slot on it early starves the genuinely expensive work behind it.

The dispatch order is consumed by the supervised pool's queue
(``Campaign._run_locally`` -> ``core.supervise``) and the distributed
coordinator's lease queue; serial runs keep catalog order.
``CampaignConfig.schedule`` selects ``"lpt"`` (default) or
``"catalog"`` (legacy order, also the perf-baseline mode of
``benchmarks/bench_campaign_wallclock.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.plan import PLAN_REUSE, sample_cells
from repro.core.prerun import TestProfile

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Percent of pooled parameters priced as heterogeneous-unsafe up front.
#: The paper reports a small minority of parameters unsafe; 8% matches
#: what the simulated corpora confirm per pooled run.
UNSAFE_PRIOR_PCT = 8

#: Executions a priced-unsafe parameter adds beyond its pooled run:
#: bisection splits plus the Definition-3.1 singleton treatment
#: (heterogeneous run, homogeneous sides, confirmation re-runs).
SINGLETON_COST = 8

#: Percent of the singleton surcharge expected to come back as
#: execution-cache hits when the cache is on (homogeneous sides collapse
#: onto shared baselines; bisection halves reconstitute seen pools).
CACHE_HIT_PCT = 40

#: Smoothing factor for measured-cost updates: new observations move the
#: stored estimate 30% of the way, so one anomalous run (page-cache-cold
#: host, noisy neighbour) cannot whipsaw the schedule on the next resume.
EWMA_ALPHA = 0.3


class CostBook:
    """EWMA-smoothed *measured* profile costs, persisted beside the journal.

    The analytic prediction in :class:`CostModel` is a cold-start
    estimate; once a profile has actually run, its measured execution
    count and wall time are strictly better scheduling signals.  The book
    journals them next to the checkpoint (``<journal>.weights.json``) so
    a resumed campaign reschedules its *remaining* work from history
    rather than from priors.

    Measured costs are volatile (host-dependent) and feed **scheduling
    order only** — findings are byte-identical regardless, because
    outcomes fold in catalog order.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._costs: Dict[str, Dict[str, float]] = {}
        #: tests this process observed: :meth:`save` writes them over the
        #: on-disk book and keeps every other entry as its writer left it.
        self._observed: Set[str] = set()

    @staticmethod
    def beside_checkpoint(checkpoint_path: str) -> str:
        return checkpoint_path + ".weights.json"

    # ------------------------------------------------------------------
    def load(self) -> None:
        self._costs.update(self._read())

    def _read(self) -> Dict[str, Dict[str, float]]:
        try:
            with open(self.path) as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return {}
        costs = raw.get("costs", {}) if isinstance(raw, dict) else {}
        if not isinstance(costs, dict):
            return {}
        return {str(name): {"executions": float(entry.get("executions", 0.0)),
                            "wall_s": float(entry.get("wall_s", 0.0)),
                            "samples": float(entry.get("samples", 0.0))}
                for name, entry in costs.items() if isinstance(entry, dict)}

    def save(self) -> None:
        """Merge this process's observations into the on-disk book.

        Several campaigns may share one book (application lanes under
        ``evaluate --checkpoint``), so the read-merge-replace runs under
        an exclusive lock and each writer uses its own temporary file.
        """
        lock = os.open(self.path + ".lock", os.O_RDWR | os.O_CREAT, 0o666)
        try:
            if fcntl is not None:
                fcntl.flock(lock, fcntl.LOCK_EX)
            merged = self._read()
            merged.update((name, self._costs[name])
                          for name in self._observed)
            self._costs = merged
            tmp = "%s.%d.tmp" % (self.path, os.getpid())
            with open(tmp, "w") as handle:
                handle.write(json.dumps({"version": 1, "costs": merged},
                                        sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            from repro.core.checkpoint import fsync_directory
            fsync_directory(self.path)
        finally:
            os.close(lock)  # releases the flock

    # ------------------------------------------------------------------
    def observe(self, test: str, executions: int,
                wall_s: Optional[float] = None) -> None:
        self._observed.add(test)
        entry = self._costs.get(test)
        if entry is None:
            entry = {"executions": float(executions),
                     "wall_s": float(wall_s or 0.0),
                     "samples": 1.0}
            self._costs[test] = entry
            return
        entry["executions"] += EWMA_ALPHA * (executions
                                             - entry["executions"])
        if wall_s is not None and wall_s > 0.0:
            if entry["wall_s"] > 0.0:
                entry["wall_s"] += EWMA_ALPHA * (wall_s - entry["wall_s"])
            else:
                entry["wall_s"] = float(wall_s)
        entry["samples"] += 1.0

    def measured(self, test: str) -> Optional[Dict[str, float]]:
        return self._costs.get(test)


@dataclass(frozen=True)
class ProfilePrediction:
    """The cost model's forecast for one usable unit-test profile."""

    test: str
    #: non-empty (group, strategy, layer) pooled runs the enumeration
    #: will submit.
    pool_runs: int
    #: per-parameter units across all pooled runs.
    units: int
    #: analytic execution forecast (deterministic integer math).
    predicted_executions: int
    #: forecast executions the cache will absorb (0 with the cache off).
    predicted_cache_hits: int
    #: measured wall seconds of the single pre-run execution (volatile;
    #: scheduling weight only).
    weight_s: float

    @property
    def effective_executions(self) -> int:
        """Executions expected to actually burn a worker's time."""
        return self.predicted_executions - self.predicted_cache_hits

    @property
    def predicted_wall_s(self) -> float:
        """Scheduling key: forecast wall-clock cost of the profile."""
        weight = self.weight_s if self.weight_s > 0.0 else 1.0
        return self.effective_executions * weight


class CostModel:
    """Builds :class:`ProfilePrediction`\\ s for a campaign's profiles."""

    def __init__(self, campaign: Any) -> None:
        self.campaign = campaign
        self._predictions: Dict[str, ProfilePrediction] = {}

    # ------------------------------------------------------------------
    def predict(self, profile: TestProfile) -> ProfilePrediction:
        name = profile.test.full_name
        cached = self._predictions.get(name)
        if cached is not None:
            return cached
        campaign = self.campaign
        config = campaign.config
        generator = campaign.generator
        registry = campaign.registry
        plan = getattr(campaign, "_plan", None)
        if plan is not None and plan.decision(name) == PLAN_REUSE:
            # A planned-out profile burns zero fresh executions: it is
            # folded from the store.  Pricing it at zero keeps LPT (and
            # the zc_sched_* prediction accounting) honest.
            prediction = ProfilePrediction(
                test=name, pool_runs=0, units=0, predicted_executions=0,
                predicted_cache_hits=0, weight_s=0.0)
            self._predictions[name] = prediction
            return prediction
        pool_runs = 0
        units = 0
        # Mirror of Campaign._profile_body's enumeration, counting
        # instead of running — including the sampling subset, which must
        # prune the exact same (strategy, layer, param) cells here that
        # the body skips.
        for group in sorted(profile.groups):
            group_size = profile.groups[group]
            params = sorted(name_ for name_ in profile.testable_params(group)
                            if name_ in registry
                            and config.param_allowed(name_))
            if not params:
                continue
            pair_counts = {name_: len(generator.value_pairs(
                               registry.get(name_)))
                           for name_ in params}
            layers = max(pair_counts.values(), default=0)
            strategies = list(generator.strategies_for_group(group_size))
            kept = sample_cells(config.sample, config.sample_seed,
                                config.sample_k, name, group, strategies,
                                pair_counts)
            for strategy in strategies:
                for layer in range(layers):
                    layer_units = sum(
                        1 for name_ in params
                        if layer < pair_counts[name_]
                        and (kept is None
                             or (strategy, layer, name_) in kept))
                    if layer_units:
                        pool_runs += 1
                        units += layer_units
        surcharge = (units * UNSAFE_PRIOR_PCT * SINGLETON_COST) // 100
        predicted = pool_runs + surcharge
        hits = (surcharge * CACHE_HIT_PCT) // 100 if config.exec_cache else 0
        prediction = ProfilePrediction(
            test=name, pool_runs=pool_runs, units=units,
            predicted_executions=predicted, predicted_cache_hits=hits,
            weight_s=profile.prerun_wall_s)
        self._predictions[name] = prediction
        return prediction

    # ------------------------------------------------------------------
    def scheduling_wall_s(self, profile: TestProfile) -> float:
        """Best available wall-clock estimate for scheduling ``profile``.

        Preference order: a measured wall time from the campaign's
        :class:`CostBook` (previous runs of this journal), then measured
        execution counts priced at the pre-run weight, then the pure
        analytic forecast.
        """
        prediction = self.predict(profile)
        book = getattr(self.campaign, "cost_book", None)
        if book is not None:
            entry = book.measured(profile.test.full_name)
            if entry is not None:
                if entry.get("wall_s", 0.0) > 0.0:
                    return entry["wall_s"]
                if entry.get("executions", 0.0) > 0.0:
                    weight = (prediction.weight_s
                              if prediction.weight_s > 0.0 else 1.0)
                    return entry["executions"] * weight
        return prediction.predicted_wall_s

    def lpt_order(self, profiles: Sequence[TestProfile]
                  ) -> List[TestProfile]:
        """Profiles sorted longest-first for dispatch.

        Measured costs (when a :class:`CostBook` has history) beat the
        analytic forecast; cache-hit-likely profiles sort later via the
        effective-cost discount.  Ties (and zero-weight corner cases)
        break on the test name so the order is reproducible given
        identical predictions.
        """
        return sorted(profiles,
                      key=lambda p: (-self.scheduling_wall_s(p),
                                     -self.predict(p).effective_executions,
                                     p.test.full_name))
