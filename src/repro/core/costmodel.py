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
coordinator's lease queue, both of which always dispatch LPT; serial
runs keep catalog order.  The forecast is the only scheduling key: a
resumed campaign dispatches just the profiles its journal lacks, so a
cost measured by an earlier run of the same journal would never be read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.core.plan import PLAN_REUSE, sample_cells
from repro.core.prerun import TestProfile

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
    def lpt_order(self, profiles: Sequence[TestProfile]
                  ) -> List[TestProfile]:
        """Profiles sorted longest-first for dispatch.

        The key is the forecast wall-clock cost; cache-hit-likely
        profiles sort later via the effective-cost discount.  Ties (and
        zero-weight corner cases) break on the test name so the order is
        reproducible given identical predictions.
        """
        return sorted(profiles,
                      key=lambda p: (-self.predict(p).predicted_wall_s,
                                     -self.predict(p).effective_executions,
                                     p.test.full_name))
