"""Campaign planning: incremental re-testing against the result store.

A campaign with ``--store`` leaves behind one durable **profile record**
per completed unit test: the test's full pooled-testing outcome keyed by
a content digest of everything that shaped it — the parameter
definitions it tested, the group structure the pre-run observed, and the
behaviour-shaping campaign settings.  ``--incremental`` turns those
records into a plan:

* **REUSE** — the profile's key is unchanged, so the stored outcome is
  provably what a fresh run would produce.  The campaign folds it back
  (results, pool stats, blacklist effects) with **zero fresh
  executions**.
* **RERUN** — the store has seen this test before, but under a
  different key: some parameter it touches changed (default, candidate
  values, kind, tags) or a plan-relevant setting moved.  It runs fresh.
* **NEW** — the store has never seen this test.  It runs fresh.

One subtlety keeps findings byte-identical to a full cold campaign: the
frequent-failure blacklist couples profiles through *confirmations*.  A
rerun profile may confirm (or stop confirming) a parameter it shares
with a REUSE candidate, shifting the blacklist threshold-crossing that
the candidate's stored pool stats embedded.  :func:`build_plan` closes
over that coupling conservatively — a REUSE candidate that tests any
parameter whose confirmation trajectory may change is demoted to RERUN.
Parameters only ever cleared as safe never trip the closure, so the
common case (a diff touching a few parameters in a safe-dominated
registry) still reuses almost everything.

Keys are derived once: :func:`param_digest` is kept on each (frozen)
``ParamDef``, which every campaign over the same registry shares, and a
campaign takes :func:`profile_keys` once per run, hashing its settings
once, for both its plan and the profile records it appends.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.execcache import fingerprint, stable_seed

#: plan decisions, in the order the markdown report lists them.
PLAN_REUSE = "reuse"
PLAN_RERUN = "rerun"
PLAN_NEW = "new"
PLAN_DECISIONS = (PLAN_REUSE, PLAN_RERUN, PLAN_NEW)

#: configuration-sampling strategies (``--sample``).
SAMPLE_PAIRWISE = "pairwise"
SAMPLE_RANDOM_K = "random-k"
SAMPLE_DISSIMILARITY = "dissimilarity"
SAMPLE_MODES = (SAMPLE_PAIRWISE, SAMPLE_RANDOM_K, SAMPLE_DISSIMILARITY)

#: a sampling cell: one (strategy, value-pair layer, parameter) unit of
#: the exhaustive enumeration ``_profile_body`` walks.
Cell = Tuple[str, int, str]


def _cell_distance(a: Cell, b: Cell) -> int:
    """Structural distance between two cells: how many of the three
    coordinates (strategy, layer, parameter) differ."""
    return ((a[0] != b[0]) + (a[1] != b[1]) + (a[2] != b[2]))


def sample_cells(mode: Optional[str], seed: int, k: Optional[int],
                 test_name: str, group: str, strategies: Sequence[str],
                 layer_counts: Dict[str, int]) -> Optional[Set[Cell]]:
    """The deterministic subset of cells a sampled campaign keeps for
    one (unit test, group).

    ``None`` mode means exhaustive (keep everything — returned as
    ``None`` so callers skip membership tests entirely).  All three
    strategies draw from ``stable_seed`` over the campaign's sample
    seed and the cell coordinates, so the subset is identical across
    backends, processes and re-runs:

    * ``pairwise`` — every (parameter, value-pair layer) combination is
      covered exactly once, in one seeded-chosen strategy.  The choice
      is made per *layer*, not per parameter, so a layer's parameters
      stay together in one pooled run — scattering them across
      strategies would shatter pools into expensive singleton
      treatments and cost more than the exhaustive walk.  Budget is
      implicit: ``sum(layer_counts.values())`` cells.
    * ``random-k`` — a seeded uniform draw of ``k`` cells.
    * ``dissimilarity`` — greedy farthest-point selection of ``k``
      cells under the structural distance, from a seeded start; spreads
      the budget across strategies, layers and parameters instead of
      clustering.

    ``k`` defaults to the pairwise budget so the strategies are
    comparable at equal cost.
    """
    if mode is None:
        return None
    params = sorted(layer_counts)
    cells: List[Cell] = [(strategy, layer, param)
                         for strategy in strategies
                         for param in params
                         for layer in range(layer_counts[param])]
    if not cells:
        return set()
    if mode == SAMPLE_PAIRWISE:
        kept: Set[Cell] = set()
        layers = max(layer_counts.values())
        for layer in range(layers):
            index = stable_seed(seed, test_name, group,
                                layer) % len(strategies)
            strategy = strategies[index]
            kept.update((strategy, layer, param) for param in params
                        if layer < layer_counts[param])
        return kept
    budget = k if k is not None else sum(layer_counts.values())
    budget = max(1, min(budget, len(cells)))
    if mode == SAMPLE_RANDOM_K:
        rng = random.Random(stable_seed(seed, test_name, group, mode))
        return set(rng.sample(cells, budget))
    if mode == SAMPLE_DISSIMILARITY:
        start = stable_seed(seed, test_name, group, mode) % len(cells)
        chosen: List[Cell] = [cells[start]]
        remaining = [c for i, c in enumerate(cells) if i != start]
        while len(chosen) < budget:
            best = max(remaining,
                       key=lambda c: (min(_cell_distance(c, picked)
                                          for picked in chosen), c))
            chosen.append(best)
            remaining.remove(best)
        return set(chosen)
    raise ValueError("unknown sampling mode %r" % mode)

#: settings keys that never change what a profile run *finds* (the
#: store/exec-cache contracts guarantee byte-identical findings either
#: way), so they are excluded from the plan-settings digest: flipping
#: them must not invalidate stored profiles.
_FINDINGS_NEUTRAL_SETTINGS = ("exec_cache", "store", "incremental")


def param_digest(param: Any) -> str:
    """Content digest of one parameter definition.

    Everything test generation derives assignments from is in here, so
    a changed default, candidate list, enum domain, kind or tag set
    invalidates every stored profile that tested the parameter — while
    the registry-wide *name* digest (``corpus_digest``) stays put.
    Kept on the (frozen) definition: an edited one is a new object.
    """
    digest = param.__dict__.get("_param_digest")
    if digest is None:
        digest = fingerprint((param.name, param.kind, param.default,
                              param.candidates, param.values,
                              tuple(param.tags)))
        object.__setattr__(param, "_param_digest", digest)
    return digest


def plan_settings_digest(config: Any) -> str:
    """Digest of the campaign settings that shape a profile's outcome."""
    settings = {key: value
                for key, value in config.checkpoint_settings().items()
                if key not in _FINDINGS_NEUTRAL_SETTINGS}
    return fingerprint(tuple(sorted((key, repr(value))
                                    for key, value in settings.items())))


def profile_testable_params(campaign: Any, profile: Any) -> Set[str]:
    """The parameters the campaign would actually test on ``profile``
    (pre-run testability x registry membership x --params filter) —
    the same filter ``_profile_body`` applies."""
    names: Set[str] = set()
    for group in profile.groups:
        names.update(name for name in profile.testable_params(group)
                     if name in campaign.registry
                     and campaign.config.param_allowed(name))
    return names


def profile_keys(campaign: Any, profiles: Sequence[Any]) -> Dict[str, str]:
    """:func:`profile_key` of each profile, by test name, hashing the
    campaign's settings once.  Keys are interned: a plan that a caller
    keeps then shares each unchanged key with every earlier run's."""
    settings = plan_settings_digest(campaign.config)
    return {profile.test.full_name:
            sys.intern(profile_key(campaign, profile, settings))
            for profile in profiles}


def profile_key(campaign: Any, profile: Any,
                settings: Optional[str] = None) -> str:
    """Content key of one unit-test profile.

    Two campaigns produce the same key for a test exactly when a fresh
    run of that test is guaranteed (modulo the determinism the store
    contract already assumes) to reproduce the stored outcome: same
    behaviour-shaping settings, same group structure, same testable
    parameters with identical definitions, same explicitly-set params
    (they steer homogeneous collapse in the runner).  ``settings`` is
    :func:`plan_settings_digest` of the campaign's config when the
    caller has it.
    """
    if settings is None:
        settings = plan_settings_digest(campaign.config)
    parts: List[Any] = [settings, profile.test.full_name,
                        tuple(sorted(profile.explicit_sets))]
    for group in sorted(profile.groups):
        names = sorted(name for name in profile.testable_params(group)
                       if name in campaign.registry
                       and campaign.config.param_allowed(name))
        parts.append((group, profile.groups[group],
                      tuple((name,
                             param_digest(campaign.registry.get(name)))
                            for name in names)))
    return fingerprint(tuple(parts))


@dataclass
class ProfilePlan:
    """One unit test's slot in the campaign plan."""

    test: str
    decision: str
    reason: str
    key: str
    #: stored executions a REUSE fold avoids re-burning (0 otherwise).
    executions_saved: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"test": self.test, "decision": self.decision,
                "reason": self.reason, "key": self.key,
                "executions_saved": self.executions_saved}


@dataclass
class CampaignPlan:
    """The incremental plan for one campaign run, in profile order.

    Journaled into the checkpoint when one is configured, so a resumed
    campaign replays the *original* plan instead of replanning against
    a store the interrupted run already mutated.
    """

    profiles: List[ProfilePlan] = field(default_factory=list)
    #: REUSE candidates demoted to RERUN by the blacklist-coupling
    #: closure (their ``decision`` is RERUN; this counts them).
    demoted: int = 0

    def decision(self, test: str) -> Optional[str]:
        for profile in self.profiles:
            if profile.test == test:
                return profile.decision
        return None

    def plan_for(self, test: str) -> Optional[ProfilePlan]:
        for profile in self.profiles:
            if profile.test == test:
                return profile
        return None

    def count(self, decision: str) -> int:
        return sum(1 for p in self.profiles if p.decision == decision)

    @property
    def executions_saved(self) -> int:
        return sum(p.executions_saved for p in self.profiles)

    def to_dict(self) -> Dict[str, Any]:
        return {"reused": self.count(PLAN_REUSE),
                "rerun": self.count(PLAN_RERUN),
                "new": self.count(PLAN_NEW),
                "demoted": self.demoted,
                "executions_saved": self.executions_saved,
                "profiles": [p.to_dict() for p in self.profiles]}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "CampaignPlan":
        plan = cls(demoted=int(record.get("demoted", 0)))
        for entry in record.get("profiles", ()):
            plan.profiles.append(ProfilePlan(
                test=entry["test"], decision=entry["decision"],
                reason=entry.get("reason", ""), key=entry.get("key", ""),
                executions_saved=int(entry.get("executions_saved", 0))))
        return plan


def build_plan(campaign: Any, usable: Sequence[Any], store: Any,
               keys: Mapping[str, str]) -> CampaignPlan:
    """Classify every usable profile against the store's records;
    ``keys`` is :func:`profile_keys` of ``usable``."""
    plan = CampaignPlan()
    decisions: Dict[str, str] = {}
    for profile in usable:
        name = profile.test.full_name
        if store.lookup_profile(keys[name]) is not None:
            decisions[name] = PLAN_REUSE
        elif store.profile_for_test(name) is not None:
            decisions[name] = PLAN_RERUN
        else:
            decisions[name] = PLAN_NEW

    # Blacklist-coupling closure: collect the parameters whose
    # confirmation trajectory may differ from the stored runs' —
    # anything a RERUN profile previously confirmed unsafe, plus any
    # previously-confirmed parameter a NEW profile now tests (one more
    # confirming test can cross the frequent-failure threshold).
    ever_confirmed = store.confirmed_params()
    unstable: Set[str] = set()
    for profile in usable:
        name = profile.test.full_name
        if decisions[name] == PLAN_RERUN:
            stored = store.profile_for_test(name)
            if stored is not None:
                unstable.update(stored.get("confirmed", ()))
        elif decisions[name] == PLAN_NEW:
            unstable.update(profile_testable_params(campaign, profile)
                            & ever_confirmed)

    for profile in usable:
        name = profile.test.full_name
        decision = decisions[name]
        saved = 0
        if decision == PLAN_REUSE:
            coupled = profile_testable_params(campaign, profile) & unstable
            if coupled:
                plan.demoted += 1
                decision = PLAN_RERUN
                reason = ("blacklist coupling: %s confirmed unsafe by a "
                          "profile that must rerun"
                          % ", ".join(sorted(coupled)))
            else:
                stored = store.lookup_profile(keys[name])
                saved = int(stored["record"].get("executions", 0))
                reason = "stored profile matches parameters and settings"
        elif decision == PLAN_RERUN:
            reason = "parameter substrate or settings changed since stored run"
        else:
            reason = "no stored profile for this test"
        plan.profiles.append(ProfilePlan(test=name, decision=decision,
                                         reason=reason, key=keys[name],
                                         executions_saved=saved))
    return plan
