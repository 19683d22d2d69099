"""Per-object content caches give exactly what the uncached primitives do.

A warm rerun derives canonical forms, their text, homogeneous variants,
generated assignments, parameter digests and profile keys once per
object (see :mod:`repro.core.testgen`, :mod:`repro.core.execcache` and
:mod:`repro.core.plan`).  Every key, seed and stored record must stay
byte-identical to what the plain definitions below compute, and no
cache may key by ``==`` over values: ``1``, ``1.0`` and ``True`` compare
equal but their ``repr``s, which every content key hashes, differ.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.apps import catalog
from repro.common.params import INT, ParamDef, ParamRegistry
from repro.core.execcache import (ExecutionCache, canonical_content,
                                  execution_seed, fingerprint, stable_seed)
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.plan import (PLAN_RERUN, param_digest, plan_settings_digest,
                             profile_keys)
from repro.core.prerun import prerun_corpus
from repro.core.registry import UnitTest
from repro.core.runner import TestRunner
from repro.core.testgen import (HeteroAssignment, HomoAssignment,
                                ParamAssignment, TestGenerator)
from synthetic_app import SYNTH_REGISTRY, two_service_test

TEST = "app::TestCaches.testOne"


# ---------------------------------------------------------------------------
# the uncached definitions
# ---------------------------------------------------------------------------
def ref_value_pairs(param, cap):
    pairs = [pair for pair in itertools.combinations(
        param.candidate_values(), 2) if pair[0] != pair[1]]
    return pairs[:cap]


def ref_pinned(rules, name, value):
    return tuple((rule.companion, rule.companion_value) for rule in rules
                 if rule.param == name and rule.value == value)


def first_wins(pairs):
    seen, out = set(), []
    for name, value in pairs:
        if name not in seen:
            seen.add(name)
            out.append((name, value))
    return out


def by_name_then_repr(pairs):
    return tuple(sorted(pairs, key=lambda kv: (kv[0], repr(kv[1]))))


def ref_param_canonical(unit):
    return ("param", unit.param, unit.group, tuple(unit.group_values),
            unit.other_value, by_name_then_repr(first_wins(unit.pinned)))


def ref_hetero_canonical(units):
    return ("hetero", tuple(sorted((ref_param_canonical(u) for u in units),
                                   key=lambda c: c[1])))


def ref_homo_variant(units, side):
    values, pinned = {}, {}
    for unit in units:
        distinct = []
        for value in unit.group_values + (unit.other_value,):
            if value not in distinct:
                distinct.append(value)
        values[unit.param] = distinct[min(side, len(distinct) - 1)]
        pinned.update(dict(unit.pinned))
    return HomoAssignment(values=tuple(values.items()),
                          pinned=tuple(pinned.items()))


def ref_homo_canonical(homo, registry, exempt):
    kept = []
    for name, value in by_name_then_repr(first_wins(homo.pinned
                                                    + homo.values)):
        param = registry.maybe_get(name) if name not in exempt else None
        if param is not None and type(param.default) is type(value) \
                and param.default == value:
            continue
        kept.append((name, value))
    return ("homo", tuple(kept)) if kept else ("original",)


def ref_param_digest(param):
    return fingerprint((param.name, param.kind, param.default,
                        param.candidates, param.values, tuple(param.tags)))


def ref_profile_key(campaign, profile):
    parts = [plan_settings_digest(campaign.config), profile.test.full_name,
             tuple(sorted(profile.explicit_sets))]
    for group in sorted(profile.groups):
        names = sorted(name for name in profile.testable_params(group)
                       if name in campaign.registry
                       and campaign.config.param_allowed(name))
        parts.append((group, profile.groups[group], tuple(
            (name, ref_param_digest(campaign.registry.get(name)))
            for name in names)))
    return fingerprint(tuple(parts))


def assert_exact(got, want):
    """Equal and with the same text: ``==`` alone lets 1 stand for True."""
    assert got == want and repr(got) == repr(want)


def assert_content(cache, canonical, text, want):
    """``(canonical, text)`` is ``want`` with its repr, and the key and
    seeds built from the text are the ones ``want`` hashes to."""
    assert_exact(canonical, want)
    assert text == repr(want)
    assert cache._key(TEST, canonical, text) == \
        fingerprint((cache.context_key, TEST, want))
    for trial in (0, 1):
        assert execution_seed(TEST, canonical, trial, text) == \
            stable_seed(TEST, repr(want), trial)


# ---------------------------------------------------------------------------
# every catalog app's forms, keys and seeds
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app", catalog.APP_NAMES)
def test_cached_values_equal_the_uncached_definitions(app):
    spec = catalog.spec_for(app)
    registry, rules = spec.registry, tuple(spec.dependency_rules)
    generator = TestGenerator(registry, dependency_rules=rules)
    campaign = Campaign(app, registry, dependency_rules=rules)
    usable = [p for p in prerun_corpus(campaign.tests) if p.usable]
    cache = ExecutionCache(context={"app": app})
    seen = set()
    for profile in usable:
        exempt = frozenset(profile.explicit_sets)
        for group in sorted(profile.groups):
            strategies = generator.strategies_for_group(profile.groups[group])
            params = sorted(name for name in profile.testable_params(group)
                            if name in registry)
            for strategy in strategies:
                generated = {}
                for name in params:
                    param = registry.get(name)
                    pairs = ref_value_pairs(param, generator.max_value_pairs)
                    assert_exact(generator.value_pairs(param), pairs)
                    # twice: built, then served from the definition
                    for _ in range(2):
                        generated[name] = generator.assignments(
                            param, group, strategy)
                    assert len(generated[name]) == len(pairs)
                    for unit, (v1, v2) in zip(generated[name], pairs):
                        assert_exact(unit.pinned, ref_pinned(rules, name, v1)
                                     + ref_pinned(rules, name, v2))
                        assert_exact(unit, generator.assignment(
                            param, group, strategy, (v1, v2)))
                        if (name, group, strategy, repr((v1, v2))) in seen:
                            continue
                        seen.add((name, group, strategy, repr((v1, v2))))
                        for _ in range(2):
                            canonical, text = canonical_content(unit)
                            assert_content(cache, canonical, text, (
                                "hetero", (ref_param_canonical(unit),)))
                layers = max((len(units) for units in generated.values()),
                             default=0)
                for layer in range(layers):
                    units = tuple(generated[name][layer] for name in params
                                  if layer < len(generated[name]))
                    pooled = HeteroAssignment(units)
                    for _ in range(2):
                        canonical, text = canonical_content(pooled)
                        assert_content(cache, canonical, text,
                                       ref_hetero_canonical(units))
                    for side in range(pooled.sides()):
                        homo = pooled.homo_variant(side)
                        assert homo is pooled.homo_variant(side)
                        assert_exact(homo, ref_homo_variant(units, side))
                        for _ in range(2):
                            canonical, text = canonical_content(
                                homo, registry, exempt)
                            assert_content(cache, canonical, text,
                                           ref_homo_canonical(homo, registry,
                                                              exempt))
    for param in registry:
        assert param_digest(param) == param_digest(param) \
            == ref_param_digest(param)
    keys = profile_keys(campaign, usable)
    assert keys == {p.test.full_name: ref_profile_key(campaign, p)
                    for p in usable}


# ---------------------------------------------------------------------------
# equal under == is not the same content
# ---------------------------------------------------------------------------
EQUAL_VALUES = (1, 1.0, True)


def counting_test():
    runs = []
    return UnitTest(app="app", name="TestCaches.testOne",
                    fn=lambda ctx: runs.append(1)), runs


def test_equal_forms_with_different_reprs_keep_their_own_slots():
    registry = ParamRegistry("app")
    registry.define("p", INT, 1)
    forms = {
        "param": [ParamAssignment("p", "G", (v,), 0) for v in EQUAL_VALUES],
        "pooled": [HeteroAssignment((ParamAssignment("p", "G", (v,), 0),
                                     ParamAssignment("q", "G", (2,), 3)))
                   for v in EQUAL_VALUES],
        # the int form collapses onto the original run; the other two
        # are injections of their own
        "homo": [HomoAssignment((("p", v),), (("q", 5),))
                 for v in EQUAL_VALUES]}
    for kind, assignments in forms.items():
        assert all(a == assignments[0] for a in assignments), kind
        test, runs = counting_test()
        cache = ExecutionCache()
        runner = TestRunner(registry=registry, cache=cache)
        keys, seeds = set(), set()
        for assignment in assignments:
            canonical, text = canonical_content(assignment, registry)
            keys.add(cache._key(test.full_name, canonical, text))
            seeds.add(execution_seed(test.full_name, canonical, 0, text))
            runner.execute(test, assignment, 0)
        assert len(keys) == len(seeds) == len(runs) == 3, kind


def test_equal_definitions_generate_their_own_assignments():
    generator = TestGenerator(ParamRegistry("app"))
    made = [generator.assignments(
        ParamDef("p", INT, 0, candidates=(v, 2)), "G", "cross")
        for v in EQUAL_VALUES]
    assert made[0] == made[1] == made[2]
    assert len({repr(units) for units in made}) == 3


def test_default_edited_from_1_to_true_reruns_its_profiles(tmp_path):
    store = str(tmp_path / "store")
    tests = [two_service_test("TestCaches.testExchange")]
    original = SYNTH_REGISTRY.get("synth.safe-a")
    assert original.default == 1
    edited = ParamRegistry(SYNTH_REGISTRY.app)
    for param in SYNTH_REGISTRY:
        if param is original:
            param = dataclasses.replace(param, default=True)
        edited.register(param)
    assert edited.get("synth.safe-a") == original
    assert param_digest(edited.get("synth.safe-a")) != param_digest(original)

    Campaign("synth", SYNTH_REGISTRY, tests=tests,
             config=CampaignConfig(store_path=store)).run()
    rerun = Campaign("synth", edited, tests=tests,
                     config=CampaignConfig(store_path=store,
                                           incremental=True)).run()
    assert [(p.test, p.decision) for p in rerun.plan.profiles] == \
        [(tests[0].full_name, PLAN_RERUN)]
