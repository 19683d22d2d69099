"""Unit tests for TestGenerator: values, strategies, assignments (§4)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.confagent import NO_OVERRIDE, UNIT_TEST
from repro.core.testgen import (ALL_STRATEGIES, CROSS, CROSS_SWAPPED,
                                DependencyRule, HeteroAssignment,
                                HomoAssignment, ParamAssignment, ROUND_ROBIN,
                                ROUND_ROBIN_SWAPPED, TestGenerator,
                                TestInstance)
from synthetic_app import SYNTH_REGISTRY, no_node_test


@pytest.fixture()
def generator():
    return TestGenerator(SYNTH_REGISTRY)


class TestValueSelection:
    def test_bool_has_one_pair(self, generator):
        pairs = generator.value_pairs(SYNTH_REGISTRY.get("synth.mode"))
        assert pairs == [(True, False)]

    def test_explicit_candidates_pair(self, generator):
        pairs = generator.value_pairs(SYNTH_REGISTRY.get("synth.level"))
        assert pairs == [(10, 1000)]

    def test_pair_cap_respected(self):
        from repro.common.params import INT, ParamRegistry
        registry = ParamRegistry("caps")
        registry.define("p", INT, 5, candidates=(1, 2, 3, 4, 5))
        generator = TestGenerator(registry, max_value_pairs=3)
        assert len(generator.value_pairs(registry.get("p"))) == 3


class TestStrategies:
    def test_single_node_group_has_cross_only(self, generator):
        assert generator.strategies_for_group(1) == [CROSS, CROSS_SWAPPED]

    def test_multi_node_group_adds_round_robin(self, generator):
        assert generator.strategies_for_group(2) == list(ALL_STRATEGIES)

    def test_cross_assignment_values(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service", CROSS, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.level") == 10
        assert assignment.value_for("Service", 5, "synth.level") == 10
        assert assignment.value_for("Other", 0, "synth.level") == 1000
        assert assignment.value_for(UNIT_TEST, 0, "synth.level") == 1000

    def test_cross_swapped_flips(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service", CROSS_SWAPPED,
                                          (10, 1000))
        assert assignment.value_for("Service", 0, "synth.level") == 1000
        assert assignment.value_for(UNIT_TEST, 0, "synth.level") == 10

    def test_round_robin_alternates_within_group(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service", ROUND_ROBIN,
                                          (10, 1000))
        assert assignment.value_for("Service", 0, "synth.level") == 10
        assert assignment.value_for("Service", 1, "synth.level") == 1000
        assert assignment.value_for("Service", 2, "synth.level") == 10
        assert assignment.value_for("Other", 0, "synth.level") == 1000

    def test_round_robin_swapped(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service",
                                          ROUND_ROBIN_SWAPPED, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.level") == 1000
        assert assignment.value_for("Service", 1, "synth.level") == 10
        assert assignment.value_for("Other", 0, "synth.level") == 10

    def test_unknown_strategy_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.assignment(SYNTH_REGISTRY.get("synth.level"), "Service",
                                 "diagonal", (10, 1000))

    def test_other_params_not_touched(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service", CROSS, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.mode") is NO_OVERRIDE


class TestHeteroAssignment:
    def make(self, generator):
        level = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                     "Service", CROSS, (10, 1000))
        mode = generator.assignment(SYNTH_REGISTRY.get("synth.mode"),
                                    "Service", CROSS, (True, False))
        return HeteroAssignment((level, mode))

    def test_pooled_lookup_routes_by_param(self, generator):
        assignment = self.make(generator)
        assert assignment.value_for("Service", 0, "synth.level") == 10
        assert assignment.value_for("Service", 0, "synth.mode") is True
        assert assignment.value_for("Service", 0, "synth.safe-a") is NO_OVERRIDE

    def test_duplicate_param_rejected(self, generator):
        unit = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                    "Service", CROSS, (10, 1000))
        with pytest.raises(ValueError):
            HeteroAssignment((unit, unit))

    def test_homo_variant_is_uniform(self, generator):
        assignment = self.make(generator)
        for side in range(assignment.sides()):
            homo = assignment.homo_variant(side)
            values = {homo.value_for(entity, index, "synth.level")
                      for entity in ("Service", "Other", UNIT_TEST)
                      for index in range(3)}
            assert len(values) == 1

    def test_homo_sides_cover_both_values(self, generator):
        assignment = self.make(generator)
        sides = {assignment.homo_variant(side).value_for("Service", 0,
                                                         "synth.level")
                 for side in range(assignment.sides())}
        assert sides == {10, 1000}

    def test_subset_filters_params(self, generator):
        assignment = self.make(generator)
        subset = assignment.subset(["synth.mode"])
        assert subset.params == ("synth.mode",)

    @given(st.sampled_from(ALL_STRATEGIES), st.integers(0, 5),
           st.sampled_from(["Service", "Other", UNIT_TEST]))
    @settings(max_examples=60, deadline=None)
    def test_every_entity_gets_one_of_the_pair(self, strategy, index, entity):
        generator = TestGenerator(SYNTH_REGISTRY)
        assignment = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                          "Service", strategy, (10, 1000))
        assert assignment.value_for(entity, index, "synth.level") in (10, 1000)

    @given(st.sampled_from(ALL_STRATEGIES))
    @settings(max_examples=10, deadline=None)
    def test_hetero_assignment_is_actually_heterogeneous(self, strategy):
        generator = TestGenerator(SYNTH_REGISTRY)
        assignment = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                          "Service", strategy, (10, 1000))
        values = {assignment.value_for(entity, index, "synth.level")
                  for entity in ("Service", UNIT_TEST) for index in range(2)}
        assert values == {10, 1000}


class TestDependencyRules:
    def test_companion_pinned_everywhere(self):
        rules = (DependencyRule("synth.level", 1000, "synth.safe-a", 42),)
        generator = TestGenerator(SYNTH_REGISTRY, dependency_rules=rules)
        assignment = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                          "Service", CROSS, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.safe-a") == 42
        assert assignment.value_for(UNIT_TEST, 0, "synth.safe-a") == 42

    def test_unrelated_value_not_pinned(self):
        rules = (DependencyRule("synth.level", 77, "synth.safe-a", 42),)
        generator = TestGenerator(SYNTH_REGISTRY, dependency_rules=rules)
        assignment = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                          "Service", CROSS, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.safe-a") is NO_OVERRIDE

    def test_homo_variant_keeps_pins(self):
        rules = (DependencyRule("synth.level", 1000, "synth.safe-a", 42),)
        generator = TestGenerator(SYNTH_REGISTRY, dependency_rules=rules)
        assignment = HeteroAssignment((generator.assignment(
            SYNTH_REGISTRY.get("synth.level"), "Service", CROSS, (10, 1000)),))
        homo = assignment.homo_variant(0)
        assert homo.value_for("Service", 0, "synth.safe-a") == 42


# ---------------------------------------------------------------------------
# value_for's lookup tables against the first-wins linear scans they replace
# ---------------------------------------------------------------------------
_NAMES = ("p", "q", "r", "s")
_ENTITIES = ("G", "H", UNIT_TEST)
_names = st.sampled_from(_NAMES)
_values = st.one_of(st.integers(0, 3), st.none())
_pairs = st.lists(st.tuples(_names, _values), max_size=4).map(tuple)
_param_assignments = st.builds(
    ParamAssignment, param=_names, group=st.sampled_from(("G", "H")),
    group_values=st.lists(_values, min_size=1, max_size=2).map(tuple),
    other_value=_values, pinned=_pairs)


def _scan_param(a, node_type, node_index, name):
    for pinned_name, pinned_value in a.pinned:
        if name == pinned_name:
            return pinned_value
    if name != a.param:
        return NO_OVERRIDE
    if node_type == a.group:
        return a.group_values[node_index % len(a.group_values)]
    return a.other_value


def _scan_hetero(h, node_type, node_index, name):
    for a in h.assignments:
        value = _scan_param(a, node_type, node_index, name)
        if value is not NO_OVERRIDE:
            return value
    return NO_OVERRIDE


def _scan_homo(h, node_type, node_index, name):
    for param, value in h.pinned + h.values:
        if name == param:
            return value
    return NO_OVERRIDE


def _assert_matches(assignment, scan):
    for _ in range(2):  # the second pass reads the cached table
        for name in _NAMES + ("unknown",):
            for entity in _ENTITIES:
                for index in range(3):
                    assert (assignment.value_for(entity, index, name)
                            == scan(assignment, entity, index, name))


class TestLookupTables:
    @given(_param_assignments)
    @example(ParamAssignment("p", "G", (1, 2), 3,
                             pinned=(("q", 0), ("q", 1), ("p", None))))
    @settings(max_examples=150, deadline=None)
    def test_param_assignment_matches_scan(self, assignment):
        _assert_matches(assignment, _scan_param)

    @given(st.lists(_param_assignments, max_size=4,
                    unique_by=lambda a: a.param).map(tuple))
    @example((ParamAssignment("p", "G", (1,), 2, pinned=(("r", 0),)),
              ParamAssignment("q", "H", (1, 3), 2,
                              pinned=(("r", 1), ("r", 2), ("p", 3)))))
    @settings(max_examples=150, deadline=None)
    def test_hetero_assignment_matches_scan(self, members):
        assignment = HeteroAssignment(members)
        _assert_matches(assignment, _scan_hetero)
        for side in range(assignment.sides() if members else 0):
            _assert_matches(assignment.homo_variant(side), _scan_homo)

    @given(_pairs, _pairs)
    @example((("p", 1), ("p", 2)), (("p", 3), ("q", 4), ("q", 5)))
    @settings(max_examples=150, deadline=None)
    def test_homo_assignment_matches_scan(self, values, pinned):
        _assert_matches(HomoAssignment(values=values, pinned=pinned),
                        _scan_homo)


class TestInstanceEnumeration:
    def test_instances_for_profiled_test(self, generator):
        test = no_node_test()
        instances = generator.instances_for_test(
            test, groups={"Service": 2},
            params_by_group={"Service": {"synth.level", "synth.mode"}})
        # 2 params x 1 pair x 4 strategies (group of 2)
        assert len(instances) == 8
        assert all(isinstance(i, TestInstance) for i in instances)

    def test_unknown_params_skipped(self, generator):
        test = no_node_test()
        instances = generator.instances_for_test(
            test, groups={"Service": 1},
            params_by_group={"Service": {"not.a.param"}})
        assert instances == []

    def test_original_count_formula(self, generator):
        per_param = sum(len(generator.value_pairs(p)) for p in SYNTH_REGISTRY)
        expected = 10 * per_param * 2 * 4
        assert generator.count_original_instances(
            10, ["Service", "Client"]) == expected

    def test_original_enumeration_agrees_with_count(self, generator):
        names = ["t%d" % i for i in range(4)]
        node_types = ["Service", "Client"]
        enumerated = list(generator.enumerate_original_instances(
            names, node_types))
        assert len(enumerated) == generator.count_original_instances(
            len(names), node_types)
        # no duplicates in the universe
        assert len(set(enumerated)) == len(enumerated)
        # every tuple is well formed
        test, node_type, strategy, param, pair = enumerated[0]
        assert test in names and node_type in node_types
        assert param in SYNTH_REGISTRY
        assert len(pair) == 2
