"""TestGenerator: which tests to run, with which heterogeneous values (§4).

Responsibilities, in the paper's order:

* **Test parameters independently** — each test instance varies one
  parameter (or, with pooled testing, one *pool* of parameters, each still
  independent of the others); dependency rules let a developer pin
  companion parameters (e.g. set the https address when testing the https
  policy).
* **Select parameter values** — via :meth:`ParamDef.candidate_values`.
* **Select representative value assignments** — nodes are grouped by
  type; for each group and value pair we emit the cross-type strategy
  (group gets v1, everyone else v2, and the swap) and, for groups with at
  least two nodes, the round-robin-within-group strategy (§4).
* **Analytic instance counting** — the "Original" row of Table 5.

Everything here is a pure function of frozen inputs, and a warm rerun
asks for the same values again and again, so each is derived once per
object and kept in that object's ``__dict__`` (written with
``object.__setattr__``; a copy or pickle carries the cache with the
content it was derived from):

* an assignment's canonical form and its text (``canonical`` and
  ``canonical_text``), and a pooled assignment's homogeneous variants;
* a parameter's value pairs and generated assignments, on its
  :class:`ParamDef`, which every campaign over the same registry shares
  (an edited definition is a new object, so it starts empty).

Caches are keyed by identity or exact text, never by ``==`` over values:
``1``, ``1.0`` and ``True`` compare equal but differ in the ``repr`` that
feeds every content key and seed.  Two threads that fill the same slot
store equal values, so a lost race only costs the work twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Sequence,
                    Set, Tuple)

from repro.common.params import ParamDef, ParamRegistry
from repro.core.confagent import NO_OVERRIDE
from repro.core.registry import UnitTest

#: assignment strategies from §4
CROSS = "cross"              # group -> v1, all others -> v2
CROSS_SWAPPED = "cross-swapped"
ROUND_ROBIN = "round-robin"  # alternate v1/v2 within group, others -> v2
ROUND_ROBIN_SWAPPED = "round-robin-swapped"

ALL_STRATEGIES = (CROSS, CROSS_SWAPPED, ROUND_ROBIN, ROUND_ROBIN_SWAPPED)


@dataclass(frozen=True)
class DependencyRule:
    """When testing ``param`` with ``value``, also set ``companion=companion_value``
    on every node (§4: e.g. set the https address when the policy is https)."""

    param: str
    value: Any
    companion: str
    companion_value: Any


@dataclass(frozen=True)
class ParamAssignment:
    """Heterogeneous values of one parameter, plus pinned companions.

    ``group`` nodes get values from ``group_values`` (length 1 for the
    cross strategies, length 2 for round-robin, indexed by node index
    parity); every other entity — other node types *and the unit test,
    which ZebraConf treats as a client node* — gets ``other_value``.
    """

    param: str
    group: str
    group_values: Tuple[Any, ...]
    other_value: Any
    pinned: Tuple[Tuple[str, Any], ...] = ()

    def value_for(self, node_type: str, node_index: int, name: str) -> Any:
        # Lazily built first-wins pinned map, cached on the instance (via
        # object.__setattr__ — the dataclass is frozen, and the cache must
        # survive copies/pickles that skip __post_init__).
        pinned_map = self.__dict__.get("_pinned_map")
        if pinned_map is None:
            pinned_map = {}
            for pinned_name, pinned_value in self.pinned:
                if pinned_name not in pinned_map:
                    pinned_map[pinned_name] = pinned_value
            object.__setattr__(self, "_pinned_map", pinned_map)
        if name in pinned_map:
            return pinned_map[name]
        if name != self.param:
            return NO_OVERRIDE
        if node_type == self.group:
            return self.group_values[node_index % len(self.group_values)]
        return self.other_value

    def canonical(self) -> Tuple[Any, ...]:
        """Stable content form: equal canonicals inject identically.

        Pinned companions keep first-wins semantics (``value_for`` answers
        with the first pin of a name) but are sorted afterwards so incidental ordering does
        not split cache slots or seeds.
        """
        canonical = self.__dict__.get("_canonical")
        if canonical is None:
            pinned = _first_wins_pairs(self.pinned)
            canonical = ("param", self.param, self.group,
                         tuple(self.group_values), self.other_value,
                         tuple(sorted(pinned,
                                      key=lambda kv: (kv[0], repr(kv[1])))))
            object.__setattr__(self, "_canonical", canonical)
        return canonical

    def canonical_text(self) -> str:
        """``repr(self.canonical())``, the text content keys hash."""
        text = self.__dict__.get("_text")
        if text is None:
            text = repr(self.canonical())
            object.__setattr__(self, "_text", text)
        return text

    def distinct_values(self) -> Tuple[Any, ...]:
        out: List[Any] = []
        for value in self.group_values + (self.other_value,):
            if value not in out:
                out.append(value)
        return tuple(out)


@dataclass(frozen=True)
class HeteroAssignment:
    """A (possibly pooled) set of per-parameter heterogeneous assignments.

    This is what ConfAgent consults on every intercepted ``get``.
    """

    assignments: Tuple[ParamAssignment, ...]

    def __post_init__(self) -> None:
        params = [a.param for a in self.assignments]
        if len(set(params)) != len(params):
            raise ValueError("duplicate parameter in pooled assignment")

    @property
    def params(self) -> Tuple[str, ...]:
        return tuple(a.param for a in self.assignments)

    def value_for(self, node_type: str, node_index: int, name: str) -> Any:
        # Hot path of every intercepted config get: a pooled scan over all
        # members is O(pool size) per get, but only assignments that
        # *mention* ``name`` (as the tested param or a pinned companion)
        # can ever answer — index them once, first-wins order preserved.
        # Unknown names exit in one dict probe.
        by_name = self.__dict__.get("_by_name")
        if by_name is None:
            by_name = {}
            for assignment in self.assignments:
                names = [p for p, _ in assignment.pinned]
                names.append(assignment.param)
                for mentioned in names:
                    hits = by_name.get(mentioned)
                    if hits is None:
                        by_name[mentioned] = [assignment]
                    elif assignment is not hits[-1]:
                        hits.append(assignment)
            object.__setattr__(self, "_by_name", by_name)
        hits = by_name.get(name)
        if hits is None:
            return NO_OVERRIDE
        for assignment in hits:
            value = assignment.value_for(node_type, node_index, name)
            if value is not NO_OVERRIDE:
                return value
        return NO_OVERRIDE

    def canonical(self) -> Tuple[Any, ...]:
        """Stable content form; pooled order is irrelevant to injection
        (parameters are unique), so members are sorted by parameter."""
        canonical = self.__dict__.get("_canonical")
        if canonical is None:
            canonical = ("hetero", tuple(
                a.canonical() for a in self._by_param()))
            object.__setattr__(self, "_canonical", canonical)
        return canonical

    def canonical_text(self) -> str:
        """``repr(self.canonical())``, joined from the members' cached
        texts: a tuple's repr is its items' reprs, comma-separated."""
        text = self.__dict__.get("_text")
        if text is None:
            members = [a.canonical_text() for a in self._by_param()]
            text = "('hetero', (%s%s))" % (", ".join(members),
                                           "," if len(members) == 1 else "")
            object.__setattr__(self, "_text", text)
        return text

    def _by_param(self) -> List[ParamAssignment]:
        return sorted(self.assignments, key=lambda a: a.param)

    def sides(self) -> int:
        """Number of homogeneous variants implied (max distinct values)."""
        return max(len(a.distinct_values()) for a in self.assignments)

    def homo_variant(self, side: int) -> "HomoAssignment":
        """Homogeneous configuration i of Definition 3.1: every entity gets
        parameter p's i-th distinct value (clamped per parameter).  Built
        once per side, so the first trial and every confirmation trial
        share one variant and its cached content forms."""
        variants = self.__dict__.get("_homo_variants")
        if variants is None:
            variants = {}
            object.__setattr__(self, "_homo_variants", variants)
        variant = variants.get(side)
        if variant is None:
            values = {}
            pinned: Dict[str, Any] = {}
            for assignment in self.assignments:
                distinct = assignment.distinct_values()
                values[assignment.param] = distinct[min(side,
                                                        len(distinct) - 1)]
                pinned.update(dict(assignment.pinned))
            variant = variants[side] = HomoAssignment(
                values=tuple(values.items()), pinned=tuple(pinned.items()))
        return variant

    def subset(self, params: Sequence[str]) -> "HeteroAssignment":
        keep = set(params)
        return HeteroAssignment(tuple(a for a in self.assignments
                                      if a.param in keep))


@dataclass(frozen=True)
class HomoAssignment:
    """Every entity sees the same value for every parameter."""

    values: Tuple[Tuple[str, Any], ...]
    pinned: Tuple[Tuple[str, Any], ...] = ()

    def value_for(self, node_type: str, node_index: int, name: str) -> Any:
        # First-wins map over pinned then values, cached like
        # ParamAssignment's pinned map.
        merged = self.__dict__.get("_merged")
        if merged is None:
            merged = {}
            for param, value in self.pinned + self.values:
                if param not in merged:
                    merged[param] = value
            object.__setattr__(self, "_merged", merged)
        return merged.get(name, NO_OVERRIDE)

    def canonical(self) -> Tuple[Any, ...]:
        """Stable content form (see also
        :func:`repro.core.execcache.canonical_assignment`, which folds
        default-value injections onto the original configuration)."""
        canonical = self.__dict__.get("_canonical")
        if canonical is None:
            effective = _first_wins_pairs(self.pinned + self.values)
            canonical = ("homo", tuple(sorted(
                effective, key=lambda kv: (kv[0], repr(kv[1])))))
            object.__setattr__(self, "_canonical", canonical)
        return canonical


def _first_wins_pairs(pairs: Tuple[Tuple[str, Any], ...]
                      ) -> Tuple[Tuple[str, Any], ...]:
    """Drop later duplicates, matching ``value_for``'s scan order."""
    seen: Set[str] = set()
    out: List[Tuple[str, Any]] = []
    for name, value in pairs:
        if name not in seen:
            seen.add(name)
            out.append((name, value))
    return tuple(out)


@dataclass(frozen=True)
class TestInstance:
    """One runnable tuple: unit test + target group + strategy + params."""

    test: UnitTest
    group: str
    strategy: str
    assignment: HeteroAssignment

    @property
    def params(self) -> Tuple[str, ...]:
        return self.assignment.params


class TestGenerator:
    """Builds test instances for one application."""

    def __init__(self, registry: ParamRegistry,
                 dependency_rules: Iterable[DependencyRule] = (),
                 max_value_pairs: int = 3) -> None:
        self.registry = registry
        self.dependency_rules = list(dependency_rules)
        #: cap on value pairs per parameter, keeping instance counts sane
        #: for parameters with many candidate values.
        self.max_value_pairs = max_value_pairs
        #: parameter name -> its rules, in ``dependency_rules`` order.
        self._rules_by_param: Dict[str, Tuple[DependencyRule, ...]] = {}
        for rule in self.dependency_rules:
            self._rules_by_param[rule.param] = \
                self._rules_by_param.get(rule.param, ()) + (rule,)

    # ------------------------------------------------------------------
    # value selection
    # ------------------------------------------------------------------
    def value_pairs(self, param: ParamDef) -> List[Tuple[Any, Any]]:
        """Unordered pairs of candidate values, default-first."""
        by_cap = param.__dict__.get("_value_pairs")
        if by_cap is None:
            by_cap = {}
            object.__setattr__(param, "_value_pairs", by_cap)
        pairs = by_cap.get(self.max_value_pairs)
        if pairs is None:
            candidates = param.candidate_values()
            pairs = by_cap[self.max_value_pairs] = tuple(
                pair for pair in itertools.combinations(candidates, 2)
                if pair[0] != pair[1])[:self.max_value_pairs]
        return list(pairs)

    def pinned_for(self, param: str, value: Any) -> Tuple[Tuple[str, Any], ...]:
        return tuple((rule.companion, rule.companion_value)
                     for rule in self._rules_by_param.get(param, ())
                     if rule.value == value)

    # ------------------------------------------------------------------
    # assignment strategies (§4 "select representative value assignment")
    # ------------------------------------------------------------------
    def strategies_for_group(self, group_size: int) -> List[str]:
        strategies = [CROSS, CROSS_SWAPPED]
        if group_size >= 2:
            strategies += [ROUND_ROBIN, ROUND_ROBIN_SWAPPED]
        return strategies

    def assignment(self, param: ParamDef, group: str, strategy: str,
                   pair: Tuple[Any, Any]) -> ParamAssignment:
        v1, v2 = pair
        if strategy == CROSS:
            group_values: Tuple[Any, ...] = (v1,)
            other = v2
        elif strategy == CROSS_SWAPPED:
            group_values, other = (v2,), v1
        elif strategy == ROUND_ROBIN:
            group_values, other = (v1, v2), v2
        elif strategy == ROUND_ROBIN_SWAPPED:
            group_values, other = (v2, v1), v1
        else:
            raise ValueError("unknown strategy %r" % strategy)
        # The dominant heterogeneous value is what the group sees first;
        # pin companions for both sides so either side is self-consistent.
        pinned = self.pinned_for(param.name, v1) + self.pinned_for(param.name, v2)
        return ParamAssignment(param=param.name, group=group,
                               group_values=group_values, other_value=other,
                               pinned=pinned)

    def assignments(self, param: ParamDef, group: str, strategy: str
                    ) -> Tuple[ParamAssignment, ...]:
        """:meth:`assignment` for each of ``param``'s value pairs, in
        order, built once and kept on ``param`` per (group, strategy,
        pair cap).  The entry holds ``param``'s dependency rules and is
        served only to a generator whose rules for ``param`` are the
        same objects, since ``pinned_for`` matches rule values by ``==``
        and an equal rule may pin a value with a different ``repr``."""
        rules = self._rules_by_param.get(param.name, ())
        generated = param.__dict__.get("_assignments")
        if generated is None:
            generated = {}
            object.__setattr__(param, "_assignments", generated)
        slot = (group, strategy, self.max_value_pairs)
        entry = generated.get(slot)
        if entry is None or len(entry[0]) != len(rules) \
                or any(a is not b for a, b in zip(entry[0], rules)):
            entry = generated[slot] = (rules, tuple(
                self.assignment(param, group, strategy, pair)
                for pair in self.value_pairs(param)))
        return entry[1]

    # ------------------------------------------------------------------
    # instance enumeration
    # ------------------------------------------------------------------
    def instances_for_test(self, test: UnitTest, groups: Mapping[str, int],
                           params_by_group: Mapping[str, Set[str]]) -> List[TestInstance]:
        """All single-parameter instances for a pre-run-profiled test.

        ``groups`` maps started node types to their counts; ``params_by_group``
        maps each node type to the parameters it actually read during the
        pre-run (§4 "pre-run unit tests" rule: only test parameter p on
        node type A if A used p).
        """
        instances: List[TestInstance] = []
        for group, count in sorted(groups.items()):
            used = params_by_group.get(group, set())
            for name in sorted(used):
                param = self.registry.maybe_get(name)
                if param is None:
                    continue
                for pair in self.value_pairs(param):
                    for strategy in self.strategies_for_group(count):
                        assignment = HeteroAssignment(
                            (self.assignment(param, group, strategy, pair),))
                        instances.append(TestInstance(
                            test=test, group=group, strategy=strategy,
                            assignment=assignment))
        return instances

    # ------------------------------------------------------------------
    # analytic counting (Table 5, "Original" row)
    # ------------------------------------------------------------------
    def count_original_instances(self, num_tests: int,
                                 node_types: Sequence[str],
                                 assumed_group_size: int = 2) -> int:
        """Instances a user would run with our §4 strategies but *without*
        pre-running (Table 5 row 1): every test is assumed to exercise
        every node type of the application on every parameter."""
        per_param = sum(len(self.value_pairs(p)) for p in self.registry)
        strategies = len(self.strategies_for_group(assumed_group_size))
        return num_tests * per_param * len(node_types) * strategies

    def enumerate_original_instances(self, test_names: Sequence[str],
                                     node_types: Sequence[str],
                                     assumed_group_size: int = 2
                                     ) -> "Iterator[Tuple[str, str, str, str, Tuple[Any, Any]]]":
        """Materialise the Table-5 "Original" universe lazily.

        Yields ``(test, node_type, strategy, param, value_pair)`` tuples —
        the combinations a user without pre-run knowledge would enqueue.
        Useful for sampling and for validating
        :meth:`count_original_instances` (they agree by construction, and
        a test pins that).
        """
        strategies = self.strategies_for_group(assumed_group_size)
        for test_name in test_names:
            for node_type in node_types:
                for param in self.registry:
                    for pair in self.value_pairs(param):
                        for strategy in strategies:
                            yield (test_name, node_type, strategy,
                                   param.name, pair)
