"""Automatic parameter-dependency inference (§4's future work).

"Currently TestGenerator requires the developer's effort to generate
these rules ... Future work could extract the relationship between
different parameters automatically, by relying on parameter dependence
analysis."

This module implements a dynamic version of that analysis: run a unit
test once per candidate value of a *driver* parameter (homogeneously,
recording usage) and diff the sets of parameters read.  A parameter that
is only read under one of the driver's values *depends* on it — e.g.
``mapreduce.map.output.compress.codec`` is applied only when
``mapreduce.map.output.compress`` is true, and the NameNode binds
``dfs.namenode.https-address`` only under ``dfs.http.policy =
HTTPS_ONLY``.  Each finding is emitted as a candidate
:class:`~repro.core.testgen.DependencyRule` pinning the enabling value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.params import ParamRegistry
from repro.core.confagent import ConfAgent
from repro.core.prerun import PRERUN_SEED
from repro.core.registry import TestContext, UnitTest
from repro.core.testgen import DependencyRule, HomoAssignment


@dataclass(frozen=True)
class InferredDependency:
    """``dependent`` is only exercised when ``driver == enabling_value``."""

    driver: str
    enabling_value: Any
    dependent: str

    def as_rules(self, registry: ParamRegistry) -> List[DependencyRule]:
        """Rules for TestGenerator: when testing the *dependent*, pin the
        driver to its enabling value (for every candidate of the
        dependent)."""
        param = registry.maybe_get(self.dependent)
        if param is None:
            return []
        return [DependencyRule(self.dependent, value, self.driver,
                               self.enabling_value)
                for value in param.candidate_values()]


def _used_params(test: UnitTest, overrides: Dict[str, Any]) -> Set[str]:
    assignment = HomoAssignment(values=tuple(sorted(overrides.items())))
    agent = ConfAgent(assignment=assignment, record_usage=True)
    ctx = TestContext(rng=random.Random(PRERUN_SEED))
    with agent:
        try:
            test.fn(ctx)
        except Exception:  # noqa: BLE001 - a failing variant still has reads
            pass
    return {name for params in agent.usage.values() for name in params}


def default_drivers(registry: ParamRegistry) -> List[str]:
    """Driver candidates when none are named: every boolean/enumerated
    parameter (the kinds that gate features on and off)."""
    return [param.name for param in registry
            if param.kind in ("bool", "enum")]


def infer_dependencies(test: UnitTest, registry: ParamRegistry,
                       drivers: Optional[Sequence[str]] = None
                       ) -> List[InferredDependency]:
    """Infer value-conditional reads on one unit test.

    For each driver parameter (defaults to every bool/enum in the
    registry), the test is executed once per candidate value
    (homogeneously — this is an analysis pass, not a hetero test);
    parameters read under exactly one value are reported as depending on
    it.
    """
    if drivers is None:
        drivers = default_drivers(registry)
    findings: List[InferredDependency] = []
    for driver in drivers:
        param = registry.maybe_get(driver)
        if param is None:
            continue
        candidates = param.candidate_values()
        if len(candidates) < 2:
            continue
        usage_by_value: List[Tuple[Any, Set[str]]] = [
            (value, _used_params(test, {driver: value}))
            for value in candidates]
        for value, used in usage_by_value:
            others: Set[str] = set()
            for other_value, other_used in usage_by_value:
                if other_value != value:
                    others |= other_used
            for dependent in sorted(used - others - {driver}):
                findings.append(InferredDependency(
                    driver=driver, enabling_value=value,
                    dependent=dependent))
    return findings


def infer_rules_for_corpus(tests: Iterable[UnitTest],
                           registry: ParamRegistry,
                           drivers: Sequence[str]) -> List[DependencyRule]:
    """Aggregate inferred dependencies over a corpus into TestGenerator
    rules, deduplicated."""
    seen: Set[Tuple[str, Any, str, Any]] = set()
    rules: List[DependencyRule] = []
    for test in tests:
        for finding in infer_dependencies(test, registry, drivers):
            for rule in finding.as_rules(registry):
                key = (rule.param, rule.value, rule.companion,
                       rule.companion_value)
                if key not in seen:
                    seen.add(key)
                    rules.append(rule)
    return rules
