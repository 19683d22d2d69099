"""Pre-run phase: profile each unit test once to filter ineffective
instances (§4 "Pre-run unit tests", §6.2 Observation 3).

The pre-run executes every unit test exactly once under a recording
:class:`~repro.core.confagent.ConfAgent` (no value injection) and learns:

* which node types the test starts (tests that start none are dropped);
* which parameters each node type — and the unit test itself, treated as
  a client node — actually reads;
* which parameters were read through configuration objects the mapping
  rules could not place (those (test, parameter) combinations are
  excluded, because misattributed injection would fabricate intra-node
  inconsistencies and hence false positives);
* whether the test already fails with its original homogeneous
  configuration (broken-at-baseline tests are dropped).

A pre-run is a pure function of the test's code and the IPC-sharing
switch, so :func:`prerun_corpus` runs each test at most once per process
and switch value; every later campaign in the process (a daemon job, an
incremental-edit loop) gets copies of the first profile.
"""

from __future__ import annotations

import random
import threading
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.ipc import ipc_sharing_enabled
from repro.core.confagent import UNIT_TEST, ConfAgent
from repro.core.registry import TestContext, UnitTest

#: Seed used for every pre-run so profiles are reproducible.
PRERUN_SEED = 20210426  # EuroSys'21 opening day


@dataclass
class TestProfile:
    """What the pre-run learned about one unit test."""

    test: UnitTest
    #: node type -> count; includes UNIT_TEST (count 1) when the test's
    #: own configuration objects read any parameter.
    groups: Dict[str, int] = field(default_factory=dict)
    #: node type (or UNIT_TEST) -> parameters read through its confs.
    params_by_group: Dict[str, Set[str]] = field(default_factory=dict)
    #: parameters read through unmappable configuration objects.
    uncertain_params: Set[str] = field(default_factory=set)
    #: parameters the test explicitly ``set``s during execution; the
    #: execution cache must not collapse homo(param=default) onto the
    #: original run for these (injection shadows the explicit set).
    explicit_sets: Set[str] = field(default_factory=set)
    #: read-site attribution: (node_type, node_index) -> {param -> get
    #: count}.  The wiring audit (repro.core.audit) inverts this into
    #: per-parameter read sites with component granularity.
    read_sites: Dict[Tuple[str, int], Dict[str, int]] = field(
        default_factory=dict)
    #: baseline failure message, if the test failed its pre-run.
    baseline_error: Optional[str] = None
    starts_nodes: bool = False

    @property
    def usable(self) -> bool:
        return self.starts_nodes and self.baseline_error is None

    def testable_params(self, group: str) -> Set[str]:
        """Parameters worth testing on ``group`` after all exclusions."""
        return self.params_by_group.get(group, set()) - self.uncertain_params


def prerun_test(test: UnitTest) -> TestProfile:
    """Execute one unit test in recording mode and build its profile."""
    profile = TestProfile(test=test)
    agent = ConfAgent(assignment=None, record_usage=True)
    ctx = TestContext(rng=random.Random(PRERUN_SEED))
    with agent:
        try:
            test.fn(ctx)
        except Exception as exc:  # noqa: BLE001 - a failing test is data
            profile.baseline_error = "%s: %s" % (type(exc).__name__, exc)
    profile.groups = agent.started_node_groups()
    profile.starts_nodes = bool(profile.groups)
    for owner, params in agent.usage.items():
        profile.params_by_group[owner] = set(params)
    if agent.usage.get(UNIT_TEST):
        profile.groups[UNIT_TEST] = 1
    profile.uncertain_params = set(agent.uncertain_params)
    profile.explicit_sets = set(agent.set_params)
    profile.read_sites = {site: dict(counts)
                          for site, counts in agent.read_sites.items()}
    return profile


#: Profiles already measured in this process: test function -> IPC-
#: sharing switch -> profile with ``test=None``.  Weak keys, and values
#: that never reference the test, so a throwaway test's entry dies with
#: its function.
_MEMO: "weakref.WeakKeyDictionary[Callable[..., None], Dict[bool, Any]]" = \
    weakref.WeakKeyDictionary()
_MEMO_LOCK = threading.Lock()


def _copy(profile: TestProfile, test: Optional[UnitTest]) -> TestProfile:
    """A copy of ``profile`` for ``test`` that shares no mutable state."""
    return replace(
        profile, test=test, groups=dict(profile.groups),
        params_by_group={group: set(params) for group, params
                         in profile.params_by_group.items()},
        uncertain_params=set(profile.uncertain_params),
        explicit_sets=set(profile.explicit_sets),
        read_sites={site: dict(counts)
                    for site, counts in profile.read_sites.items()})


def prerun_corpus(tests: List[UnitTest]) -> List[TestProfile]:
    """Pre-run every test, each at most once per process.

    The memo key is the whole input of :func:`prerun_test`: the test's
    function (never its name) and :func:`ipc_sharing_enabled`.  A repeat
    therefore equals a fresh pre-run, and every call returns independent
    copies.
    """
    sharing = ipc_sharing_enabled()
    profiles = []
    for test in tests:
        with _MEMO_LOCK:
            memo = _MEMO.get(test.fn, {}).get(sharing)
        if memo is None:
            memo = replace(prerun_test(test), test=None)
            with _MEMO_LOCK:
                memo = _MEMO.setdefault(test.fn, {}).setdefault(sharing, memo)
        profiles.append(_copy(memo, test))
    return profiles


@dataclass
class PreRunSummary:
    """Aggregate pre-run statistics for reporting (Table 5 support)."""

    total_tests: int = 0
    tests_without_nodes: int = 0
    tests_broken_at_baseline: int = 0
    tests_with_uncertain_confs: int = 0

    @classmethod
    def from_profiles(cls, profiles: List[TestProfile]) -> "PreRunSummary":
        summary = cls(total_tests=len(profiles))
        for profile in profiles:
            if not profile.starts_nodes:
                summary.tests_without_nodes += 1
            if profile.baseline_error is not None:
                summary.tests_broken_at_baseline += 1
            if profile.uncertain_params:
                summary.tests_with_uncertain_confs += 1
        return summary
