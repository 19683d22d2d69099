"""Registry of reusable whole-system unit tests (the corpus).

ZebraConf does not write tests; it *reuses* the target application's
existing whole-system unit tests (§3.2).  Our corpus plays the role of
those JUnit suites: each entry is a callable that builds a mini cluster,
drives a scenario, and raises on failure.  The registry also carries
ground-truth metadata used **only** by triage/benchmark code (never by
detection): whether the test manipulates private node state, whether its
assertions observe state through public APIs, and whether it is known to
be nondeterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class TestContext:
    """Per-execution context handed to every corpus unit test.

    ``rng`` is freshly seeded per trial by TestRunner, so tests that model
    nondeterminism (timing races, random payload sizes) genuinely flake
    between trials while staying reproducible for a fixed seed.  It is
    the only channel the trial seed reaches a test through: a test that
    depends on the seed must draw from ``rng``, because the runner's
    rng-use tracking is what keeps a seed-dependent outcome out of the
    execution cache's seed-free tier (repro.core.execcache).
    """

    rng: random.Random

    def maybe(self, probability: float) -> bool:
        """True with the given probability (nondeterminism helper)."""
        return self.rng.random() < probability


@dataclass(frozen=True)
class UnitTest:
    """One whole-system unit test in the corpus."""

    app: str
    name: str
    fn: Callable[[TestContext], None]
    #: False when the test pokes private node state / shares objects in a
    #: way impossible in a real distributed setting (§7.1 FP cause 1).
    realistic: bool = True
    #: "public" when its assertions observe state through public APIs,
    #: "private" when only through internals (§7.1's 7-vs-9 split).
    observability: str = "public"
    #: True for assertions the paper calls overly strict (FP cause 3).
    strict_assertion: bool = False
    #: Declared nondeterminism rate, for ground-truth accounting only.
    flaky: bool = False
    tags: Tuple[str, ...] = ()
    notes: str = ""

    @property
    def full_name(self) -> str:
        # Built once per test: every execution keys by it, and reports
        # that keep it then share one string instead of a copy each.
        name = self.__dict__.get("_full_name")
        if name is None:
            name = "%s::%s" % (self.app, self.name)
            object.__setattr__(self, "_full_name", name)
        return name


class Corpus:
    """All registered unit tests, keyed by application."""

    def __init__(self) -> None:
        self._tests: Dict[str, List[UnitTest]] = {}

    def register(self, test: UnitTest) -> UnitTest:
        tests = self._tests.setdefault(test.app, [])
        if any(t.name == test.name for t in tests):
            raise ValueError("duplicate test %s" % test.full_name)
        tests.append(test)
        return test

    def for_app(self, app: str) -> List[UnitTest]:
        return list(self._tests.get(app, []))

    def apps(self) -> List[str]:
        return sorted(self._tests)

    def all_tests(self) -> List[UnitTest]:
        return [t for app in self.apps() for t in self._tests[app]]

    def get(self, app: str, name: str) -> UnitTest:
        for test in self._tests.get(app, []):
            if test.name == name:
                return test
        raise KeyError("%s::%s" % (app, name))

    def __len__(self) -> int:
        return sum(len(v) for v in self._tests.values())


#: The process-wide corpus; app suites register into it at import time.
CORPUS = Corpus()


def unit_test(app: str, name: Optional[str] = None, *, realistic: bool = True,
              observability: str = "public", strict_assertion: bool = False,
              flaky: bool = False, tags: Iterable[str] = (), notes: str = "",
              corpus: Corpus = CORPUS) -> Callable:
    """Decorator registering a corpus unit test.

    >>> @unit_test("hdfs", "TestHeartbeat.testDeadNodeDetection")
    ... def test_dead_node_detection(ctx):
    ...     ...
    """

    def decorate(fn: Callable[[TestContext], None]) -> Callable[[TestContext], None]:
        corpus.register(UnitTest(
            app=app, name=name or fn.__name__, fn=fn, realistic=realistic,
            observability=observability, strict_assertion=strict_assertion,
            flaky=flaky, tags=tuple(tags), notes=notes))
        return fn

    return decorate


def load_all_suites() -> Corpus:
    """Import every application package so its suite registers itself."""
    # Imports are local to avoid import cycles at package-init time.
    # (Hadoop Common has no tests of its own — Table 5 has no Common
    # column; its two unsafe parameters surface through the other apps.)
    import repro.apps.hdfs.suite  # noqa: F401
    import repro.apps.mapreduce.suite  # noqa: F401
    import repro.apps.yarn.suite  # noqa: F401
    import repro.apps.flink.suite  # noqa: F401
    import repro.apps.hbase.suite  # noqa: F401
    import repro.apps.hadooptools.suite  # noqa: F401
    return CORPUS
