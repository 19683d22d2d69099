"""A tiny synthetic application + corpus for framework-level tests.

Used by the TestGenerator/TestRunner/pooling/orchestrator unit tests so
they don't depend on the (heavier) simulated cloud systems.  The app has
one node type, a handful of parameters with known behaviours, and test
factories that plant deterministic-unsafe, flaky, broken-at-baseline,
and node-free unit tests.
"""

from __future__ import annotations

import os
import time
from typing import List

from repro.common.configuration import Configuration, ref_to_clone
from repro.common.errors import TestFailure
from repro.common.node import register_node_type
from repro.common.params import BOOL, INT, ParamRegistry
from repro.core.confagent import current_agent
from repro.core.registry import Corpus, TestContext, UnitTest

SYNTH_REGISTRY = ParamRegistry("synth")
SYNTH_REGISTRY.define("synth.mode", BOOL, False)
SYNTH_REGISTRY.define("synth.level", INT, 10, candidates=(10, 1000))
SYNTH_REGISTRY.define("synth.safe-a", INT, 1, candidates=(1, 100))
SYNTH_REGISTRY.define("synth.safe-b", BOOL, True)
SYNTH_REGISTRY.define("synth.safe-c", INT, 7, candidates=(7, 700))
SYNTH_REGISTRY.define("synth.never-read", INT, 0, candidates=(0, 5))

register_node_type("synth", "Service")


class SynthConfiguration(Configuration):
    registry = SYNTH_REGISTRY


class Service:
    """One node; reads every parameter at init so pre-runs see usage."""

    node_type = "Service"

    def __init__(self, conf: Configuration) -> None:
        agent = current_agent()
        agent.start_init(self, self.node_type)
        try:
            self.conf = ref_to_clone(conf)
            self.mode = self.conf.get_bool("synth.mode")
            self.level = self.conf.get_int("synth.level")
            self.safe_a = self.conf.get_int("synth.safe-a")
            self.safe_b = self.conf.get_bool("synth.safe-b")
            self.safe_c = self.conf.get_int("synth.safe-c")
        finally:
            agent.stop_init()

    def exchange(self, peer: "Service") -> None:
        """Fails when the peers' unsafe parameters disagree."""
        if self.conf.get_bool("synth.mode") != peer.conf.get_bool("synth.mode"):
            raise TestFailure("synth.mode mismatch between peers")
        if self.conf.get_int("synth.level") != peer.conf.get_int("synth.level"):
            raise TestFailure("synth.level mismatch between peers")


def two_service_test(name: str = "TestSynth.testExchange",
                     flaky_rate: float = 0.0, **meta) -> UnitTest:
    def body(ctx: TestContext) -> None:
        conf = SynthConfiguration()
        first = Service(conf)
        second = Service(conf)
        first.exchange(second)
        second.exchange(first)
        if flaky_rate and ctx.maybe(flaky_rate):
            raise TestFailure("synthetic nondeterministic failure")

    return UnitTest(app="synth", name=name, fn=body, **meta)


def client_vs_service_test(name: str = "TestSynth.testClientView") -> UnitTest:
    def body(ctx: TestContext) -> None:
        conf = SynthConfiguration()
        service = Service(conf)
        if conf.get_int("synth.level") != service.level:
            raise TestFailure("client and service disagree on synth.level")

    return UnitTest(app="synth", name=name, fn=body)


def safe_only_test(name: str = "TestSynth.testSafeParams") -> UnitTest:
    def body(ctx: TestContext) -> None:
        conf = SynthConfiguration()
        service = Service(conf)
        if service.safe_a < 0:
            raise TestFailure("impossible")

    return UnitTest(app="synth", name=name, fn=body)


def no_node_test(name: str = "TestSynth.testPureFunction") -> UnitTest:
    def body(ctx: TestContext) -> None:
        if 1 + 1 != 2:
            raise TestFailure("arithmetic broke")

    return UnitTest(app="synth", name=name, fn=body)


def broken_baseline_test(name: str = "TestSynth.testAlwaysFails") -> UnitTest:
    def body(ctx: TestContext) -> None:
        SynthConfiguration()
        Service(SynthConfiguration())
        raise TestFailure("broken at baseline")

    return UnitTest(app="synth", name=name, fn=body)


def uncertain_conf_test(name: str = "TestSynth.testLateConf") -> UnitTest:
    def body(ctx: TestContext) -> None:
        conf = SynthConfiguration()
        Service(conf)
        late = SynthConfiguration()  # unmappable: nodes already exist
        if late.get_int("synth.safe-c") < 0:
            raise TestFailure("impossible")

    return UnitTest(app="synth", name=name, fn=body)


def _heterogeneous(first: Service, second: Service) -> bool:
    """True only under heterogeneous configurations: the pre-run baseline
    (homogeneous defaults) must survive, because it executes in the
    *parent* process — only supervised workers may be sacrificed."""
    return first.mode != second.mode or first.level != second.level


def hard_crash_test(name: str = "TestSynth.testWorkerCrash",
                    exit_code: int = 1) -> UnitTest:
    """Kills the hosting *process* on any heterogeneous execution —
    the supervised worker pool's poison-profile case."""
    def body(ctx: TestContext) -> None:
        conf = SynthConfiguration()
        first = Service(conf)
        second = Service(conf)
        if _heterogeneous(first, second):
            os._exit(exit_code)

    return UnitTest(app="synth", name=name, fn=body)


def hanging_test(name: str = "TestSynth.testRealTimeHang") -> UnitTest:
    """Hangs in *real* time (sleep loop) on any heterogeneous execution:
    invisible to the simulated-time watchdog, so only the supervisor's
    wall-clock deadline can end it.  Heartbeats keep flowing (the child's
    side thread still runs), so this exercises the deadline path, not the
    frozen-process path."""
    def body(ctx: TestContext) -> None:
        conf = SynthConfiguration()
        first = Service(conf)
        second = Service(conf)
        while _heterogeneous(first, second):
            time.sleep(0.01)

    return UnitTest(app="synth", name=name, fn=body)


def spinning_test(name: str = "TestSynth.testCpuSpin") -> UnitTest:
    """Burns CPU forever on any heterogeneous execution — bait for the
    wall-clock profile deadline (its heartbeat thread keeps beating)."""
    def body(ctx: TestContext) -> None:
        conf = SynthConfiguration()
        first = Service(conf)
        second = Service(conf)
        while _heterogeneous(first, second):
            pass

    return UnitTest(app="synth", name=name, fn=body)


def make_corpus(tests: List[UnitTest]) -> Corpus:
    corpus = Corpus()
    for test in tests:
        corpus.register(test)
    return corpus
