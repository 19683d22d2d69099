"""Deterministic, seed-driven fault injection over the simulation kernel.

The paper's hypothesis-testing machinery (§5, significance 1e-4) exists
because real whole-system unit tests are *flaky*: messages get lost,
daemons die, disks stall, timers drift.  Our simulated corpus is fully
deterministic, so that machinery would never be exercised — unless the
flakiness is injected.  This module injects it **reproducibly**:

* a :class:`FaultPlan` declares fault *probabilities* (message drop,
  delay, duplication; node crash/restart; slow I/O; clock jitter;
  harness infrastructure errors) plus a seed;
* a :class:`FaultInjector` turns the plan into concrete decisions.  Every
  decision is drawn from a per-category ``random.Random`` stream seeded
  from ``(injector seed, category)``, and the simulation itself is
  deterministic, so the same seed yields a byte-identical fault schedule
  — trials stay reproducible while becoming realistically flaky.

Two more plans share the seed and the fault-kind table
(:data:`FAULT_KINDS`): :class:`DiskFaultPlan` for the result store's own
writes and :class:`NetFaultPlan` for the distributed transport's
sockets.  :func:`fault_plans` builds all three from one ``(chaos,
seed, overrides)`` triple — the CLI's ``--chaos --fault-seed N --fault
KIND=VALUE`` and the serve spec's ``chaos``/``fault_seed``/``faults``.

The injector is activated with :func:`fault_scope` (a contextvar, like
``ConfAgent``) and consulted from hook points in
:mod:`repro.common.ipc` (drop/delay/duplicate), :mod:`repro.common.network`
(dropped socket reads, slow I/O), :mod:`repro.common.node` /
:mod:`repro.common.cluster` (crash/restart scheduling, clock jitter).
Outside a scope, the shared inert :class:`NullInjector` makes every hook
a constant-return no-op.

Crucially, each *execution* gets its own injector seed (derived from the
trial seed, which differs between heterogeneous and homogeneous runs),
so injected failures strike hetero and homo trials independently with
identical probability — exactly the null hypothesis that the Fisher
exact test (`repro.core.stats`) is built to dismiss.
"""

from __future__ import annotations

import random
import zlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Iterable, Iterator, Mapping,
                    Optional, Tuple)

from repro.common.errors import InfrastructureError


def fault_seed(*parts: Any) -> int:
    """Deterministic cross-run seed (crc32) from identifying strings/ints;
    the core layer imports it as ``repro.core.execcache.stable_seed``.
    Parts are length-prefixed so distinct part tuples never join to the
    same byte stream (``("a|b", "c")`` vs ``("a", "b|c")``)."""
    pieces = []
    for part in parts:
        text = str(part)
        pieces.append("%d:%s" % (len(text), text))
    return zlib.crc32("".join(pieces).encode("utf-8"))


@dataclass(frozen=True)
class FaultPlan:
    """Declarative chaos schedule: probabilities + a seed.

    All probabilities default to 0.0, so ``FaultPlan()`` is inert.  The
    plan is frozen and hashable: campaign configs embed it, and reports
    derived from the same plan + seed are bit-identical across runs.
    """

    seed: int = 0
    #: probability that a message (RPC request, awaited socket read) is
    #: silently dropped — the receiver observes a timeout.
    drop_prob: float = 0.0
    #: probability that a message is delayed by uniform(*delay_range_s).
    delay_prob: float = 0.0
    delay_range_s: Tuple[float, float] = (0.05, 2.0)
    #: probability that an RPC request is delivered twice (at-least-once
    #: delivery; non-idempotent handlers corrupt state).
    duplicate_prob: float = 0.0
    #: per-node probability of one crash/restart cycle during the test.
    crash_prob: float = 0.0
    crash_window_s: Tuple[float, float] = (1.0, 600.0)
    restart_delay_s: Tuple[float, float] = (1.0, 30.0)
    #: probability that one throttled I/O wait runs ``io_slowdown_factor``
    #: times slower (a stalling disk / noisy neighbour).
    io_slowdown_prob: float = 0.0
    io_slowdown_factor: float = 4.0
    #: fractional clock jitter: every positive timer delay is scaled by
    #: uniform(1 - jitter, 1 + jitter).  Perturbs heartbeat/timeout
    #: interleavings without changing configured semantics.
    clock_jitter: float = 0.0
    #: probability that an execution dies with an InfrastructureError
    #: before the test body runs (a lost container); exercises the
    #: runner's infra-retry path.
    infra_error_prob: float = 0.0
    #: probability that a supervised worker *process* hard-dies
    #: (``os._exit``) just before running a leased profile — the
    #: harness-level chaos that makes the supervisor itself testable.
    #: Pool workers hand this plan to the lease client
    #: (repro.core.distrib.serve_leases); a remote ``repro worker``
    #: client passes none, and a serial run never kills its own process.
    #: Not part of the ``moderate`` preset for the same reason.
    worker_crash_prob: float = 0.0

    @property
    def active(self) -> bool:
        return any((self.drop_prob, self.delay_prob, self.duplicate_prob,
                    self.crash_prob, self.io_slowdown_prob,
                    self.clock_jitter, self.infra_error_prob,
                    self.worker_crash_prob))

    @classmethod
    def moderate(cls, seed: int = 0) -> "FaultPlan":
        """A realistic mid-intensity chaos preset (the CLI's ``--chaos``)."""
        return cls(seed=seed, drop_prob=0.02, delay_prob=0.05,
                   duplicate_prob=0.01, crash_prob=0.02,
                   io_slowdown_prob=0.05, clock_jitter=0.01,
                   infra_error_prob=0.01)

    def worker_crash_decision(self, task: str, delivery: int) -> bool:
        """Should the worker about to run ``task`` hard-die instead?

        Deterministic per (plan seed, task, delivery attempt): the first
        delivery of a profile may be doomed while its redelivery draws a
        fresh decision, so bounded redelivery genuinely recovers injected
        crashes.  The *caller* performs the kill (``os._exit``); keeping
        the policy here and the mechanism in the lease client means this
        hook can be unit-tested without dying.
        """
        if not self.worker_crash_prob:
            return False
        rng = random.Random(fault_seed(self.seed, "worker-crash",
                                       task, delivery))
        return rng.random() < self.worker_crash_prob


class NullInjector:
    """Inert injector used outside fault scopes: every hook is free."""

    active = False

    def drop_message(self, what: str) -> bool:
        return False

    def message_delay(self, what: str) -> float:
        return 0.0

    def duplicate_message(self, what: str) -> bool:
        return False

    def io_slowdown(self) -> float:
        return 1.0

    def clock_jitter(self, delay: float) -> float:
        return delay

    def schedule_node_faults(self, node: Any) -> None:
        pass

    def attach_clock(self, sim: Any) -> None:
        pass

    def check_infra(self, what: str = "execution") -> None:
        pass


NULL_INJECTOR = NullInjector()

_current_injector: ContextVar[Any] = ContextVar("fault_injector",
                                                default=NULL_INJECTOR)


def current_injector() -> Any:
    """The injector for the calling context (inert when none active)."""
    return _current_injector.get()


@contextmanager
def fault_scope(injector: Optional["FaultInjector"]) -> Iterator[None]:
    """Activate ``injector`` for the dynamic extent (None = no-op scope)."""
    if injector is None:
        yield
        return
    token = _current_injector.set(injector)
    try:
        yield
    finally:
        _current_injector.reset(token)


class FaultInjector:
    """Executes one :class:`FaultPlan` for one unit-test execution.

    ``seed`` individualises this execution's schedule (TestRunner derives
    it from the trial seed and the plan seed).  ``on_fault`` is an
    optional callback ``(kind, data)`` invoked for every discrete
    injected fault — the runner records it as a ``fault`` span event.
    Clock jitter is counted but not reported per-event (it perturbs every
    timer, which would drown the trace).
    """

    active = True

    def __init__(self, plan: FaultPlan, seed: int,
                 on_fault: Optional[Callable[[str, Dict[str, Any]], None]] = None
                 ) -> None:
        self.plan = plan
        self.seed = seed
        self.on_fault = on_fault
        self._rngs: Dict[str, random.Random] = {}
        #: fault kind -> number of injections this execution.
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _rng(self, category: str) -> random.Random:
        rng = self._rngs.get(category)
        if rng is None:
            rng = self._rngs[category] = random.Random(
                fault_seed(self.seed, category))
        return rng

    def _emit(self, kind: str, silent: bool = False, **data: Any) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.on_fault is not None and not silent:
            self.on_fault(kind, data)

    # ------------------------------------------------------------------
    # message-level faults (hooks in repro.common.ipc / network)
    # ------------------------------------------------------------------
    def drop_message(self, what: str) -> bool:
        if self.plan.drop_prob and self._rng("drop").random() < self.plan.drop_prob:
            self._emit("drop", what=what)
            return True
        return False

    def message_delay(self, what: str) -> float:
        if self.plan.delay_prob and self._rng("delay").random() < self.plan.delay_prob:
            low, high = self.plan.delay_range_s
            delay = self._rng("delay").uniform(low, high)
            self._emit("delay", what=what, seconds=round(delay, 6))
            return delay
        return 0.0

    def duplicate_message(self, what: str) -> bool:
        if (self.plan.duplicate_prob
                and self._rng("duplicate").random() < self.plan.duplicate_prob):
            self._emit("duplicate", what=what)
            return True
        return False

    # ------------------------------------------------------------------
    # I/O and clock perturbations
    # ------------------------------------------------------------------
    def io_slowdown(self) -> float:
        if (self.plan.io_slowdown_prob
                and self._rng("slow-io").random() < self.plan.io_slowdown_prob):
            self._emit("slow-io", factor=self.plan.io_slowdown_factor)
            return self.plan.io_slowdown_factor
        return 1.0

    def clock_jitter(self, delay: float) -> float:
        jitter = self.plan.clock_jitter
        if jitter <= 0.0 or delay <= 0.0:
            return delay
        factor = 1.0 + self._rng("jitter").uniform(-jitter, jitter)
        self._emit("jitter", silent=True)
        return max(delay * factor, 0.0)

    def attach_clock(self, sim: Any) -> None:
        """Install the jitter hook on a simulator (MiniCluster.__init__)."""
        if self.plan.clock_jitter > 0.0:
            sim.jitter_fn = self.clock_jitter

    # ------------------------------------------------------------------
    # node lifecycle faults (hook in repro.common.cluster.add_node)
    # ------------------------------------------------------------------
    def schedule_node_faults(self, node: Any) -> None:
        """Maybe schedule one crash/restart cycle for a freshly added node."""
        if not self.plan.crash_prob:
            return
        rng = self._rng("crash")
        roll = rng.random()
        crash_at = rng.uniform(*self.plan.crash_window_s)
        outage = rng.uniform(*self.plan.restart_delay_s)
        if roll >= self.plan.crash_prob:
            return  # rng consumed either way, so schedules stay aligned
        sim = node.sim
        node_name = type(node).__name__

        def _crash() -> None:
            if node.running:
                node.crash()
                self._emit("crash", node=node_name, at=round(sim.now, 6))

        def _restart() -> None:
            if not node.running:
                node.restart()
                self._emit("restart", node=node_name, at=round(sim.now, 6))

        sim.schedule(crash_at, _crash)
        sim.schedule(crash_at + outage, _restart)

    # ------------------------------------------------------------------
    # harness faults (hook in repro.core.runner)
    # ------------------------------------------------------------------
    def check_infra(self, what: str = "execution") -> None:
        if (self.plan.infra_error_prob
                and self._rng("infra").random() < self.plan.infra_error_prob):
            self._emit("infra-error", what=what)
            raise InfrastructureError(
                "injected infrastructure fault during %s" % what)

    # ------------------------------------------------------------------
    @property
    def total_faults(self) -> int:
        return sum(self.counts.values())


# ----------------------------------------------------------------------
# disk faults (hooks in repro.core.store via FaultyFile)
# ----------------------------------------------------------------------

class InjectedDiskFault(OSError):
    """An injected I/O error (torn write, ENOSPC).  Subclasses OSError so
    the store's real-world degradation path (catch OSError, go read-only)
    handles injected and genuine disk failures identically."""


class InjectedCrash(BaseException):
    """Simulated process death immediately *after* a durable write.

    Deliberately a BaseException: the store's (and campaign's) ordinary
    ``except OSError`` / ``except Exception`` recovery must not be able to
    swallow it, exactly as no handler survives SIGKILL.  Tests catch it
    explicitly at the outermost level and then reopen the store cold.
    """


@dataclass(frozen=True)
class DiskFaultPlan:
    """Declarative disk chaos for the result store: probabilities + seed.

    Mirrors :class:`FaultPlan` but targets the *harness's own* durable
    writes rather than the simulated application: decisions are made per
    physical ``write()`` call on a store segment, deterministically from
    ``(seed, file label, write index)``, so a given store layout replays
    the same fault schedule under the same seed.
    """

    seed: int = 0
    #: the write is cut short *and* the process is assumed dead: a seeded
    #: prefix of the frame reaches the platter, then InjectedDiskFault.
    torn_write_prob: float = 0.0
    #: the write is cut short but *reported as complete* (a lying disk /
    #: lost sector): a prefix is written and the call returns success.
    short_write_prob: float = 0.0
    #: the write fails up front with ENOSPC; nothing reaches the disk.
    enospc_prob: float = 0.0
    #: the write completes and is fsynced, then the process "dies"
    #: (InjectedCrash).  Probes the durability claim: the record must be
    #: served after reopen.
    crash_after_write_prob: float = 0.0

    @property
    def active(self) -> bool:
        return any((self.torn_write_prob, self.short_write_prob,
                    self.enospc_prob, self.crash_after_write_prob))

    def write_decision(self, label: str, index: int) -> Optional[str]:
        """Which fault (if any) strikes write ``index`` on file ``label``.

        One roll per write, partitioned over the four kinds in a fixed
        order, so at most one fault fires per write and each kind's
        marginal probability matches its field.
        """
        if not self.active:
            return None
        rng = random.Random(fault_seed(self.seed, "disk-write", label, index))
        roll = rng.random()
        for kind, prob in (("torn-write", self.torn_write_prob),
                           ("short-write", self.short_write_prob),
                           ("enospc", self.enospc_prob),
                           ("crash-after-write", self.crash_after_write_prob)):
            if roll < prob:
                return kind
            roll -= prob
        return None

    def keep_bytes(self, label: str, index: int, size: int) -> int:
        """How many leading bytes of a torn/short write survive (at least
        one byte short of complete, so the frame is always damaged)."""
        if size <= 1:
            return 0
        rng = random.Random(fault_seed(self.seed, "disk-keep", label, index))
        return rng.randrange(0, size - 1)


@dataclass(frozen=True)
class NetFaultPlan:
    """Declarative transport chaos: probabilities + a seed.

    Frozen and inert by default, like :class:`FaultPlan` (its design
    template).  Decisions are per *outbound frame* of a
    :class:`repro.common.transport.FrameTransport` and deterministic in
    ``(seed, connection id, frame index)``; two runs that send the same
    frames over connections with the same ids observe identical chaos.
    """

    seed: int = 0
    #: probability that an outbound frame is silently discarded.
    drop_prob: float = 0.0
    #: probability that an outbound frame is held back before sending.
    delay_prob: float = 0.0
    delay_range_s: Tuple[float, float] = (0.01, 0.25)
    #: sever the link after this many outbound frames (0 = never).  The
    #: count is per transport, so a reconnected link is severed again
    #: after another N frames — a deterministic flapping partition.
    partition_after: int = 0

    @property
    def active(self) -> bool:
        return bool(self.drop_prob or self.delay_prob
                    or self.partition_after)

    # -- per-frame decisions (pure; unit-testable without sockets) ------
    def drop_decision(self, conn_id: str, frame_index: int) -> bool:
        if not self.drop_prob:
            return False
        rng = random.Random(fault_seed(self.seed, "net-drop", conn_id,
                                       frame_index))
        return rng.random() < self.drop_prob

    def delay_decision(self, conn_id: str, frame_index: int) -> float:
        if not self.delay_prob:
            return 0.0
        rng = random.Random(fault_seed(self.seed, "net-delay", conn_id,
                                       frame_index))
        if rng.random() >= self.delay_prob:
            return 0.0
        low, high = self.delay_range_s
        return rng.uniform(low, high)

    def partition_decision(self, frame_index: int) -> bool:
        return bool(self.partition_after
                    and frame_index >= self.partition_after)


# ----------------------------------------------------------------------
# one table for every fault kind, shared by the CLI and the serve spec
# ----------------------------------------------------------------------

#: fault kind -> (plan class, plan field).  Each kind's value has the
#: field's type: a probability, or for ``net_partition`` a frame count.
FAULT_KINDS: Dict[str, Tuple[type, str]] = {
    "drop": (FaultPlan, "drop_prob"),
    "delay": (FaultPlan, "delay_prob"),
    "duplicate": (FaultPlan, "duplicate_prob"),
    "crash": (FaultPlan, "crash_prob"),
    "slow_io": (FaultPlan, "io_slowdown_prob"),
    "clock_jitter": (FaultPlan, "clock_jitter"),
    "infra": (FaultPlan, "infra_error_prob"),
    "worker_crash": (FaultPlan, "worker_crash_prob"),
    "disk_torn_write": (DiskFaultPlan, "torn_write_prob"),
    "disk_short_write": (DiskFaultPlan, "short_write_prob"),
    "disk_enospc": (DiskFaultPlan, "enospc_prob"),
    "disk_crash_after_write": (DiskFaultPlan, "crash_after_write_prob"),
    "net_drop": (NetFaultPlan, "drop_prob"),
    "net_delay": (NetFaultPlan, "delay_prob"),
    "net_partition": (NetFaultPlan, "partition_after"),
}

#: the kinds that perturb one execution (FaultPlan): the only kinds a
#: serve spec accepts, since disk kinds would act on the daemon's shared
#: store and net kinds on a fleet the daemon does not own.
EXECUTION_FAULT_KINDS = tuple(kind for kind, (cls, _) in FAULT_KINDS.items()
                              if cls is FaultPlan)

#: the kinds ``repro worker`` accepts: its own transport's chaos.
NET_FAULT_KINDS = tuple(kind for kind, (cls, _) in FAULT_KINDS.items()
                        if cls is NetFaultPlan)


def check_faults(overrides: Mapping[str, Any],
                 kinds: Iterable[str] = tuple(FAULT_KINDS)
                 ) -> Dict[str, Any]:
    """Validate ``{kind: value}`` against ``kinds``; return it sorted,
    each value coerced to its plan field's type.  Raises ValueError."""
    kinds = tuple(kinds)
    bad = sorted(set(overrides) - set(kinds))
    if bad:
        raise ValueError("unknown fault kind(s): %s (known: %s)"
                         % (", ".join(bad), ", ".join(sorted(kinds))))
    checked = {}
    for kind, value in sorted(overrides.items()):
        cls, name = FAULT_KINDS[kind]
        field_type = type(getattr(cls, name))
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or (field_type is int and value != int(value)):
            raise ValueError("fault %s must be %s" % (
                kind, "an integer" if field_type is int else "a number"))
        checked[kind] = field_type(value)
    return checked


def fault_plans(chaos: bool, seed: int, overrides: Mapping[str, Any]
                ) -> Tuple[Optional[FaultPlan], Optional[DiskFaultPlan],
                           Optional[NetFaultPlan]]:
    """The execution, disk and net plans for one ``(chaos, seed,
    overrides)`` setting, each None when inert.  ``chaos`` starts the
    execution plan from :meth:`FaultPlan.moderate`; every override wins
    over the preset.  All three plans share ``seed``."""
    checked = check_faults(overrides)
    plans = []
    for base in (FaultPlan.moderate(seed) if chaos else FaultPlan(seed=seed),
                 DiskFaultPlan(seed=seed), NetFaultPlan(seed=seed)):
        plan = replace(base, **{FAULT_KINDS[kind][1]: value
                                for kind, value in checked.items()
                                if FAULT_KINDS[kind][0] is type(base)})
        plans.append(plan if plan.active else None)
    return plans[0], plans[1], plans[2]


def plan_from_dict(cls: type, record: Optional[Mapping[str, Any]]) -> Any:
    """Rebuild a :class:`FaultPlan`, :class:`DiskFaultPlan` or
    :class:`NetFaultPlan` from its ``asdict`` form, turning the lists
    JSON makes of tuple fields back into tuples (None stays None)."""
    if record is None:
        return None
    return cls(**{name: tuple(value) if isinstance(value, list) else value
                  for name, value in record.items()})


class FaultyFile:
    """A binary file wrapper that consults a :class:`DiskFaultPlan` on
    every ``write``.  The policy lives on the plan, the mechanism here,
    and the *victim* (the store) only sees OSError/success — mirroring
    ``FaultPlan.worker_crash_decision``'s policy/mechanism split.
    """

    def __init__(self, handle: Any, plan: DiskFaultPlan, label: str = "",
                 counts: Optional[Dict[str, int]] = None) -> None:
        self._handle = handle
        self.plan = plan
        self.label = label
        self.counts = counts if counts is not None else {}
        self._write_index = 0

    def _count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def write(self, data: bytes) -> int:
        import errno as _errno
        import os as _os
        index = self._write_index
        self._write_index += 1
        kind = self.plan.write_decision(self.label, index)
        if kind is None:
            return self._handle.write(data)
        self._count(kind)
        if kind == "enospc":
            raise InjectedDiskFault(
                _errno.ENOSPC, "injected ENOSPC on %s" % self.label)
        if kind in ("torn-write", "short-write"):
            keep = self.plan.keep_bytes(self.label, index, len(data))
            if keep:
                self._handle.write(data[:keep])
            # the torn prefix is what a crash would leave on disk: make it
            # visible to the next open rather than hiding it in a buffer.
            self._handle.flush()
            _os.fsync(self._handle.fileno())
            if kind == "torn-write":
                raise InjectedDiskFault(
                    _errno.EIO, "injected torn write on %s" % self.label)
            return len(data)  # short write: the disk lies about success
        # crash-after-write: the record is fully durable, then we "die".
        self._handle.write(data)
        self._handle.flush()
        _os.fsync(self._handle.fileno())
        raise InjectedCrash("injected crash after durable write on %s"
                            % self.label)

    # pass-through surface the store needs from a real file object
    def flush(self) -> None:
        self._handle.flush()

    def fileno(self) -> int:
        return self._handle.fileno()

    def close(self) -> None:
        self._handle.close()
