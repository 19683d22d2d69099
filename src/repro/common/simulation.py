"""Deterministic discrete-event simulation kernel.

All timing behaviour in the simulated cloud systems (heartbeats, socket
timeouts, bandwidth throttling, congestion-control back-off) runs on
*simulated* time provided by :class:`Simulator`.  This keeps the corpus
unit tests deterministic and lets a test that covers minutes of cluster
time finish in microseconds of wall time — the paper's unit tests "can
take a long time (e.g., several minutes), because they need to wait for a
cluster to be set up" (§4); ours do not.

The kernel is intentionally small and SimPy-flavoured:

* ``sim.schedule(delay, fn, *args)`` runs a plain callback later.
* ``sim.spawn(generator)`` starts a cooperative *process*.  A process is a
  generator that yields:

  - a number        — sleep that many simulated seconds,
  - a :class:`Process` — join another process (its result is sent back
    into the generator; its exception re-raises inside it).

* ``sim.run()`` / ``sim.run_until(t)`` / ``sim.run_for(dt)`` advance time.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties).
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Generator, Iterator, List, Optional, Tuple


class SimulationError(Exception):
    """Internal kernel misuse (e.g. a process yielding an unsupported
    target)."""


class SimTimeLimitExceeded(SimulationError):
    """A simulator advanced past the watchdog budget set by
    :func:`sim_time_limit` — the simulated-time analogue of a JUnit
    ``@Test(timeout=...)`` killing a runaway test."""


#: Simulated-time budget inherited by every Simulator created in scope.
_TIME_LIMIT: ContextVar[Optional[float]] = ContextVar(
    "sim_time_limit", default=None)


@contextmanager
def sim_time_limit(limit: Optional[float]) -> Iterator[None]:
    """Bound the simulated lifetime of Simulators built in this scope.

    Any simulator constructed while the context is active raises
    :class:`SimTimeLimitExceeded` from ``run()`` when it would advance
    past ``limit`` simulated seconds.  TestRunner wraps every unit-test
    execution in this watchdog so a fault-perturbed (or simply buggy)
    test cannot consume unbounded scheduling work.
    """
    token = _TIME_LIMIT.set(limit)
    try:
        yield
    finally:
        _TIME_LIMIT.reset(token)


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Cancelling is a flag write: the entry stays in the heap and ``run()``
    drops it when it is popped.
    """

    __slots__ = ("_cancelled", "when", "callback", "args")

    def __init__(self, when: float, callback: Callable[..., Any],
                 args: Tuple[Any, ...]):
        self._cancelled = False
        self.when = when
        self.callback = callback
        self.args = args

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Process:
    """A cooperative task driven by the simulator.

    Other processes may ``yield`` a process to join it, and
    :meth:`Simulator.run_process` runs one to completion synchronously
    from test code.
    """

    __slots__ = ("sim", "name", "_generator", "_done", "_result",
                 "_exception", "_waiters")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._waiters: List["Process"] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def result(self) -> Any:
        if not self._done:
            raise SimulationError("process %s has not finished" % self.name)
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- joining: other processes may yield this one ---------------------
    def _add_waiter(self, process: "Process") -> None:
        if self._done:
            self.sim._schedule_resume(process, self)
        else:
            self._waiters.append(process)

    def _step(self, send_value: Any = None, throw: Optional[BaseException] = None) -> None:
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send_value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to joiners
            self._finish(exception=exc)
            return
        self.sim._wait_on(self, target)

    def _finish(self, result: Any = None, exception: Optional[BaseException] = None) -> None:
        self._done = True
        self._result = result
        self._exception = exception
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim._schedule_resume(process, self)
        if exception is not None and not waiters:
            self.sim._record_crash(self, exception)


class Simulator:
    """Deterministic event loop over simulated seconds."""

    __slots__ = ("_now", "_seq", "_heap", "crashed_processes",
                 "time_limit", "jitter_fn")

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, Timer]] = []
        self.crashed_processes: List[Tuple[Process, BaseException]] = []
        #: watchdog: raise once the loop would advance past this instant.
        self.time_limit: Optional[float] = _TIME_LIMIT.get()
        #: fault-injection hook: perturb every positive scheduling delay
        #: (see repro.common.faults; None keeps the kernel exact).
        self.jitter_fn: Optional[Callable[[float], float]] = None

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative, got %r" % delay)
        if self.jitter_fn is not None and delay > 0:
            delay = self.jitter_fn(delay)
        timer = Timer(self._now + delay, callback, args)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (timer.when, seq, timer))
        return timer

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a process; it takes its first step at the current instant."""
        process = Process(self, generator, name=name)
        self.schedule(0.0, process._step)
        return process

    def run_process(self, generator: Generator, name: str = "",
                    max_time: float = float("inf")) -> Any:
        """Spawn a process and run the simulation until it completes.

        Returns the process result, re-raising any exception it raised.
        Used by corpus unit tests to perform "synchronous" operations that
        consume simulated time (e.g. a client writing a block through a
        throttled pipeline).
        """
        process = self.spawn(generator, name=name)
        self.run(until_done=process, max_time=max_time)
        if not process.done:
            raise SimulationError(
                "process %s did not finish by simulated time %s"
                % (process.name, max_time))
        # This caller observes the outcome (result or re-raised
        # exception), so the process must not linger as an unobserved
        # crash for raise_crashes() to report a second time.
        self.crashed_processes = [(p, e) for p, e in self.crashed_processes
                                  if p is not process]
        return process.result

    def _wait_on(self, process: Process, target: Any) -> None:
        if isinstance(target, (int, float)):
            self.schedule(float(target), process._step)
        elif isinstance(target, Process):
            target._add_waiter(process)
        else:
            process._step(throw=SimulationError(
                "process %s yielded unsupported %r" % (process.name, target)))

    def _schedule_resume(self, process: Process, source: Process) -> None:
        self.schedule(0.0, self._resume, process, source)

    @staticmethod
    def _resume(process: Process, source: Process) -> None:
        if source._exception is not None:
            process._step(throw=source._exception)
        else:
            process._step(send_value=source._result)

    def _record_crash(self, process: Process, exception: BaseException) -> None:
        self.crashed_processes.append((process, exception))

    def raise_crashes(self) -> None:
        """Re-raise the first unobserved process crash, if any.

        Corpus unit tests call this (via their cluster helpers) so that a
        background failure — e.g. a heartbeat decode error — fails the
        test, the way an uncaught exception in a JVM daemon thread fails a
        JUnit test through an uncaught-exception handler.
        """
        if self.crashed_processes:
            _, exc = self.crashed_processes[0]
            raise exc

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, max_time: float = float("inf"),
            until_done: Optional[Process] = None) -> None:
        """Process events until the heap drains, ``max_time`` passes, or
        ``until_done`` completes."""
        # The loop dominates every unit-test execution, so its hot names
        # are bound locally.
        heap = self._heap
        heappop = heapq.heappop
        time_limit = self.time_limit
        while heap:
            if until_done is not None and until_done._done:
                return
            entry = heap[0]
            when = entry[0]
            if when > max_time:
                self._now = max_time
                return
            heappop(heap)
            timer = entry[2]
            if timer._cancelled:
                continue
            if time_limit is not None and when > time_limit:
                self._now = time_limit
                raise SimTimeLimitExceeded(
                    "simulation exceeded its %.0fs simulated-time budget"
                    % time_limit)
            self._now = when
            timer.callback(*timer.args)
        if max_time != float("inf"):
            self._now = max(self._now, max_time)

    def run_until(self, time: float) -> None:
        """Advance simulated time to ``time``, processing due events."""
        if time < self._now:
            raise ValueError("cannot run backwards: now=%s target=%s"
                             % (self._now, time))
        self.run(max_time=time)

    def run_for(self, duration: float) -> None:
        self.run_until(self._now + duration)

    def pending_events(self) -> int:
        """Timers still due to fire (cancelled heap entries excluded)."""
        return sum(1 for _, _, timer in self._heap if not timer._cancelled)


class PeriodicTask:
    """Re-schedules a callback every ``interval`` simulated seconds.

    The interval is re-read through ``interval_fn`` on every tick, so a
    node whose configuration is reconfigured (or heterogeneously assigned)
    immediately honours the new cadence — this mirrors daemons that sleep
    ``conf.get(...)`` milliseconds per loop iteration.
    """

    __slots__ = ("sim", "interval_fn", "callback", "jitter_fn", "_stopped",
                 "_timer")

    def __init__(self, sim: Simulator, interval_fn: Callable[[], float],
                 callback: Callable[[], Any], jitter_fn: Optional[Callable[[], float]] = None,
                 start_delay: Optional[float] = None) -> None:
        self.sim = sim
        self.interval_fn = interval_fn
        self.callback = callback
        self.jitter_fn = jitter_fn
        self._stopped = False
        first = interval_fn() if start_delay is None else start_delay
        self._timer = sim.schedule(first, self._tick)

    def stop(self) -> None:
        self._stopped = True
        self._timer.cancel()

    def _tick(self) -> None:
        if self._stopped:
            return
        self.callback()
        if self._stopped:  # callback may stop the task
            return
        interval = self.interval_fn()
        if self.jitter_fn is not None:
            interval += self.jitter_fn()
        self._timer = self.sim.schedule(max(interval, 0.0), self._tick)
