"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simulation import PeriodicTask, SimulationError, Simulator


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callback_runs_at_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_arguments_are_passed(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        seen = []
        for index in range(10):
            sim.schedule(3.0, seen.append, index)
        sim.run()
        assert seen == list(range(10))

    def test_cancelled_timer_does_not_fire(self):
        sim = Simulator()
        seen = []
        timer = sim.schedule(1.0, seen.append, "no")
        timer.cancel()
        sim.run()
        assert seen == []
        assert timer.cancelled

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, seen.append, "late")
        sim.run_until(5.0)
        assert seen == []
        assert sim.now == 5.0
        sim.run_until(10.0)
        assert seen == ["late"]

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_run_for_advances_relative(self):
        sim = Simulator()
        sim.run_for(2.0)
        sim.run_for(3.0)
        assert sim.now == 5.0

    def test_pending_events_counts_uncancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events() == 1
        assert not keep.cancelled

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestProcesses:
    def test_process_sleeps_on_numeric_yield(self):
        sim = Simulator()

        def body():
            yield 3.0
            return sim.now

        assert sim.run_process(body()) == 3.0

    def test_process_joins_another_process(self):
        sim = Simulator()

        def child():
            yield 2.0
            return "child-result"

        def parent():
            value = yield sim.spawn(child())
            return value

        assert sim.run_process(parent()) == "child-result"

    def test_child_exception_propagates_to_joiner(self):
        sim = Simulator()

        def child():
            yield 1.0
            raise KeyError("lost")

        def parent():
            yield sim.spawn(child())

        with pytest.raises(KeyError):
            sim.run_process(parent())

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def body():
            yield "not a valid target"

        with pytest.raises(SimulationError):
            sim.run_process(body())

    def test_unobserved_crash_recorded_and_reraised(self):
        sim = Simulator()

        def body():
            yield 1.0
            raise RuntimeError("background failure")

        sim.spawn(body())
        sim.run()
        assert len(sim.crashed_processes) == 1
        with pytest.raises(RuntimeError):
            sim.raise_crashes()

    def test_result_before_done_rejected(self):
        sim = Simulator()

        def body():
            yield 5.0

        process = sim.spawn(body())
        with pytest.raises(SimulationError):
            _ = process.result

    def test_run_process_respects_max_time(self):
        sim = Simulator()

        def body():
            yield 100.0

        with pytest.raises(SimulationError):
            sim.run_process(body(), max_time=10.0)

    def test_many_processes_interleave_deterministically(self):
        sim = Simulator()
        log = []

        def worker(name, period):
            for _ in range(3):
                yield period
                log.append((sim.now, name))

        sim.spawn(worker("a", 1.0))
        sim.spawn(worker("b", 1.5))
        sim.run()
        # at t=3.0 both are due; b's timer was armed earlier (at t=1.5)
        # so it fires first — same-time ties resolve by scheduling order.
        assert log == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"),
                       (3.0, "a"), (4.5, "b")]


class TestPeriodicTask:
    def test_fires_at_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, interval_fn=lambda: 2.0,
                     callback=lambda: ticks.append(sim.now))
        sim.run_until(7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_interval_reread_at_rearm(self):
        """The interval function is re-read when each tick re-arms the
        timer, like a daemon that sleeps ``conf.get(...)`` per loop —
        a reconfiguration takes effect after the already-armed tick."""
        sim = Simulator()
        ticks = []
        interval = {"value": 1.0}
        PeriodicTask(sim, interval_fn=lambda: interval["value"],
                     callback=lambda: ticks.append(sim.now))
        sim.run_until(2.0)
        interval["value"] = 5.0  # the t=3.0 tick is already armed
        sim.run_until(12.0)
        assert ticks == [1.0, 2.0, 3.0, 8.0]

    def test_stop_prevents_future_ticks(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, interval_fn=lambda: 1.0,
                            callback=lambda: ticks.append(sim.now))
        sim.run_until(2.5)
        task.stop()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0]

    def test_start_delay_overrides_first_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, interval_fn=lambda: 10.0,
                     callback=lambda: ticks.append(sim.now), start_delay=1.0)
        sim.run_until(12.0)
        assert ticks == [1.0, 11.0]

    def test_callback_may_stop_its_own_task(self):
        sim = Simulator()
        ticks = []
        holder = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                holder["task"].stop()

        holder["task"] = PeriodicTask(sim, interval_fn=lambda: 1.0,
                                      callback=tick)
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0]


# ---------------------------------------------------------------------------
# kernel: lazy deletion, cancel storms, teardown safety
# ---------------------------------------------------------------------------
class TestHeapCompaction:
    def test_small_heaps_never_compact(self):
        sim = Simulator()
        timers = [sim.schedule(10.0, int) for _ in range(10)]
        for timer in timers:
            timer.cancel()
        assert len(sim._heap) == 10  # lazy deletion: entries stay queued
        assert sim.pending_events() == 0

    def test_compaction_mid_run_preserves_event_order(self):
        """A callback's cancel storm inside a bounded run() leaves the
        remaining events firing, in order."""
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(2.0 + i, order.append, i)
        victims = [sim.schedule(100.0, int) for _ in range(200)]

        def slaughter():
            for timer in victims:
                timer.cancel()

        sim.schedule(1.0, slaughter)
        sim.run_until(1.5)  # the storm lands inside the bounded run
        assert sim.pending_events() == 5
        sim.run()
        assert order == [0, 1, 2, 3, 4]
        assert sim.pending_events() == 0

    def test_event_order_identical_fast_and_legacy(self):
        """After a cancel storm the survivors fire in exactly the (time,
        scheduling order) a plain sort gives."""
        sim = Simulator()
        log = []
        timers = {}
        for i in range(300):
            timers[i] = sim.schedule(float(i % 11), log.append, i)

        def kill():
            for i in range(300):
                if i % 4:
                    timers[i].cancel()

        sim.schedule(0.5, kill)
        sim.run()
        # time-0 timers fire before kill() runs at 0.5; of the rest only
        # every fourth survives
        expected = [i for i in sorted(range(300), key=lambda i: (i % 11, i))
                    if i % 11 == 0 or i % 4 == 0]
        assert log == expected


class TestCancelAccounting:
    def test_double_cancel_counts_once(self):
        sim = Simulator()
        timer = sim.schedule(5.0, int)
        sim.schedule(6.0, int)
        timer.cancel()
        timer.cancel()
        assert timer.cancelled
        assert sim.pending_events() == 1

    def test_cancel_after_fire_is_inert(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.run_until(1.5)
        assert fired == [1]
        timer.cancel()  # handle kept across the firing
        timer.cancel()
        assert sim.pending_events() == 1
        sim.run()
        assert fired == [1, 2]
        assert sim.pending_events() == 0

    def test_cancel_after_simulator_teardown(self):
        sim = Simulator()
        fired_handle = sim.schedule(1.0, int)
        pending_handle = sim.schedule(50.0, int)
        sim.run_until(2.0)
        del sim
        fired_handle.cancel()    # already popped: a flag write
        pending_handle.cancel()  # never popped: a flag write, no error
        assert fired_handle.cancelled
        assert pending_handle.cancelled
