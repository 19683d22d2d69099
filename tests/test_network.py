"""Unit tests for the bandwidth throttler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.network import BandwidthThrottler
from repro.common.simulation import Simulator


def drain(sim, throttler, nbytes, chunk):
    """Acquire ``nbytes`` in ``chunk``-sized pieces; returns elapsed time."""

    def body():
        remaining = nbytes
        while remaining > 0:
            take = min(chunk, remaining)
            yield from throttler.acquire(take)
            remaining -= take
        return sim.now

    return sim.run_process(body())


class TestBandwidthThrottler:
    def test_burst_capacity_is_free(self):
        sim = Simulator()
        throttler = BandwidthThrottler(sim, rate_fn=lambda: 1000.0)
        assert drain(sim, throttler, 1000, 100) == pytest.approx(0.0, abs=1e-3)

    def test_sustained_rate_enforced(self):
        sim = Simulator()
        throttler = BandwidthThrottler(sim, rate_fn=lambda: 1000.0)
        # 1000 burst + 4000 refilled over ~4 seconds
        elapsed = drain(sim, throttler, 5000, 100)
        assert elapsed == pytest.approx(4.0, rel=0.02)

    def test_rate_reread_live(self):
        sim = Simulator()
        rate = {"value": 1000.0}
        throttler = BandwidthThrottler(sim, rate_fn=lambda: rate["value"])
        drain(sim, throttler, 1000, 1000)  # exhaust the burst
        rate["value"] = 10000.0
        elapsed_start = sim.now
        drain(sim, throttler, 10000, 1000)
        assert sim.now - elapsed_start == pytest.approx(1.0, rel=0.05)

    def test_force_debit_creates_deficit(self):
        sim = Simulator()
        throttler = BandwidthThrottler(sim, rate_fn=lambda: 100.0)
        throttler.force_debit(600.0)  # burst is 100, deficit 500
        assert throttler.deficit == pytest.approx(500.0, rel=0.01)

    def test_wait_until_clear_repays_deficit_at_rate(self):
        sim = Simulator()
        throttler = BandwidthThrottler(sim, rate_fn=lambda: 100.0)
        throttler.force_debit(600.0)

        def body():
            yield from throttler.wait_until_clear()
            return sim.now

        assert sim.run_process(body()) == pytest.approx(5.0, rel=0.02)

    def test_wait_until_clear_immediate_when_positive(self):
        sim = Simulator()
        throttler = BandwidthThrottler(sim, rate_fn=lambda: 100.0)

        def body():
            yield from throttler.wait_until_clear()
            return sim.now

        assert sim.run_process(body()) == 0.0

    def test_throttled_time_accumulates(self):
        sim = Simulator()
        throttler = BandwidthThrottler(sim, rate_fn=lambda: 100.0)
        drain(sim, throttler, 500, 100)
        assert throttler.total_throttled_time > 0

    @given(st.integers(min_value=200, max_value=20000),
           st.integers(min_value=10, max_value=500),
           st.floats(min_value=50.0, max_value=5000.0))
    @settings(max_examples=40, deadline=None)
    def test_never_faster_than_rate_property(self, nbytes, chunk, rate):
        """Past the burst allowance, delivery can never beat the cap."""
        sim = Simulator()
        throttler = BandwidthThrottler(sim, rate_fn=lambda: rate)
        elapsed = drain(sim, throttler, nbytes, chunk)
        # the burst allowance plus (at most) one overdrafted final chunk
        # are free; everything else must be paced at the configured rate.
        free = rate * throttler.burst_seconds + chunk
        lower_bound = max(nbytes - free, 0) / rate
        assert elapsed >= lower_bound - 1e-6

