"""Simulated network primitive: bandwidth throttling.

The interesting Table-3 timing bugs (balancer bandwidth overload,
congestion-control collapse) come from nodes *pacing* their I/O
according to their own configuration.  :class:`BandwidthThrottler`, the
DataXceiver-style token bucket behind
``dfs.datanode.balance.bandwidthPerSec``, runs on the discrete-event
simulator so those interactions are reproduced deterministically.
Socket timeouts are the RPC client's inline deadline
(:class:`~repro.common.ipc.RpcClient`).
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.common.faults import current_injector
from repro.common.simulation import Simulator


class BandwidthThrottler:
    """Token-bucket throttler over simulated time (HDFS DataTransferThrottler).

    ``rate_fn`` is re-read on every acquisition so online reconfiguration
    of the bandwidth cap takes effect immediately, matching HDFS-2202.
    Use from inside a simulation process::

        yield from throttler.acquire(num_bytes)
    """

    def __init__(self, sim: Simulator, rate_fn: Callable[[], float],
                 burst_seconds: float = 1.0) -> None:
        self.sim = sim
        self.rate_fn = rate_fn
        self.burst_seconds = burst_seconds
        self._available = rate_fn() * burst_seconds
        self._last_refill = sim.now
        self.total_throttled_time = 0.0

    def _refill(self) -> None:
        rate = max(self.rate_fn(), 1e-9)
        elapsed = self.sim.now - self._last_refill
        self._last_refill = self.sim.now
        cap = rate * self.burst_seconds
        self._available = min(cap, self._available + elapsed * rate)

    def acquire(self, nbytes: float) -> Generator:
        """Process-style acquisition: sleeps until ``nbytes`` of quota exist.

        A request larger than the bucket's burst capacity waits for a full
        bucket and then overdrafts it (available goes negative), so later
        acquisitions repay the deficit — matching HDFS's throttler, which
        debits first and sleeps off the overrun.
        """
        while True:
            self._refill()
            rate = max(self.rate_fn(), 1e-9)
            needed = min(nbytes, rate * self.burst_seconds)
            if self._available >= needed:
                self._available -= nbytes
                return
            # The epsilon guarantees the refill strictly covers the request,
            # preventing a floating-point spin of ~1e-12s sleeps.
            wait = (needed - self._available) / rate + 1e-6
            wait *= current_injector().io_slowdown()
            self.total_throttled_time += wait
            yield wait

    def force_debit(self, nbytes: float) -> None:
        """Charge quota for bytes that *already* hit the wire.

        A DataNode cannot refuse packets that have arrived; it debits its
        balancing-bandwidth budget after the fact and throttles all
        subsequent traffic until the (possibly deep) deficit refills —
        the mechanism behind the paper's bandwidthPerSec case study.
        """
        self._refill()
        self._available -= nbytes

    def wait_until_clear(self) -> Generator:
        """Process helper: sleep until the quota deficit is repaid."""
        while True:
            self._refill()
            if self._available >= 0:
                return
            rate = max(self.rate_fn(), 1e-9)
            wait = -self._available / rate + 1e-6
            wait *= current_injector().io_slowdown()
            self.total_throttled_time += wait
            yield wait

    @property
    def deficit(self) -> float:
        self._refill()
        return max(0.0, -self._available)

