"""Simulation-kernel microbenchmarks: absolute per-operation costs.

Every unit-test execution in the reproduction is pure scheduling work on
:class:`repro.common.simulation.Simulator`, so kernel overhead multiplies
through the runner, the pooled tester, and the worker pool.  This bench
times the hot operations on fixed workloads and records each as a cost
per operation:

1. **cancel-heavy** — the heartbeat/timeout-reset pattern (ipc timeouts,
   node heartbeats, bandwidth throttling): a monitor cancels and
   re-arms a deadline timer on every tick; cost per cancel/re-arm.  Heap
   compaction keeps the cancelled entries from bloating the heap.
2. **pending-scan** — ``Simulator.pending_events()``, the watchdog's
   per-step call; cost per call of the O(1) live counter.
3. **wire-encode** — repeated identical layered frames (codec /
   encryption headers), small and large; cost per frame with the encode
   memo warm.
4. **conf-get** — registry-backed ``Configuration.get`` outside any agent
   scope, the hottest call in the harness; cost per read.
5. **sim-event** — raw scheduled callbacks, scheduled then run; cost per
   sim event.

The numbers are host-dependent trajectory rows with no committed
baseline.  They land in ``BENCH_simkernel.json``.
"""

from __future__ import annotations

import time

from _shared import write_bench_artifact
from repro.common.simulation import PeriodicTask, Simulator
from repro.common.wire import clear_wire_memo, encode_payload
from repro.core.report import render_table

ARTIFACT = "BENCH_simkernel.json"


def cancel_heavy(resets: int) -> int:
    """Heartbeat monitor: every tick cancels and re-arms its deadline."""
    sim = Simulator()
    state = {"deadline": None, "expired": 0}

    def expire() -> None:
        state["expired"] += 1

    def beat() -> None:
        if state["deadline"] is not None:
            state["deadline"].cancel()
        state["deadline"] = sim.schedule(600.0, expire)

    task = PeriodicTask(sim, lambda: 1.0, beat)
    sim.run_until(float(resets))
    task.stop()
    assert state["expired"] == 0  # the monitor always reset in time
    return sim.pending_events()


def pending_scan(live: int, calls: int) -> int:
    sim = Simulator()
    for _ in range(live):
        sim.schedule(1.0, int)
    total = 0
    for _ in range(calls):
        total += sim.pending_events()
    assert total == live * calls
    return total


def wire_encode(frames: int) -> int:
    payload = {"method": "sendHeartbeat", "node": "dn-0", "blocks": 128}
    total = 0
    for _ in range(frames):
        total += len(encode_payload(payload, codec="gzip",
                                    encryption_key=b"sasl-privacy-wrap"))
    return total


def wire_encode_large(frames: int) -> int:
    """Large repeated frames: the digest-keyed encode memo's home turf.

    A block manifest is kilobytes of JSON; with the memo keyed by a
    16-byte content digest instead of the full canonical text, thousands
    of distinct large frames fit in the memo without pinning their key
    strings, and repeated sends skip the compress+encrypt stack.
    """
    payload = {"method": "blockReport", "node": "dn-0",
               "blocks": [{"id": i, "gen": i % 7, "len": 134217728}
                          for i in range(256)]}
    total = 0
    for _ in range(frames):
        total += len(encode_payload(payload, codec="gzip",
                                    encryption_key=b"sasl-privacy-wrap"))
    return total


def conf_get(lookups: int) -> int:
    """Registry-backed ``Configuration.get`` outside any agent scope."""
    import sys
    sys.path.insert(0, "tests") if "tests" not in sys.path else None
    from synthetic_app import SynthConfiguration

    conf = SynthConfiguration()
    conf.set("synth.replication", 3)
    total = 0
    for _ in range(lookups):
        total += conf.get("synth.replication")
    return total


def sim_events(events: int) -> None:
    sim = Simulator()
    for i in range(events):
        sim.schedule(float(i % 97), int)
    sim.run()


#: (row, operation unit, operations, workload, arguments): each row's
#: cost is its wall time divided by its operation count.
WORKLOADS = (
    ("cancel_heavy", "resets", 20000, cancel_heavy, (20000,)),
    # enough calls that scheduling the 2000 live timers is noise
    ("pending_scan", "calls", 1000000, pending_scan, (2000, 1000000)),
    ("wire_encode", "frames", 20000, wire_encode, (20000,)),
    ("wire_encode_large", "frames", 2000, wire_encode_large, (2000,)),
    ("conf_get", "lookups", 200000, conf_get, (200000,)),
    ("sim_event", "events", 50000, sim_events, (50000,)),
)


def measure() -> dict:
    rows = {}
    for name, unit, operations, fn, args in WORKLOADS:
        clear_wire_memo()
        started = time.perf_counter()
        fn(*args)
        wall = time.perf_counter() - started
        rows[name] = {unit: operations, "wall_s": wall,
                      "ns_per_op": wall * 1e9 / operations}
    return rows


def test_simkernel_costs(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print("\nSimulation-kernel per-operation costs:")
    print(render_table(
        ["microbench", "operations", "wall", "ns/op"],
        [[name, "%d %s" % (operations, unit), "%.3fs" % rows[name]["wall_s"],
          "%.0f" % rows[name]["ns_per_op"]]
         for name, unit, operations, _, _ in WORKLOADS]))

    write_bench_artifact(ARTIFACT, rows)
    assert all(row["ns_per_op"] > 0 for row in rows.values())
