"""Simulation-kernel microbenchmarks: absolute per-operation costs.

Every unit-test execution in the reproduction is pure scheduling work on
:class:`repro.common.simulation.Simulator`, so kernel overhead multiplies
through the runner, the pooled tester, and the worker pool.  This bench
times the hot operations on fixed workloads and records each as a cost
per operation:

1. **cancel-heavy** — the heartbeat/timeout-reset pattern (ipc timeouts,
   node heartbeats, bandwidth throttling): a monitor cancels and
   re-arms a deadline timer on every tick; cost per cancel/re-arm.  A
   cancel is a flag write; the dead entry leaves the heap when popped.
2. **wire-encode** — layered frames (codec plus encryption), small and
   large; cost per frame, every frame encoded in full.
3. **conf-get** — registry-backed ``Configuration.get`` outside any agent
   scope; cost per read.  No execution reads this way, so two rows time
   the path campaigns take: **conf-get-agent**, repeat reads inside a
   ConfAgent session with a heterogeneous assignment (answered by the
   conf's view), and **conf-get-first**, first reads of each name on a
   fresh conf (the full resolution that fills the view).
4. **rpc-call** — a heartbeat-shaped ``RpcClient.call`` inside a session:
   SASL negotiation plus copying the arguments and the result; cost per
   call.
5. **sim-event** — raw scheduled callbacks, scheduled then run; cost per
   sim event.

The numbers are host-dependent trajectory rows with no committed
baseline.  They land in ``BENCH_simkernel.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from _shared import write_bench_artifact
from repro.apps.hdfs.conf import HdfsConfiguration
from repro.common.configuration import Configuration
from repro.common.ipc import RpcClient, RpcServer
from repro.common.params import INT, ParamRegistry
from repro.common.simulation import PeriodicTask, Simulator
from repro.common.wire import encode_payload
from repro.core.confagent import ConfAgent
from repro.core.report import render_table
from repro.core.testgen import HeteroAssignment, ParamAssignment

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from synthetic_app import SynthConfiguration  # noqa: E402

ARTIFACT = "BENCH_simkernel.json"

#: enough parameters that one fresh conf serves a thousand first reads,
#: so constructing it is noise in the conf_get_first row.
_WIDE_REGISTRY = ParamRegistry("bench-wide")
for _index in range(1000):
    _WIDE_REGISTRY.define("wide.p%d" % _index, INT, _index)


class _WideConfiguration(Configuration):
    registry = _WIDE_REGISTRY


def _session() -> ConfAgent:
    """A test-execution agent injecting one parameter, as campaigns do."""
    return ConfAgent(assignment=HeteroAssignment((ParamAssignment(
        param="wide.p0", group="DataNode", group_values=(1,),
        other_value=2),)))


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


def wire_encode(frames: int) -> int:
    payload = {"method": "sendHeartbeat", "node": "dn-0", "blocks": 128}
    total = 0
    for _ in range(frames):
        total += len(encode_payload(payload, codec="gzip",
                                    encryption_key=b"sasl-privacy-wrap"))
    return total


def wire_encode_large(frames: int) -> int:
    """A block manifest: kilobytes of JSON compressed and encrypted per
    frame."""
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
    conf = SynthConfiguration()
    conf.set("synth.replication", 3)
    total = 0
    for _ in range(lookups):
        total += conf.get("synth.replication")
    return total


def conf_get_agent(lookups: int) -> int:
    """Repeat reads inside a session: the conf's view answers them."""
    total = 0
    with _session():
        conf = _WideConfiguration()
        conf.get("wide.p1")  # warm the view
        for _ in range(lookups):
            total += conf.get("wide.p1")
    return total


def conf_get_first(lookups: int) -> int:
    """First reads inside a session: every name once per fresh conf."""
    names = _WIDE_REGISTRY.names()
    total = 0
    with _session():
        for _ in range(lookups // len(names)):
            conf = _WideConfiguration()
            for name in names:
                total += conf.get(name)
    return total


def rpc_call(calls: int) -> int:
    """DataNode-to-NameNode heartbeats: a short request, a dict reply."""
    total = 0
    with _session():
        server = RpcServer("NameNode", HdfsConfiguration())
        server.register("heartbeat", lambda dn_id, remaining: {
            "ack": True, "encryption_key": {"key_id": 3,
                                            "material": "00ff" * 8}})
        client = RpcClient(HdfsConfiguration())
        for _ in range(calls):
            reply = client.call(server, "heartbeat", "dn-0", 1 << 30)
            total += reply["encryption_key"]["key_id"]
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
    ("wire_encode", "frames", 20000, wire_encode, (20000,)),
    ("wire_encode_large", "frames", 2000, wire_encode_large, (2000,)),
    ("conf_get", "lookups", 200000, conf_get, (200000,)),
    ("conf_get_agent", "lookups", 200000, conf_get_agent, (200000,)),
    ("conf_get_first", "lookups", 200000, conf_get_first, (200000,)),
    ("rpc_call", "calls", 20000, rpc_call, (20000,)),
    ("sim_event", "events", 50000, sim_events, (50000,)),
)


def measure() -> dict:
    rows = {}
    for name, unit, operations, fn, args in WORKLOADS:
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
