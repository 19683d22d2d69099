"""The four workloads: how each one sets up, and what one unit of work is.

A *unit* is what a user waits for: one full evaluation (evaluate-*),
one incremental rerun after a parameter edit (incremental-edit), or one
submit -> events -> report round trip through the daemon (serve-vet).
Every unit's report is checked against the goldens before the next unit
starts, so load is closed-loop from a single client.

Units run in *rounds* that each start from the same state: a fresh copy
of the cold store (incremental-edit) or a fresh daemon with empty state
and store (serve-vet).  Each unit adds a store segment, and the store
reads every segment when a campaign opens it, so without the reset a
request's cost would depend on how many came before it, and every metric
on how fast the host ran that day.  A run stops at a round boundary once
``--seconds`` have passed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import checker
from layers import Tracer, merge

HERE = os.path.dirname(os.path.abspath(__file__))

#: Findings-neutral edit: appended last, so it changes ``param_digest``
#: (and therefore the incremental plan) but never a triage category.
EDIT_TAG = "bench-edit"

#: Secret the serve-vet daemon is started with (REPRO_SERVE_SECRET).
SERVE_SECRET = "e2e-bench-secret"

#: Requests per round (incremental-edit, serve-vet).
ROUND = 32

#: Requests per serve-vet round that repeat an earlier one exactly (a
#: resubmission, restored from the daemon's journal): 4 of 32.
RESUBMITS = 4

_TERMINAL = ("done", "failed", "cancelled")
_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


class SetupError(RuntimeError):
    """The workload could not be brought up; no result can be reported."""


@dataclass
class Unit:
    """One unit of work and what its report said."""

    seconds: float
    problems: List[str] = field(default_factory=list)
    #: modelled machine seconds (executions x run cost; integral, so
    #: sums are exact in any order).
    machine_s: float = 0.0
    #: Table 3 parameters (found, expected) in this unit's reports.
    table3: Tuple[int, int] = (0, 0)
    #: workload-specific observations (plan reuse, resubmission, ...).
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Phase:
    """A run of units, with what the traced variant recorded."""

    units: List[Unit]
    makespan_s: float
    #: every app report the units produced (for the per-layer ratios).
    reports: List[Dict[str, Any]] = field(default_factory=list)
    #: merged layer accumulators (traced phases only).
    snapshot: Optional[Dict[str, Any]] = None
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: units per round (each round starts from the same state).
    round_size: int = 1


class Context:
    """Paths and process plumbing shared by the workloads."""

    def __init__(self, root: str, work: str, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def env(self, **extra: str) -> Dict[str, str]:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env.update(extra)
        return env

    @staticmethod
    def repro(args: List[str]) -> List[str]:
        return [sys.executable, "-m", "repro"] + args

    @staticmethod
    def instrumented(trace_out: str, args: List[str]) -> List[str]:
        return [sys.executable, os.path.join(HERE, "instrument.py"),
                trace_out] + args


def app_sequence(weights: Dict[str, int]) -> Iterator[str]:
    """Smooth weighted round robin: every prefix holds each app in close
    proportion to its weight, identically for every seed."""
    current = dict.fromkeys(weights, 0)
    total = sum(weights.values())
    while True:
        for app, weight in weights.items():
            current[app] += weight
        chosen = max(weights, key=lambda app: current[app])
        current[chosen] -= total
        yield chosen


def request_mix(params: Dict[str, List[str]], resubmits: int = 0
                ) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """The (app, parameter) pairs one round requests: ``ROUND - resubmits``
    distinct pairs, and ``resubmits`` of them to request a second time.

    Apps get requests in proportion to their registry size
    (:func:`app_sequence`); within an app, whose ``params`` are ordered
    cheapest first, the picks are the midpoints of equal cost strata.
    Parameter costs are heavy-tailed (most cost only the pre-run, a few
    cost tens of times more), so a random draw of a few dozen would make
    a round's cost depend on the seed; this mix costs the same for all.
    """
    apps = app_sequence({app: len(names) for app, names in params.items()})
    counts = dict.fromkeys(params, 0)
    for _ in range(ROUND - resubmits):
        counts[next(apps)] += 1
    mix = [(app, params[app][int((i + 0.5) * len(params[app]) / n)])
           for app, n in counts.items() for i in range(n)]
    step = len(mix) // resubmits if resubmits else 0
    return mix, mix[::step][:resubmits] if step else []


def request_stream(seed: int, params: Dict[str, List[str]],
                   resubmits: int = 0) -> Iterator[Tuple[str, str]]:
    """Rounds of :func:`request_mix`, each in a fresh seeded order; a
    resubmission lands at a seeded position after its first request."""
    mix, repeats = request_mix(params, resubmits)
    rng = random.Random(seed)
    while True:
        order = list(mix)
        rng.shuffle(order)
        for pair in repeats:
            order.insert(rng.randint(order.index(pair) + 1, len(order)),
                         pair)
        yield from order


def _timed_run(cmd: List[str], env: Dict[str, str]
               ) -> Tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    return time.perf_counter() - start, proc


def _failure(what: str, proc: subprocess.CompletedProcess) -> str:
    tail = (proc.stderr or "").strip().splitlines()[-1:] or [""]
    return "%s exited %d: %s" % (what, proc.returncode, tail[0])


def _load_trace(path: str, request: Any = None
                ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    with open(path) as handle:
        record = json.load(handle)
    spans = record.pop("spans")
    if request is not None:
        for span in spans:
            span["request"] = request
    return record, spans


class Workload:
    """Shared closed loop: rounds of :attr:`round_size` units."""

    round_size = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.traced = False
        self.reports: List[Dict[str, Any]] = []
        self.snapshots: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []

    def phase(self, traced: bool, seconds: Optional[float] = None,
              count: Optional[int] = None) -> Phase:
        """Whole rounds until ``seconds`` have passed or, if given,
        ``count`` units are done."""
        self.traced = traced
        self.reports, self.snapshots, self.spans = [], [], []
        self.begin()
        units: List[Unit] = []
        start = time.perf_counter()
        try:
            while (len(units) < count if count is not None
                   else time.perf_counter() - start < seconds):
                self.start_round(len(units) // self.round_size)
                for _ in range(self.round_size):
                    units.append(self.unit(len(units)))
            makespan = time.perf_counter() - start
        finally:
            self.end()
        return Phase(units, makespan, self.reports,
                     merge(self.snapshots) if traced else None, self.spans,
                     self.round_size)

    def begin(self) -> None:
        """Before the first round of a phase."""

    def start_round(self, index: int) -> None:
        """Reset the state a round starts from."""

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def end(self) -> None:
        """After the last round (also on failure): stop and collect."""

    def close(self) -> None:
        """Stop every process the workload still runs."""


# ---------------------------------------------------------------------------
# evaluate-cold / evaluate-supervised
# ---------------------------------------------------------------------------
class Evaluate(Workload):
    """``repro evaluate --json``, each pass in a fresh interpreter."""

    def __init__(self, ctx: Context, supervised: bool) -> None:
        super().__init__(ctx)
        self.supervised = supervised
        self.golden = checker.load_golden(
            "evaluate_threshold999" if supervised else "evaluate")

    def setup(self) -> Tuple[List[float], List[str]]:
        """Five ``repro list-apps``: imports plus loading all suites."""
        times = []
        for _ in range(5):
            elapsed, proc = _timed_run(self.ctx.repro(["list-apps"]),
                                       self.ctx.env())
            if proc.returncode:
                raise SetupError(_failure("list-apps", proc))
            times.append(elapsed)
        return times, []

    def unit(self, index: int) -> Unit:
        name = "%s-%d" % ("traced" if self.traced else "plain", index)
        out = self.ctx.path(name + ".json")
        argv = ["evaluate", "--json", out]
        if self.supervised:
            argv += ["--workers", "2", "--parallel-backend", "process",
                     "--checkpoint", self.ctx.path(name + ".ck.jsonl"),
                     "--blacklist-threshold", "999"]
        trace_out = self.ctx.path(name + ".trace.json")
        cmd = (self.ctx.instrumented(trace_out, argv) if self.traced
               else self.ctx.repro(argv))
        elapsed, proc = _timed_run(cmd, self.ctx.env())
        if proc.returncode:
            return Unit(elapsed, [_failure("evaluate", proc)])
        with open(out) as handle:
            record = json.load(handle)
        found = expected = 0
        for app in record["apps"]:
            hit, total = checker.table3_counts(app)
            found, expected = found + hit, expected + total
        self.reports.extend(record["apps"])
        if self.traced:
            snapshot, spans = _load_trace(trace_out, index)
            self.snapshots.append(snapshot)
            self.spans.extend(spans)
        return Unit(elapsed, checker.check_evaluate(record, self.golden),
                    machine_s=sum(app["machine_time_s"]
                                  for app in record["apps"]),
                    table3=(found, expected))


# ---------------------------------------------------------------------------
# incremental-edit
# ---------------------------------------------------------------------------
def edited_registry(app: str, param: str) -> Any:
    """A copy of ``app``'s registry with :data:`EDIT_TAG` appended to
    ``param``'s tags; every other definition is shared unchanged."""
    from dataclasses import replace

    from repro.apps import catalog
    from repro.common.params import ParamRegistry
    source = catalog.spec_for(app).registry
    registry = ParamRegistry(source.app)
    for definition in source:
        if definition.name == param:
            definition = replace(definition,
                                 tags=definition.tags + (EDIT_TAG,))
        registry.register(definition)
    return registry


def incremental_rerun(app: str, param: str, store: str,
                      registry: Any = None) -> Any:
    """One regression-test request: edit ``param``, rerun incrementally."""
    from repro.apps import catalog
    from repro.core.orchestrator import Campaign, CampaignConfig
    if registry is None:
        registry = edited_registry(app, param)
    return Campaign(app, registry,
                    dependency_rules=catalog.spec_for(app).dependency_rules,
                    config=CampaignConfig(store_path=store,
                                          incremental=True)).run()


class IncrementalEdit(Workload):
    """Edit one parameter, rerun with ``--incremental`` against a store
    that a cold six-app campaign populated."""

    round_size = ROUND
    SETUPS = 3

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.golden = checker.load_golden("evaluate")
        defects = set(checker.load_golden("incremental_defects"))
        self.params = {
            app: [p for p in names if "%s::%s" % (app, p) not in defects]
            for app, names in checker.vet_params().items()}
        self.cold = self.ctx.path("cold-store")
        self.store = self.ctx.path("store")
        self.tracer: Optional[Tracer] = None
        self.stream: Iterator[Tuple[str, str]] = iter(())

    def setup(self) -> Tuple[List[float], List[str]]:
        """Cold ``repro evaluate --store`` into a fresh store, each time in
        a fresh interpreter (imports plus the cold store population)."""
        times, problems = [], []
        for index in range(self.SETUPS):
            store = self.ctx.path("setup-store-%d" % index)
            out = self.ctx.path("setup-%d.json" % index)
            elapsed, proc = _timed_run(
                self.ctx.repro(["evaluate", "--store", store, "--json", out]),
                self.ctx.env())
            if proc.returncode:
                raise SetupError(_failure("cold store population", proc))
            with open(out) as handle:
                problems += checker.check_evaluate(json.load(handle),
                                                   self.golden)
            times.append(elapsed)
            if index == 0:
                os.rename(store, self.cold)
            else:
                shutil.rmtree(store)
        # The measured requests run in this process: pay imports and
        # suite loading now, as a long-lived regression loop would once.
        from repro.apps import catalog
        for app in catalog.APP_NAMES:
            catalog.spec_for(app)
        return times, problems

    def begin(self) -> None:
        self.stream = request_stream(self.ctx.seed, self.params)
        if self.traced:
            self.tracer = self.tracer or Tracer()
            self.tracer.install().enabled = False

    def start_round(self, index: int) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.cold, self.store)

    def unit(self, index: int) -> Unit:
        from repro.core.report import app_report_to_dict
        app, param = next(self.stream)
        registry = edited_registry(app, param)
        tracer = self.tracer if self.traced else None
        if tracer is not None:
            tracer.request = index
            tracer.enabled = True
        start = time.perf_counter()
        report = incremental_rerun(app, param, self.store, registry)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        record = app_report_to_dict(report)
        self.reports.append(record)
        plan = record["plan"]
        return Unit(elapsed, checker.check_app(record, self.golden, app),
                    machine_s=record["machine_time_s"],
                    table3=checker.table3_counts(record),
                    info={"reused": plan["reused"],
                          "profiles": len(plan["profiles"])})

    def end(self) -> None:
        if self.traced and self.tracer is not None:
            self.tracer.enabled = False
            self.snapshots.append(self.tracer.snapshot())
            self.spans.extend(self.tracer.spans)


# ---------------------------------------------------------------------------
# serve-vet
# ---------------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` child on an ephemeral port, with empty state."""

    def __init__(self, ctx: Context, name: str,
                 trace_out: Optional[str] = None) -> None:
        args = ["serve", "127.0.0.1:0",
                "--serve-state", ctx.path(name + "-state"),
                "--store", ctx.path(name + "-results")]
        cmd = ctx.instrumented(trace_out, args) if trace_out else ctx.repro(args)
        self.name = name
        self.trace_out = trace_out
        self.address: Optional[Tuple[str, int]] = None
        self._listening = threading.Event()
        self._log: List[str] = []
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=ctx.env(REPRO_SERVE_SECRET=SERVE_SECRET),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._listening.wait(60) or self.address is None:
            self.stop()
            raise SetupError("daemon did not start listening: %s"
                             % " | ".join(self._log[-3:]))
        self.start_s = time.perf_counter() - start

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._log.append(line.strip())
            match = _LISTENING.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._listening.set()
        self._listening.set()

    def stop(self) -> int:
        """SIGTERM, wait, and reap; returns the exit status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        return self.proc.returncode


def _http(address: Tuple[str, int], method: str, path: str,
          body: Optional[bytes] = None,
          headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def vet(address: Tuple[str, int], token: str, app: str, param: str
        ) -> Dict[str, Any]:
    """POST one single-parameter campaign, follow its events to a
    terminal state, GET its report.  Never raises on a service error:
    the returned ``errors`` list says what went wrong."""
    result: Dict[str, Any] = {"errors": [], "record": None, "http": 0,
                              "job": None, "accepted_at": None}
    start = time.perf_counter()
    try:
        status, body = _http(address, "POST", "/v1/campaigns",
                             json.dumps({"app": app, "params": [param]}
                                        ).encode("utf-8"),
                             {"Authorization": "Bearer " + token,
                              "Content-Type": "application/json"})
        result["http"] += 1
        result["accepted_at"] = time.perf_counter()
        if status != 202:
            result["errors"].append("POST returned %d" % status)
            return result
        accepted = json.loads(body)
        result["job"] = accepted["id"]
        location = accepted["location"]
        conn = http.client.HTTPConnection(*address, timeout=120)
        final = None
        try:
            conn.request("GET", location + "/events")
            response = conn.getresponse()
            result["http"] += 1
            if response.status != 200:
                result["errors"].append("events returned %d"
                                        % response.status)
                return result
            for line in response:
                event = json.loads(line)
                if event.get("event") == "state" \
                        and event["state"] in _TERMINAL:
                    final = event["state"]
        finally:
            conn.close()
        if final != "done":
            result["errors"].append("job ended %s" % final)
            return result
        status, body = _http(address, "GET", location + "/report")
        result["http"] += 1
        if status != 200:
            result["errors"].append("report returned %d" % status)
            return result
        result["record"] = json.loads(body)
    except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
        result["errors"].append("%s: %s" % (type(exc).__name__, exc))
    finally:
        result["seconds"] = time.perf_counter() - start
    return result


class ServeVet(Workload):
    """Vet one parameter through ``repro serve`` before a rollout."""

    round_size = ROUND
    SETUPS = 5

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.golden = checker.load_golden("vet")
        self.params = checker.vet_params()
        self.daemon: Optional[Daemon] = None
        self.token = ""
        self.stream: Iterator[Tuple[str, str]] = iter(())
        self.seen: set = set()

    def setup(self) -> Tuple[List[float], List[str]]:
        """Daemon spawn until its "listening" line, five times."""
        proc = subprocess.run(self.ctx.repro(["serve-token"]),
                              env=self.ctx.env(REPRO_SERVE_SECRET=SERVE_SECRET),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode:
            raise SetupError(_failure("serve-token", proc))
        self.token = proc.stdout.strip()
        times = []
        for index in range(self.SETUPS):
            daemon = Daemon(self.ctx, "setup-%d" % index)
            times.append(daemon.start_s)
            daemon.stop()
        return times, []

    def begin(self) -> None:
        self.stream = request_stream(self.ctx.seed, self.params, RESUBMITS)

    def start_round(self, index: int) -> None:
        self._stop_daemon()
        name = "%s-%d" % ("traced" if self.traced else "plain", index)
        self.daemon = Daemon(self.ctx, name, trace_out=(
            self.ctx.path(name + ".trace.json") if self.traced else None))
        self.seen = set()

    def unit(self, index: int) -> Unit:
        app, param = next(self.stream)
        key = "%s::%s" % (app, param)
        result = vet(self.daemon.address, self.token, app, param)
        info = {"resubmitted": key in self.seen, "http": result["http"],
                "job": "%s/job-%s" % (self.daemon.name, result["job"]),
                "accepted_at": result["accepted_at"],
                "http_errors": len(result["errors"])}
        self.seen.add(key)
        record = result["record"]
        if record is None:
            return Unit(result["seconds"], result["errors"], info=info)
        self.reports.append(record)
        return Unit(result["seconds"],
                    checker.check_app(record, self.golden, key),
                    machine_s=record["machine_time_s"],
                    table3=checker.table3_counts(record, [param]),
                    info=info)

    def _stop_daemon(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        daemon.stop()
        if daemon.trace_out is not None and os.path.exists(daemon.trace_out):
            snapshot, spans = _load_trace(daemon.trace_out)
            for span in spans:  # job ids restart with every daemon
                span["request"] = "%s/%s" % (daemon.name, span["request"])
            self.snapshots.append(snapshot)
            self.spans.extend(spans)

    def end(self) -> None:
        self._stop_daemon()

    def close(self) -> None:
        self._stop_daemon()


WORKLOADS = ("evaluate-cold", "evaluate-supervised", "incremental-edit",
             "serve-vet")


def make(name: str, ctx: Context) -> Workload:
    if name == "evaluate-cold":
        return Evaluate(ctx, supervised=False)
    if name == "evaluate-supervised":
        return Evaluate(ctx, supervised=True)
    if name == "incremental-edit":
        return IncrementalEdit(ctx)
    if name == "serve-vet":
        return ServeVet(ctx)
    raise ValueError("unknown workload %r" % name)
