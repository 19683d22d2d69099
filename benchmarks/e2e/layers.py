"""Per-layer wall-time accounting, installed from outside the program.

:class:`Tracer` wraps the public functions each layer is entered
through (the table below) and keeps, per thread, a stack of open calls.
When a call returns, its duration minus the time its wrapped children
took is added to its layer's *self time*, so the self times of all
layers never overlap and add up to the time spent inside any wrapped
call.  Whatever a workload spends outside every wrapped call is its
``unattributed_s``.

Hot leaves (configuration reads, wire frames, RPCs, simulation
callbacks, executions, cache lookups) only bump per-thread counters.
Coarse calls also record a span (name, start, end, parent, request) that
is kept in memory and written out once the run ends.

Nothing here edits the program: wrappers replace module and class
attributes at run time, including every ``from x import f`` copy found
in an already-imported ``repro`` module.  Forked children switch
recording off (``os.register_at_fork``), so a supervised campaign's
trace is the parent's view: worker compute shows up as
``supervise.wait_s``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in report order.  ``service`` and ``jobqueue`` are timed by the
#: HTTP client in the bench process, not by wrappers.
LAYERS = ("simulation", "apps", "configuration", "confagent", "wire", "ipc",
          "runner", "pooling", "testgen", "triage", "prerun", "execcache",
          "store", "plan", "checkpoint", "supervise", "orchestrator",
          "report", "service", "jobqueue")

#: Layers whose calls are too frequent for spans.
HOT_LAYERS = frozenset(("simulation", "apps", "configuration", "confagent",
                        "wire", "ipc", "runner", "testgen", "execcache"))

#: (layer, module, qualified attribute, extra).  ``extra`` names a
#: counter bumped per call (``.appends``) or an inclusive timer (``_s``).
TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("simulation", "repro.common.simulation", "Simulator.run", None),
    ("configuration", "repro.common.configuration", "Configuration.get", None),
    ("configuration", "repro.common.configuration",
     "Configuration.get_bool", None),
    ("configuration", "repro.common.configuration",
     "Configuration.get_int", None),
    ("configuration", "repro.common.configuration",
     "Configuration.get_float", None),
    ("configuration", "repro.common.configuration",
     "Configuration.get_str", None),
    ("configuration", "repro.common.configuration",
     "Configuration.get_enum", None),
    ("confagent", "repro.core.confagent", "ConfAgent.intercept_get", None),
    ("wire", "repro.common.wire", "roundtrip_payload", None),
    ("wire", "repro.common.wire", "encode_payload", None),
    ("wire", "repro.common.wire", "decode_payload", None),
    ("wire", "repro.common.wire", "transfer", None),
    ("ipc", "repro.common.ipc", "RpcClient.call", None),
    ("ipc", "repro.common.ipc", "IpcComponent.check_connection_params", None),
    ("runner", "repro.core.runner", "TestRunner.execute", None),
    ("runner", "repro.core.runner", "TestRunner.evaluate", None),
    ("runner", "repro.core.runner", "TestRunner.confirm", None),
    ("pooling", "repro.core.pooling", "PooledTester.run", None),
    # Campaigns build instances through value_pairs/assignment;
    # instances_for_test is the same generator's one-call form.
    ("testgen", "repro.core.testgen", "TestGenerator.value_pairs", None),
    ("testgen", "repro.core.testgen", "TestGenerator.assignment", None),
    ("testgen", "repro.core.testgen", "TestGenerator.instances_for_test",
     None),
    ("triage", "repro.core.triage", "triage_report", None),
    ("prerun", "repro.core.prerun", "prerun_corpus", None),
    ("execcache", "repro.core.execcache", "ExecutionCache.lookup", None),
    ("execcache", "repro.core.execcache", "ExecutionCache.store", None),
    ("execcache", "repro.core.store", "StoreBackedExecutionCache.lookup",
     None),
    ("execcache", "repro.core.store", "StoreBackedExecutionCache.store",
     None),
    ("store", "repro.core.store", "ResultStore.open", "store.open_s"),
    ("store", "repro.core.store", "ResultStore.lookup_entry", None),
    ("store", "repro.core.store", "ResultStore.lookup_profile", None),
    ("store", "repro.core.store", "ResultStore.profile_for_test", None),
    ("store", "repro.core.store", "ResultStore.append_entry",
     "store.appends"),
    ("store", "repro.core.store", "ResultStore.append_profile",
     "store.appends"),
    ("store", "repro.core.store", "ResultStore.put_report", "store.appends"),
    ("plan", "repro.core.plan", "build_plan", None),
    ("checkpoint", "repro.core.checkpoint",
     "CampaignCheckpoint.record_test_done", "checkpoint.appends"),
    ("checkpoint", "repro.core.checkpoint", "CampaignCheckpoint.record_plan",
     "checkpoint.appends"),
    ("checkpoint", "repro.core.checkpoint", "CampaignCheckpoint.load", None),
    ("checkpoint", "repro.core.checkpoint", "CampaignCheckpoint.restore_test",
     None),
    ("supervise", "repro.core.supervise", "run_profiles_parallel", None),
    ("orchestrator", "repro.core.orchestrator", "Campaign.run", None),
    ("report", "repro.core.report", "app_report_to_dict", None),
    ("report", "repro.core.report", "campaign_report_to_dict", None),
    ("report", "repro.core.reportmd", "app_report_markdown", None),
    ("report", "repro.core.reportmd", "campaign_report_markdown", None),
)

#: Modules imported before patching, so that every alias exists by then.
_PRELOAD = ("repro.cli", "repro.core.service", "repro.core.jobqueue",
            "repro.core.supervise", "repro.core.reportmd", "repro.core.store",
            "repro.core.plan", "repro.core.audit", "repro.core.distrib")

_LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}


class _Accumulators:
    """One thread's open-call stack and accumulators."""

    def __init__(self) -> None:
        #: open calls, innermost last: [child seconds, span id, layer].
        self.stack: List[List[Any]] = []
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.extra: Dict[str, float] = {}


class _ThreadState(threading.local):
    """Points each thread at its own :class:`_Accumulators`, registered
    so that :meth:`Tracer.snapshot` can sum over every thread."""

    def __init__(self, registry: List[_Accumulators]) -> None:
        self.acc = _Accumulators()
        registry.append(self.acc)


class Tracer:
    """Installs the layer wrappers and accumulates what they measure."""

    def __init__(self) -> None:
        self.enabled = False
        #: request id stamped on spans (the thread name when None).
        self.request: Optional[Any] = None
        self.spans: List[Dict[str, Any]] = []
        self._states: List[_Accumulators] = []
        self._local = _ThreadState(self._states)
        self._span_ids = itertools.count(1)
        self._installed = False

    # -- installation --------------------------------------------------
    def install(self) -> "Tracer":
        """Patch every target (once per process) and start recording."""
        if not self._installed:
            import importlib

            for name in _PRELOAD:
                importlib.import_module(name)
            from repro.core.registry import load_all_suites
            load_all_suites()
            replaced: Dict[int, Callable[..., Any]] = {}
            for layer, module_name, qualname, extra in TARGETS:
                owner, attr = _resolve(sys.modules[module_name], qualname)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, layer, qualname, extra)
                setattr(owner, attr, wrapper)
                replaced[id(original)] = wrapper
            _patch_aliases(replaced)
            self._wrap_schedule()
            self._wrap_supervisor_wait()
            os.register_at_fork(after_in_child=self._forked)
            self._installed = True
        self.enabled = True
        return self

    def _forked(self) -> None:
        self.enabled = False

    def _wrap(self, fn: Callable[..., Any], layer: str, name: str,
              extra: Optional[str]) -> Callable[..., Any]:
        index = _LAYER_INDEX[layer]
        local = self._local
        perf = time.perf_counter
        tracer = self
        spanned = layer not in HOT_LAYERS
        inclusive = extra is not None and extra.endswith("_s")

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            acc = local.acc
            stack = acc.stack
            span_id = next(tracer._span_ids) if spanned else None
            frame = [0.0, span_id, index]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                acc.self_s[index] += elapsed - frame[0]
                acc.calls[index] += 1
                if stack:
                    stack[-1][0] += elapsed
                if extra is not None:
                    acc.extra[extra] = (acc.extra.get(extra, 0)
                                        + (elapsed if inclusive else 1))
                if spanned:
                    tracer._record_span(span_id, stack, name, layer,
                                        start, end)

        return wrapper

    def _record_span(self, span_id: int, stack: List[List[Any]], name: str,
                     layer: str, start: float, end: float) -> None:
        parent = next((frame[1] for frame in reversed(stack)
                       if frame[1] is not None), None)
        request = self.request
        if request is None:
            request = threading.current_thread().name
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "layer": layer, "start": start, "end": end,
                           "request": request})

    def _wrap_schedule(self) -> None:
        """Time every callback the simulation kernel fires as ``apps``."""
        from repro.common.simulation import Simulator

        def fire(callback: Callable[..., Any], *args: Any) -> Any:
            return callback(*args)

        timed = self._wrap(fire, "apps", "callback", None)
        original = Simulator.schedule
        tracer = self

        @functools.wraps(original)
        def schedule(sim: Any, delay: float, callback: Callable[..., Any],
                     *args: Any) -> Any:
            if not tracer.enabled:
                return original(sim, delay, callback, *args)
            return original(sim, delay, timed, callback, *args)

        Simulator.schedule = schedule

    def _wrap_supervisor_wait(self) -> None:
        """Time the supervisor's blocking wait on its worker pipes."""
        from multiprocessing import connection

        original = connection.wait
        local = self._local
        supervise = _LAYER_INDEX["supervise"]
        perf = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wait(*args: Any, **kwargs: Any) -> Any:
            acc = local.acc
            if not (tracer.enabled and acc.stack
                    and acc.stack[-1][2] == supervise):
                return original(*args, **kwargs)
            start = perf()
            try:
                return original(*args, **kwargs)
            finally:
                acc.extra["supervise.wait_s"] = (
                    acc.extra.get("supervise.wait_s", 0.0) + perf() - start)

        connection.wait = wait

    # -- reading -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Accumulators summed over every thread that recorded."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        extra: Dict[str, float] = {}
        for state in list(self._states):
            for index, layer in enumerate(LAYERS):
                calls[layer] += state.calls[index]
                self_s[layer] += state.self_s[index]
            for key, value in state.extra.items():
                extra[key] = extra.get(key, 0) + value
        return {"calls": calls, "self_s": self_s, "extra": extra}

    def dump(self, path: str) -> None:
        """Write the snapshot and the spans to ``path`` (one JSON file)."""
        record = self.snapshot()
        record["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(record, handle)


def _resolve(module: Any, qualname: str) -> Tuple[Any, str]:
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _patch_aliases(replaced: Dict[int, Callable[..., Any]]) -> None:
    """Rebind ``from x import f`` copies held by other repro modules."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and wrapper is not value:
                setattr(module, attr, wrapper)


def merge(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several snapshots (one per traced process)."""
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    extra: Dict[str, float] = {}
    for snap in snapshots:
        for layer in LAYERS:
            calls[layer] += snap["calls"].get(layer, 0)
            self_s[layer] += snap["self_s"].get(layer, 0.0)
        for key, value in snap["extra"].items():
            extra[key] = extra.get(key, 0) + value
    return {"calls": calls, "self_s": self_s, "extra": extra}
