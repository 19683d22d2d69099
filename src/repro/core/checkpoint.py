"""Campaign checkpoint/resume: a JSONL journal of finished work.

A full campaign is hours of modelled machine time; a crash near the end
used to mean starting over.  :class:`CampaignCheckpoint` journals results
to an append-only JSON Lines file as they are produced, and a restarted
campaign pointed at the same file skips everything already finished.

Four record kinds appear in a journal:

* ``header``    — one per (app, campaign start): the settings that shape
  results.  A resume whose settings disagree with the journal would
  silently mix incompatible verdicts, so it is refused instead.
* ``plan``      — the incremental campaign plan (repro.core.plan) frozen
  at first run.  A resumed ``--incremental`` campaign replays this plan
  instead of replanning: the interrupted run already appended fresh
  profile records to the store, so replanning would silently reclassify
  its RERUN/NEW work as REUSE and change the journaled plan summary.
* ``instance``  — streamed as each singleton :class:`InstanceResult`
  completes.  Pure audit trail: it shows how far an interrupted test got,
  but partially-journaled tests are re-run in full on resume.
* ``test-done`` — one per finished unit-test profile (the campaign's
  parallelism granule): the serialized results plus the pool statistics
  and execution counts needed to rebuild the test's contribution to the
  final report bit-for-bit.

Only ``test-done`` records are authoritative.  Restoring at the test
granularity keeps resume correct for pooled testing, where a passing
pool clears many parameters while producing *no* InstanceResults — an
instance-level journal could not tell "pool passed" from "pool never
ran".
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ReproError
from repro.core.pooling import PoolStats
from repro.core.registry import UnitTest
from repro.core.runner import InstanceResult
from repro.core.stats import TrialTally
from repro.core.testgen import (HeteroAssignment, ParamAssignment,
                                TestInstance)


class CheckpointError(ReproError):
    """The journal is unusable for this campaign (settings mismatch)."""


# ---------------------------------------------------------------------------
# InstanceResult <-> JSON
# ---------------------------------------------------------------------------
def _assignment_to_dict(assignment: ParamAssignment) -> Dict[str, Any]:
    return {
        "param": assignment.param,
        "group": assignment.group,
        "group_values": list(assignment.group_values),
        "other_value": assignment.other_value,
        "pinned": [list(pair) for pair in assignment.pinned],
    }


def _assignment_from_dict(record: Mapping[str, Any]) -> ParamAssignment:
    return ParamAssignment(
        param=record["param"],
        group=record["group"],
        group_values=tuple(record["group_values"]),
        other_value=record["other_value"],
        pinned=tuple((name, value) for name, value in record["pinned"]))


def result_to_dict(result: InstanceResult) -> Dict[str, Any]:
    instance = result.instance
    tally = result.tally
    return {
        "test": instance.test.full_name,
        "group": instance.group,
        "strategy": instance.strategy,
        "assignment": [_assignment_to_dict(a)
                       for a in instance.assignment.assignments],
        "verdict": result.verdict,
        "hetero_error": result.hetero_error,
        "executions": result.executions,
        "tally": None if tally is None else [
            tally.hetero_failures, tally.hetero_trials,
            tally.homo_failures, tally.homo_trials],
    }


def result_from_dict(record: Mapping[str, Any],
                     tests_by_name: Mapping[str, UnitTest]) -> InstanceResult:
    """Rebuild an :class:`InstanceResult` around the *live* UnitTest.

    Triage and rendering read test metadata (realistic, observability,
    strict assertions), so the restored instance must reference the real
    corpus entry, not a stub deserialized from JSON.
    """
    test = tests_by_name.get(record["test"])
    if test is None:
        raise CheckpointError("journaled test %r is not in this campaign's "
                              "corpus" % record["test"])
    assignment = HeteroAssignment(tuple(
        _assignment_from_dict(a) for a in record["assignment"]))
    instance = TestInstance(test=test, group=record["group"],
                            strategy=record["strategy"], assignment=assignment)
    raw_tally = record["tally"]
    tally = None
    if raw_tally is not None:
        hf, ht, jf, jt = raw_tally
        tally = TrialTally(hetero_failures=hf, hetero_trials=ht,
                           homo_failures=jf, homo_trials=jt)
    return InstanceResult(instance=instance, verdict=record["verdict"],
                          hetero_error=record["hetero_error"], tally=tally,
                          executions=record["executions"])


# ---------------------------------------------------------------------------
# the journal
# ---------------------------------------------------------------------------
def fsync_directory(path: str) -> None:
    """fsync the directory containing ``path``.

    ``os.fsync`` on a file handle makes the *contents* durable, but the
    directory entry naming a freshly created file lives in the directory
    inode — until that is synced, a crash can leave a journal whose data
    reached disk under a name that never did.  Called once per journal
    file creation/rotation, not per append.
    """
    parent = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic fs without dir opens
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs refuses directory fsync
        pass
    finally:
        os.close(fd)


class CampaignCheckpoint:
    """Append-only JSONL journal shared by one or more app campaigns.

    Thread- and process-compatible: each record is one ``os.write`` on
    an ``O_APPEND`` descriptor, so concurrent writers never interleave,
    and a crash leaves at most one torn line (which :meth:`load` skips).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        #: test full name -> its authoritative ``test-done`` record.
        self._done: Dict[str, Dict[str, Any]] = {}
        #: app -> journaled ``header`` record.
        self._headers: Dict[str, Dict[str, Any]] = {}
        #: app -> journaled ``plan`` payload (repro.core.plan dict).
        self._plans: Dict[str, Dict[str, Any]] = {}
        #: tests that have streamed ``instance`` lines but no test-done.
        self.partial_tests: Dict[str, int] = {}

    # -- reading -------------------------------------------------------
    def load(self) -> int:
        """Read the journal; returns the number of finished tests found."""
        self._done.clear()
        self._headers.clear()
        self._plans.clear()
        self.partial_tests.clear()
        if not os.path.exists(self.path):
            return 0
        # errors="replace": a crash mid-append can leave raw garbage bytes
        # (not just a truncated JSON line) at the tail; undecodable bytes
        # become U+FFFD, json.loads refuses them, and the line is skipped
        # instead of load() blowing up.
        with open(self.path, errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    # A torn write from a crashed run.  Appends always
                    # start on a fresh line, so the lines after it come
                    # from resumed runs that passed check_header.
                    continue
                kind = record.get("kind")
                if kind == "header":
                    self._headers[record["app"]] = record
                elif kind == "plan":
                    self._plans[record["app"]] = record.get("plan", {})
                elif kind == "instance":
                    name = record["test"]
                    if name not in self._done:
                        self.partial_tests[name] = \
                            self.partial_tests.get(name, 0) + 1
                elif kind == "test-done":
                    self._done[record["test"]] = record
                    self.partial_tests.pop(record["test"], None)
        return len(self._done)

    def check_header(self, app: str, settings: Mapping[str, Any]) -> None:
        """Refuse to resume under different campaign settings.

        ``settings`` must be JSON-serializable; comparison happens on the
        JSON round-trip so tuples/lists compare equal.
        """
        canonical = json.loads(json.dumps(dict(settings)))
        existing = self._headers.get(app)
        if existing is not None:
            journaled = {k: v for k, v in existing.items()
                         if k not in ("kind", "app")}
            if journaled != canonical:
                raise CheckpointError(
                    "checkpoint %s was written by a campaign with different "
                    "settings (journaled %r, current %r); use a fresh "
                    "checkpoint path" % (self.path, journaled, canonical))
            return
        self._append(dict(canonical, kind="header", app=app))
        self._headers[app] = dict(canonical, kind="header", app=app)

    def has_test(self, test_name: str) -> bool:
        return test_name in self._done

    def plan_record(self, app: str) -> Optional[Dict[str, Any]]:
        """The journaled incremental plan for ``app`` (None = not planned
        yet, or the journal predates planning)."""
        return self._plans.get(app)

    def record_plan(self, app: str, plan: Mapping[str, Any]) -> None:
        """Freeze the incremental plan into the journal (first run only;
        resumes replay it via :meth:`plan_record`)."""
        payload = json.loads(json.dumps(dict(plan)))
        self._append({"kind": "plan", "app": app, "plan": payload})
        self._plans[app] = payload

    @property
    def finished_tests(self) -> List[str]:
        return sorted(self._done)

    def restore_test(self, test_name: str,
                     tests_by_name: Mapping[str, UnitTest]
                     ) -> Tuple[List[InstanceResult], PoolStats, int,
                                Dict[str, int], int, str, str]:
        """Rebuild one finished test's contribution to the campaign."""
        record = self._done[test_name]
        results = [result_from_dict(r, tests_by_name)
                   for r in record["results"]]
        stats = PoolStats(**record["pool_stats"])
        fault_counts = {str(k): int(v)
                        for k, v in record.get("fault_counts", {}).items()}
        return (results, stats, int(record["executions"]), fault_counts,
                int(record.get("retries", 0)), record.get("error", ""),
                record.get("error_kind", ""))

    # -- writing -------------------------------------------------------
    def record_instance(self, result: InstanceResult) -> None:
        self._append(dict(result_to_dict(result), kind="instance"))

    def record_test_done(self, test_name: str, results: List[InstanceResult],
                         stats: PoolStats, executions: int,
                         fault_counts: Optional[Dict[str, int]] = None,
                         retries: int = 0, error: str = "",
                         error_kind: str = "") -> None:
        record = {
            "kind": "test-done",
            "test": test_name,
            "results": [result_to_dict(r) for r in results],
            "pool_stats": asdict(stats),
            "executions": executions,
            "fault_counts": dict(fault_counts or {}),
            "retries": retries,
            "error": error,
            "error_kind": error_kind,
        }
        self._append(record)
        self._done[test_name] = record

    def _append(self, record: Dict[str, Any]) -> None:
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            creating = not os.path.exists(self.path)
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT,
                         0o666)
            try:
                # A crash mid-append leaves a line with no newline; start
                # on a fresh line, or this record would be glued onto it.
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    data = b"\n" + data
                # One write per record on an O_APPEND descriptor: records
                # from concurrent processes (application lanes sharing a
                # journal) never interleave.
                while data:
                    data = data[os.write(fd, data):]
                os.fsync(fd)
            finally:
                os.close(fd)
            if creating:
                # The first append creates the file; without a directory
                # fsync the new name itself is not yet durable.
                fsync_directory(self.path)
