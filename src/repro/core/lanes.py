"""Application lanes: the full evaluation's campaigns side by side.

The paper's evaluation is six independent per-application campaigns
(ZebraConf spread them over a 100-machine cluster).  Applications share
no blacklist tracker, execution cache, plan, registry or corpus, so
running whole applications in parallel cannot change any finding: each
:class:`~repro.core.orchestrator.Campaign` is a pure function of its
own inputs, and the reports are put back in catalog order.

:func:`run_in_lanes` forks ``lanes`` worker processes after the
campaigns are built (every suite is imported once, in the parent, and
shared copy-on-write).  Each idle lane is handed the next application,
largest corpus first; it runs ``Campaign.run()`` and pipes back the
pickled :class:`~repro.core.report.AppReport`, observation included.

:func:`lane_count` picks the number of lanes from facts the code can
see; ``1`` means "run in-process, one app after another":

* ``fork`` must be available, at least two CPUs usable, and the caller
  single-threaded (a fork copies locks other threads may hold);
* ``workers == 1`` — otherwise the profile pool already owns the cores;
* the config must hold nothing that lives in the caller's process or
  depends on the order apps run in: a progress stream or hook, a cancel
  event, a ``distributed`` listen address (one coordinator), or an
  active disk fault plan (faults are keyed by store segment name, which
  would depend on lane timing).

Failure handling: an exception inside a lane is re-raised in the parent
with the same type and message, for the first failing app in catalog
order (apps after it are not started, as in the serial loop).  A lane
that dies without reporting has its app re-run in-process — findings
are a pure function of the inputs, so the report is the same.  Lanes
poll their parent pid and exit within a fraction of a second of the
parent's death, so a SIGKILLed ``repro evaluate`` leaves no orphans.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection
from typing import Any, Dict, List, Optional, Sequence

from repro.core import parallel

#: how often a lane checks that its parent is still alive.
_PARENT_POLL_S = 0.2


def lane_count(config: Any, apps: int) -> int:
    """Lanes to run ``apps`` campaigns under ``config`` (1 = in-process)."""
    disk_faults = config.disk_fault_plan
    if (not parallel.fork_available() or config.workers != 1
            # a fork copies whatever locks other threads hold
            or threading.active_count() > 1
            or config.progress_stream is not None
            or config.progress_hook is not None
            or config.cancel_event is not None
            or config.distributed is not None
            or (disk_faults is not None and disk_faults.active)):
        return 1
    return max(1, min(parallel.usable_cpus(), apps))


class _RemoteTraceback(Exception):
    """Carries a lane's formatted traceback as the re-raised error's cause."""

    def __str__(self) -> str:
        return "\n\n" + self.args[0]


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError
    naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any unpicklable exception
        return RuntimeError("%s: %s" % (type(exc).__name__, exc))
    return exc


def _watch_parent(parent_pid: int) -> None:
    while True:
        time.sleep(_PARENT_POLL_S)
        if os.getppid() != parent_pid:
            os._exit(0)


def _lane_main(conn: Any, inherited: List[Any], parent_pid: int,
               campaigns: Sequence[Any]) -> None:
    """Forked lane: recv app indices, run campaigns, send reports."""
    # Close fork-inherited copies of the parent's pipe ends, so that the
    # parent's death reaches an idle lane's recv() as EOF.
    for other in inherited:
        other.close()
    # Ctrl-C reaches the whole process group; the parent owns teardown.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_watch_parent, args=(parent_pid,),
                     name="parent-watch", daemon=True).start()
    while True:
        try:
            index = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if index is None:
            break
        try:
            message = ("report", campaigns[index].run())
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            message = ("error", (_portable(exc), traceback.format_exc()))
        try:
            conn.send(message)
        except OSError:
            os._exit(0)
    conn.close()


class _Lane:
    """One forked lane, its pipe, and the app index it is running."""

    def __init__(self, conn: Any, proc: Any) -> None:
        self.conn = conn
        self.proc = proc
        self.index: Optional[int] = None


def run_in_lanes(campaigns: Sequence[Any], lanes: int) -> List[Any]:
    """Run every campaign in ``lanes`` forked processes; reports come back
    in ``campaigns`` order."""
    queue = deque(sorted(range(len(campaigns)),
                         key=lambda i: (-len(campaigns[i].tests), i)))
    reports: Dict[int, Any] = {}
    errors: Dict[int, Any] = {}
    unfinished: List[int] = []
    context = multiprocessing.get_context("fork")
    workers: List[_Lane] = []

    def retire(lane: _Lane) -> None:
        workers.remove(lane)
        lane.proc.join(timeout=5.0)
        lane.conn.close()

    def dispatch(lane: _Lane) -> None:
        # After a failure, apps later in catalog order are never started:
        # the serial loop would not have reached them.
        while queue:
            index = queue.popleft()
            if errors and index > min(errors):
                continue
            try:
                lane.conn.send(index)
            except OSError:  # died while idle
                queue.appendleft(index)
                retire(lane)
                return
            lane.index = index
            return

    try:
        for _ in range(lanes):
            parent_conn, child_conn = context.Pipe(duplex=True)
            inherited = [lane.conn for lane in workers] + [parent_conn]
            proc = context.Process(
                target=_lane_main,
                args=(child_conn, inherited, os.getpid(), campaigns),
                name="repro-lane-%d" % len(workers), daemon=True)
            proc.start()
            child_conn.close()
            workers.append(_Lane(parent_conn, proc))
        for lane in list(workers):
            dispatch(lane)
        while True:
            busy = {lane.conn: lane for lane in workers
                    if lane.index is not None}
            if not busy:
                break
            for conn in connection.wait(list(busy)):
                lane = busy[conn]
                index, lane.index = lane.index, None
                try:
                    kind, payload = conn.recv()
                except Exception:  # noqa: BLE001 - died or sent garbage
                    unfinished.append(index)
                    retire(lane)
                    continue
                if kind == "report":
                    reports[index] = payload
                else:
                    errors[index] = payload
                dispatch(lane)
    finally:
        for lane in workers:
            try:
                lane.conn.send(None)
            except OSError:
                pass
        for lane in workers:
            lane.proc.join(timeout=1.0)
            if lane.proc.is_alive():
                lane.proc.kill()
                lane.proc.join(timeout=5.0)
            lane.conn.close()

    for index in sorted(unfinished + list(queue)):
        if errors and index > min(errors):
            break
        try:
            reports[index] = campaigns[index].run()
        except Exception as exc:  # noqa: BLE001 - ordered below
            errors[index] = (exc, None)
    if errors:
        exc, remote = errors[min(errors)]
        if remote is not None:
            raise exc from _RemoteTraceback(remote)
        raise exc
    return [reports[index] for index in range(len(campaigns))]
