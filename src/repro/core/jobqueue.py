"""Multi-campaign job queue behind ``repro serve`` (docs/SERVICE.md).

The queue turns one-shot CLI campaigns into *jobs*: named, persistent,
cancellable units of work that survive a daemon crash.  It is the thin
scheduling layer between the HTTP front end (repro.core.service) and the
existing orchestrator — every job is an ordinary
:class:`repro.core.orchestrator.Campaign` run with

* a **checkpoint journal keyed by the spec digest** (not the job id), so
  a cancelled or crashed job — or a brand-new job with a byte-identical
  spec — resumes from whatever profiles are already journaled;
* the daemon's shared **result store** (``--store``), so an identical
  resubmission is served warm (strictly fewer executions, byte-identical
  findings — the store's own contract);
* a ``progress_hook`` streaming one NDJSON event per committed profile
  into ``events.jsonl`` (served by ``GET /v1/campaigns/{id}/events``);
* a ``cancel_event`` so ``DELETE /v1/campaigns/{id}`` stops the campaign
  between profiles while keeping the journal resumable.

Scheduling is FIFO with a bounded number of concurrently running jobs
(``--serve-max-active``).  Two safety constraints may let a younger job
overtake a blocked head-of-line job: (1) jobs with the *same spec
digest* never run concurrently (they would share one checkpoint
journal), and (2) jobs whose ``disable_ipc_sharing`` setting differs
from the currently running set wait (the IPC-sharing switch is process
global).

On-disk layout under the daemon's ``--serve-state DIR``::

    jobs/<id>/spec.json    # canonical spec, written once at submit
    jobs/<id>/status.json  # atomic (tmp+rename+fsync) state record
    jobs/<id>/events.jsonl # append-only NDJSON progress/lifecycle feed
    jobs/<id>/report.json  # byte-identical to `repro campaign --json`
    jobs/<id>/report.md    # byte-identical to `repro campaign --markdown`
    checkpoints/<digest>.jsonl  # the orchestrator's own journal format

``status.json`` is the authoritative record (fsync'd on every
transition); ``events.jsonl`` is a best-effort feed that can always be
re-derived by re-running.  A daemon restarted on the same state
directory re-queues every job found ``queued`` or ``running`` and keeps
serving the reports of finished ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.core.checkpoint import CheckpointError, fsync_directory
from repro.core.orchestrator import (Campaign, CampaignCancelled,
                                     CampaignConfig)

#: job lifecycle states (see docs/SERVICE.md for the transition diagram).
SUBMITTED = "submitted"
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (SUBMITTED, QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: states a job can never leave.
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))

#: fault-probability override keys accepted in a spec's ``faults`` map,
#: mirroring the CLI's --fault-* flags (repro.common.faults.FaultPlan).
FAULT_KEYS = {
    "drop": "drop_prob",
    "delay": "delay_prob",
    "duplicate": "duplicate_prob",
    "crash": "crash_prob",
    "slow_io": "io_slowdown_prob",
    "clock_jitter": "clock_jitter",
    "infra": "infra_error_prob",
    "worker_crash": "worker_crash_prob",
}

#: campaign-spec schema: key -> (default, type tag).  Type tags: "bool",
#: "int", "float?" (optional float), "int?" (optional int), "str?"
#: (optional string), "params" (optional list of parameter names),
#: "faults" (mapping of FAULT_KEYS to probabilities), "choice:..." and
#: "choice?:..." (nullable choice).
#: Kept flat and explicit so docs/SERVICE.md can state it verbatim.
SPEC_SCHEMA: Dict[str, Tuple[Any, str]] = {
    "app": (None, "app"),
    "params": (None, "params"),
    "workers": (1, "int"),
    "schedule": ("lpt", "choice:lpt,catalog"),
    "exec_cache": (False, "bool"),
    "store": (True, "bool"),
    "incremental": (False, "bool"),
    "sample": (None, "choice?:pairwise,random-k,dissimilarity"),
    "sample_k": (None, "int?"),
    "sample_seed": (0, "int"),
    "audit": (False, "bool"),
    "pool_size": (None, "int?"),
    "blacklist_threshold": (3, "int"),
    "disable_ipc_sharing": (False, "bool"),
    "infra_retries": (2, "int"),
    "watchdog": (None, "float?"),
    "chaos": (False, "bool"),
    "fault_seed": (0, "int"),
    "faults": (None, "faults"),
    "distributed": (None, "str?"),
}


class JobSpecError(ValueError):
    """A submitted campaign spec failed validation (HTTP 400)."""


def canonical_spec(spec: Any) -> Dict[str, Any]:
    """Validate a submitted spec and return its canonical form.

    The canonical form has every key of :data:`SPEC_SCHEMA` present (so
    defaults are pinned at submission time), ``params`` sorted, and no
    unknown keys — it is what gets digested, journaled against, and
    echoed back by the status endpoint.  Raises :class:`JobSpecError`
    with a human-readable message on any problem.
    """
    from repro.apps import catalog
    if not isinstance(spec, dict):
        raise JobSpecError("spec must be a JSON object")
    unknown = sorted(set(spec) - set(SPEC_SCHEMA))
    if unknown:
        raise JobSpecError("unknown spec key(s): %s" % ", ".join(unknown))
    out: Dict[str, Any] = {}
    for key, (default, kind) in SPEC_SCHEMA.items():
        value = spec.get(key, default)
        if kind == "app":
            if value not in catalog.APP_NAMES:
                raise JobSpecError(
                    "app must be one of %s" % ", ".join(catalog.APP_NAMES))
        elif kind == "bool":
            if not isinstance(value, bool):
                raise JobSpecError("%s must be a boolean" % key)
        elif kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise JobSpecError("%s must be an integer" % key)
        elif kind == "int?":
            if value is not None and (not isinstance(value, int)
                                      or isinstance(value, bool)):
                raise JobSpecError("%s must be an integer or null" % key)
        elif kind == "float?":
            if value is not None and not isinstance(value, (int, float)):
                raise JobSpecError("%s must be a number or null" % key)
            if value is not None:
                value = float(value)
        elif kind == "str?":
            if value is not None and not isinstance(value, str):
                raise JobSpecError("%s must be a string or null" % key)
        elif kind == "params":
            if value is not None:
                if (not isinstance(value, list)
                        or not all(isinstance(p, str) for p in value)):
                    raise JobSpecError(
                        "params must be a list of parameter names")
                value = sorted(set(value))
        elif kind == "faults":
            if value is not None:
                if not isinstance(value, dict):
                    raise JobSpecError("faults must be an object")
                bad = sorted(set(value) - set(FAULT_KEYS))
                if bad:
                    raise JobSpecError(
                        "unknown fault key(s): %s (known: %s)"
                        % (", ".join(bad), ", ".join(sorted(FAULT_KEYS))))
                for name, prob in value.items():
                    if not isinstance(prob, (int, float)):
                        raise JobSpecError("faults.%s must be a number"
                                           % name)
                value = {k: float(v) for k, v in sorted(value.items())}
        elif kind.startswith("choice?:"):
            choices = kind.split(":", 1)[1].split(",")
            if value is not None and value not in choices:
                raise JobSpecError("%s must be null or one of %s"
                                   % (key, ", ".join(choices)))
        elif kind.startswith("choice:"):
            choices = kind.split(":", 1)[1].split(",")
            if value not in choices:
                raise JobSpecError("%s must be one of %s"
                                   % (key, ", ".join(choices)))
        out[key] = value
    if out["incremental"] and not out["store"]:
        raise JobSpecError("incremental requires store: true (the plan is "
                           "a diff against stored profile records)")
    return out


def spec_digest(spec: Dict[str, Any]) -> str:
    """Content digest of a canonical spec (the checkpoint-journal key)."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def _fault_plan_from_spec(spec: Dict[str, Any]) -> Optional[Any]:
    """Mirror of the CLI's --chaos/--fault-* flag handling."""
    from dataclasses import replace

    from repro.common.faults import FaultPlan
    base = (FaultPlan.moderate(spec["fault_seed"]) if spec["chaos"]
            else FaultPlan(seed=spec["fault_seed"]))
    overrides = {FAULT_KEYS[name]: prob
                 for name, prob in (spec["faults"] or {}).items()}
    plan = replace(base, **overrides) if overrides else base
    return plan if plan.active else None


def _write_json_atomic(path: str, record: Dict[str, Any]) -> None:
    """Durable single-file update: temp file, fsync, rename, dir fsync."""
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(os.path.dirname(path))


class CampaignJob:
    """One submitted campaign: spec + lifecycle state + artifacts.

    All mutable fields are guarded by the owning queue's lock; the
    service layer only reads them through :class:`JobQueue` accessors.
    """

    def __init__(self, job_id: str, spec: Dict[str, Any], root: str) -> None:
        self.id = job_id
        self.spec = spec
        self.digest = spec_digest(spec)
        self.root = root
        self.state = SUBMITTED
        self.error = ""
        self.cancel_requested = False
        self.cancel_event = threading.Event()
        #: in-memory copy of events.jsonl (replayed to stream clients).
        self.events: List[Dict[str, Any]] = []
        #: latest orchestrator progress snapshot (None before the first
        #: profile commit).
        self.progress: Optional[Dict[str, Any]] = None

    # -- paths ---------------------------------------------------------
    def path(self, name: str) -> str:
        """A file path inside this job's state directory."""
        return os.path.join(self.root, name)

    def report_path(self, fmt: str) -> str:
        """Where the persisted report lives (``fmt``: json | markdown)."""
        return self.path("report.json" if fmt == "json" else "report.md")

    def has_report(self) -> bool:
        """True once the report artifacts have been durably written."""
        return os.path.exists(self.report_path("json"))

    # -- serialization -------------------------------------------------
    def status_record(self) -> Dict[str, Any]:
        """The persisted/served core status (what status.json holds)."""
        return {
            "id": self.id,
            "app": self.spec["app"],
            "spec_digest": self.digest,
            "state": self.state,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
        }


class JobQueue:
    """FIFO campaign scheduler with bounded concurrency and persistence.

    Lifecycle: construct, :meth:`start` (loads prior state and spawns the
    scheduler thread), then :meth:`submit`/:meth:`cancel`/accessors from
    any thread, and finally :meth:`stop`.  See the module docstring for
    the scheduling constraints and the on-disk layout.
    """

    def __init__(self, state_dir: str, store_path: Optional[str] = None,
                 max_active: int = 1, dist_secret: Optional[str] = None,
                 log: Optional[Any] = None) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.state_dir = state_dir
        self.store_path = store_path
        self.max_active = max_active
        self.dist_secret = dist_secret
        self.log = log
        self.jobs: Dict[str, CampaignJob] = {}
        self._pending: List[str] = []   # job ids, FIFO
        self._active: Dict[str, CampaignJob] = {}
        self._lock = threading.Lock()
        #: notified on every event append / state transition; the events
        #: endpoint and the scheduler both wait on it.
        self.changed = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._scheduler: Optional[threading.Thread] = None
        self._next_id = 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Load persisted jobs, re-queue unfinished ones, start scheduling."""
        os.makedirs(os.path.join(self.state_dir, "jobs"), exist_ok=True)
        os.makedirs(os.path.join(self.state_dir, "checkpoints"),
                    exist_ok=True)
        self._load()
        self._scheduler = threading.Thread(target=self._schedule_loop,
                                           name="jobqueue-scheduler",
                                           daemon=True)
        self._scheduler.start()

    def stop(self, cancel_active: bool = True) -> None:
        """Stop scheduling; optionally cancel running jobs (they stay
        resumable — a later daemon on the same state dir picks them up)."""
        with self.changed:
            self._stop.set()
            if cancel_active:
                for job in self._active.values():
                    job.cancel_requested = True
                    job.cancel_event.set()
            self.changed.notify_all()
        if self._scheduler is not None:
            self._scheduler.join(timeout=5.0)

    def _load(self) -> None:
        jobs_root = os.path.join(self.state_dir, "jobs")
        for name in sorted(os.listdir(jobs_root)):
            root = os.path.join(jobs_root, name)
            try:
                with open(os.path.join(root, "spec.json")) as handle:
                    raw = json.load(handle)
                if isinstance(raw, dict):
                    # an older daemon may have persisted keys since retired
                    raw = {key: value for key, value in raw.items()
                           if key in SPEC_SCHEMA}
                spec = canonical_spec(raw)
                with open(os.path.join(root, "status.json")) as handle:
                    status = json.load(handle)
            except (OSError, ValueError, JobSpecError):
                continue  # half-created job dir (crash mid-submit)
            job = CampaignJob(name, spec, root)
            job.state = status.get("state", QUEUED)
            job.error = status.get("error", "")
            job.cancel_requested = status.get("cancel_requested", False)
            job.events = self._load_events(job)
            for event in reversed(job.events):
                if event.get("event") == "progress":
                    job.progress = {k: v for k, v in event.items()
                                    if k not in ("event", "seq")}
                    break
            self.jobs[name] = job
            try:
                self._next_id = max(self._next_id, int(name.lstrip("c")) + 1)
            except ValueError:
                pass
            if job.state not in TERMINAL_STATES:
                # interrupted mid-flight (daemon crash): run it again —
                # the digest-keyed checkpoint journal makes that cheap.
                job.state = QUEUED
                job.cancel_requested = False
                self._persist(job)
                self._append_event(job, {"event": "state", "state": QUEUED,
                                         "reason": "requeued-on-restart"})
                self._pending.append(name)

    @staticmethod
    def _load_events(job: CampaignJob) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []
        try:
            with open(job.path("events.jsonl")) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        events.append(json.loads(line))
                    except ValueError:
                        break  # torn tail from a crash — drop the rest
        except OSError:
            pass
        return events

    # ------------------------------------------------------------------
    # public API (used by repro.core.service)
    # ------------------------------------------------------------------
    def submit(self, raw_spec: Any) -> CampaignJob:
        """Validate, persist, and enqueue one campaign submission."""
        spec = canonical_spec(raw_spec)
        with self.changed:
            job_id = "c%06d" % self._next_id
            self._next_id += 1
            root = os.path.join(self.state_dir, "jobs", job_id)
            os.makedirs(root, exist_ok=True)
            job = CampaignJob(job_id, spec, root)
            _write_json_atomic(job.path("spec.json"), spec)
            job.state = QUEUED
            self._persist(job)
            self._append_event(job, {"event": "state", "state": QUEUED})
            self.jobs[job_id] = job
            self._pending.append(job_id)
            self.changed.notify_all()
            return job

    def get(self, job_id: str) -> Optional[CampaignJob]:
        """The job with this id, or None."""
        with self._lock:
            return self.jobs.get(job_id)

    def list_jobs(self) -> List[CampaignJob]:
        """Every known job, id-ordered (submission order)."""
        with self._lock:
            return [self.jobs[name] for name in sorted(self.jobs)]

    def cancel(self, job_id: str) -> CampaignJob:
        """Request cancellation; returns the job (KeyError if unknown).

        A queued job is cancelled immediately; a running one raises
        CampaignCancelled at its next between-profile check and lands in
        ``cancelled`` shortly after.  Either way the digest-keyed journal
        keeps every committed profile, so resubmitting the same spec
        resumes instead of restarting.
        """
        with self.changed:
            job = self.jobs[job_id]
            if job.state in TERMINAL_STATES:
                return job
            job.cancel_requested = True
            job.cancel_event.set()
            if job.state in (SUBMITTED, QUEUED):
                if job_id in self._pending:
                    self._pending.remove(job_id)
                self._transition(job, CANCELLED)
            else:
                self._persist(job)
                self._append_event(job, {"event": "cancel-requested"})
            self.changed.notify_all()
            return job

    def events_since(self, job_id: str, index: int
                     ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events after ``index`` plus whether the job is terminal."""
        with self._lock:
            job = self.jobs[job_id]
            return list(job.events[index:]), job.state in TERMINAL_STATES

    def wait_for_change(self, timeout: float) -> None:
        """Block until any event/transition happens (or timeout)."""
        with self.changed:
            self.changed.wait(timeout)

    def checkpoint_path_for(self, digest: str) -> str:
        """The digest-keyed journal shared by all jobs with this spec."""
        return os.path.join(self.state_dir, "checkpoints",
                            digest + ".jsonl")

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _startable_locked(self) -> Optional[CampaignJob]:
        """First pending job that violates no concurrency constraint."""
        if len(self._active) >= self.max_active:
            return None
        active_digests = {j.digest for j in self._active.values()}
        ipc_modes = {j.spec["disable_ipc_sharing"]
                     for j in self._active.values()}
        for job_id in self._pending:
            job = self.jobs[job_id]
            if job.digest in active_digests:
                continue  # would share a checkpoint journal
            if ipc_modes and job.spec["disable_ipc_sharing"] not in ipc_modes:
                continue  # IPC-sharing switch is process-global
            return job
        return None

    def _schedule_loop(self) -> None:
        while not self._stop.is_set():
            with self.changed:
                job = self._startable_locked()
                if job is None:
                    self.changed.wait(0.2)
                    continue
                self._pending.remove(job.id)
                self._active[job.id] = job
                self._transition(job, RUNNING)
            thread = threading.Thread(target=self._run_job, args=(job,),
                                      name="job-%s" % job.id, daemon=True)
            thread.start()

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _config_for(self, job: CampaignJob) -> CampaignConfig:
        """Spec -> CampaignConfig, mirroring the CLI's ``_config``."""
        spec = job.spec
        config = CampaignConfig(
            workers=spec["workers"],
            schedule=spec["schedule"],
            exec_cache=spec["exec_cache"],
            store_path=self.store_path if spec["store"] else None,
            incremental=spec["incremental"],
            sample=spec["sample"],
            sample_k=spec["sample_k"],
            sample_seed=spec["sample_seed"],
            audit=spec["audit"],
            max_pool_size=spec["pool_size"],
            blacklist_threshold=spec["blacklist_threshold"],
            disable_ipc_sharing=spec["disable_ipc_sharing"],
            only_params=(frozenset(spec["params"]) if spec["params"]
                         else None),
            infra_retries=spec["infra_retries"],
            fault_plan=_fault_plan_from_spec(spec),
            distributed=spec["distributed"],
            dist_secret=self.dist_secret,
            checkpoint_path=self.checkpoint_path_for(job.digest),
            cancel_event=job.cancel_event,
            progress_hook=lambda snapshot, _job=job: self._on_progress(
                _job, snapshot))
        if spec["watchdog"] is not None:
            config.watchdog_sim_s = spec["watchdog"]
        return config

    def _run_job(self, job: CampaignJob) -> None:
        from repro.apps import catalog
        from repro.core.store import StoreError
        try:
            spec = catalog.spec_for(job.spec["app"])
            campaign = Campaign(job.spec["app"], spec.registry,
                                dependency_rules=spec.dependency_rules,
                                config=self._config_for(job))
            report = campaign.run()
            self._write_report(job, report)
            final, error = DONE, ""
        except CampaignCancelled:
            final, error = CANCELLED, ""
        except (CheckpointError, StoreError) as exc:
            final, error = FAILED, str(exc)
        except Exception:  # noqa: BLE001 - the daemon must survive
            final, error = FAILED, traceback.format_exc()
        with self.changed:
            self._active.pop(job.id, None)
            self._transition(job, final, error=error)
            self.changed.notify_all()
        if self.log is not None:
            print("job %s (%s): %s%s"
                  % (job.id, job.spec["app"], final,
                     " — " + error.strip().splitlines()[-1] if error
                     else ""), file=self.log, flush=True)

    @staticmethod
    def _write_report(job: CampaignJob, report: Any) -> None:
        """Persist the report with the CLI's exact serialization, so the
        report endpoint serves bytes identical to ``repro campaign
        --json/--markdown`` for the same spec.

        The observation is stripped first: service jobs always observe
        (the progress hook implies it), but a CLI reference run usually
        does not, and the markdown renderer adds a "Where time went"
        section when an observation is present.  Dropping it keeps the
        byte-identity contract; the events stream is the service's
        observability surface.
        """
        from repro.core.report import app_report_to_dict
        from repro.core.reportmd import app_report_markdown
        report.observation = None
        with open(job.report_path("json"), "w") as handle:
            json.dump(app_report_to_dict(report), handle, indent=2)
        with open(job.report_path("md"), "w") as handle:
            handle.write(app_report_markdown(report))

    def _on_progress(self, job: CampaignJob, snapshot: Dict[str, Any]
                     ) -> None:
        """progress_hook target: runs on the campaign's committing thread."""
        with self.changed:
            job.progress = dict(snapshot)
            event = {"event": "progress"}
            event.update(snapshot)
            self._append_event(job, event)
            self.changed.notify_all()

    # ------------------------------------------------------------------
    # persistence primitives (caller holds the lock)
    # ------------------------------------------------------------------
    def _transition(self, job: CampaignJob, state: str, error: str = ""
                    ) -> None:
        job.state = state
        job.error = error
        self._persist(job)
        event = {"event": "state", "state": state}
        if error:
            event["error"] = error.strip().splitlines()[-1]
        self._append_event(job, event)

    def _persist(self, job: CampaignJob) -> None:
        _write_json_atomic(job.path("status.json"), job.status_record())

    def _append_event(self, job: CampaignJob, event: Dict[str, Any]) -> None:
        event = dict(event, seq=len(job.events) + 1)
        job.events.append(event)
        try:
            with open(job.path("events.jsonl"), "a") as handle:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        except OSError:
            pass  # the feed is best-effort; status.json is authoritative
