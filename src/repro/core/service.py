"""``repro serve``: the campaign-as-a-service HTTP/JSON daemon.

This module is the public, network-facing face of the reproduction: a
stdlib-only (``http.server``) daemon that accepts campaign submissions,
schedules them through :mod:`repro.core.jobqueue`, shares one durable
result store across every submission, and serves reports whose bytes
are identical to what the CLI writes for the same spec.  The complete
operator guide — endpoint reference, spec schema, auth, lifecycle and
crash-recovery semantics — is docs/SERVICE.md; this docstring is the
short version.

Endpoints (all request/response bodies are JSON unless noted):

``GET  /v1/healthz``
    Liveness: daemon version, state dir, job counts.
``GET  /v1/apps``
    The application catalog (names + registry/corpus sizes).
``POST /v1/campaigns``
    Submit a campaign spec (see jobqueue.SPEC_SCHEMA); returns 202 with
    the new job's id and location.  Requires auth when a secret is set.
``GET  /v1/campaigns``
    All jobs, id-ordered, in summary form.
``GET  /v1/campaigns/{id}``
    Full status: canonical spec, state, latest progress snapshot, and —
    once done — the report's cost centers and distribution stats.
``GET  /v1/campaigns/{id}/report[?format=json|markdown]``
    The finished report, byte-identical to the CLI's --json/--markdown
    output for the same spec (404 until the job is done).
``GET  /v1/campaigns/{id}/events``
    Newline-delimited JSON progress feed: replays the job's event log,
    then follows live until the job reaches a terminal state.
``DELETE /v1/campaigns/{id}``
    Cancel (between profiles; the checkpoint journal keeps finished
    work, so an identical resubmission resumes).  Requires auth.
``GET  /v1/registry/{app}[?audit=1]``
    The parameter registry as an addressable resource; with ``audit=1``
    the wiring-audit verdicts (repro.core.audit) are attached (computed
    once per app, then cached).

Authentication reuses the fleet's HMAC shared-secret scheme
(repro.core.distrib): with ``--serve-secret SECRET`` set, mutating
endpoints (POST/DELETE) require ``Authorization: Bearer <token>`` where
``<token> = HMAC-SHA256(key=SECRET, msg="repro-serve:token")`` in hex —
printable via ``repro serve-token`` and verified with a constant-time
compare.  Read endpoints stay open, mirroring the coordinator's
read-only stance toward unauthenticated peers.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.jobqueue import CampaignJob, JobQueue, JobSpecError

#: bump when the wire format changes incompatibly.
API_VERSION = 1

#: refuse request bodies beyond this (a campaign spec is tiny).
MAX_BODY_BYTES = 1 << 20

#: domain-separated message for the bearer token (the distrib handshake
#: MACs use "role:nonce" messages; this can never collide with them).
_TOKEN_MESSAGE = b"repro-serve:token"


def service_token(secret: str) -> str:
    """The bearer token for ``--serve-secret SECRET`` (hex HMAC-SHA256).

    Same construction as the distributed handshake's MACs
    (repro.core.distrib._auth_mac) under a distinct domain-separation
    message, so one operator secret can safely serve both purposes.
    """
    return hmac.new(secret.encode("utf-8"), _TOKEN_MESSAGE,
                    hashlib.sha256).hexdigest()


class CampaignService:
    """Routing/marshalling layer between HTTP and the job queue."""

    def __init__(self, queue: JobQueue, secret: Optional[str] = None) -> None:
        self.queue = queue
        self.secret = secret
        self._audit_cache: Dict[str, Dict[str, Any]] = {}
        self._audit_lock = threading.Lock()

    # ------------------------------------------------------------------
    # auth
    # ------------------------------------------------------------------
    def authorized(self, header: Optional[str]) -> bool:
        """Constant-time bearer-token check (True when auth is off)."""
        if not self.secret:
            return True
        if not header or not header.startswith("Bearer "):
            return False
        presented = header[len("Bearer "):].strip()
        return hmac.compare_digest(service_token(self.secret), presented)

    # ------------------------------------------------------------------
    # resource renderings
    # ------------------------------------------------------------------
    def job_summary(self, job: CampaignJob) -> Dict[str, Any]:
        """The listing form: status record + event count + report flag."""
        record = job.status_record()
        record["events"] = len(job.events)
        record["report_ready"] = job.has_report()
        return record

    def job_detail(self, job: CampaignJob) -> Dict[str, Any]:
        """The summary plus spec, latest progress, and report highlights."""
        record = self.job_summary(job)
        record["spec"] = job.spec
        record["progress"] = job.progress
        if job.has_report():
            try:
                with open(job.report_path("json")) as handle:
                    report = json.load(handle)
            except (OSError, ValueError):
                pass
            else:
                record["cost_centers"] = report.get("cost_centers", [])
                record["distribution"] = report.get("distribution")
                record["executions"] = report.get("executions")
                record["reported_params"] = [v["param"] for v in
                                             report.get("verdicts", [])]
        return record

    def registry_resource(self, app: str, with_audit: bool
                          ) -> Dict[str, Any]:
        """``GET /v1/registry/{app}``: the parameter registry as data,
        with the wiring-audit verdicts attached when ``?audit=1``."""
        from repro.apps import catalog
        spec = catalog.spec_for(app)
        unsafe = set(spec.expected_unsafe)
        params = []
        for param in spec.registry:
            default: Any = param.default
            try:
                json.dumps(default)
            except (TypeError, ValueError):
                default = repr(default)
            params.append({
                "name": param.name,
                "kind": param.kind,
                "default": default,
                "section": catalog.section_for_param(param.name),
                "tags": list(param.tags),
                "unsafe_table3": param.name in unsafe,
                "description": param.description,
            })
        record: Dict[str, Any] = {"app": app, "params": params}
        if with_audit:
            record["audit"] = self._audit_for(app)
        return record

    def _audit_for(self, app: str) -> Dict[str, Any]:
        """Wiring-audit verdicts, computed once per app then cached (the
        audit runs real probe executions; the cache makes the registry
        endpoint cheap after the first ?audit=1 request)."""
        with self._audit_lock:
            cached = self._audit_cache.get(app)
            if cached is None:
                from repro.core.audit import audit_app
                cached = audit_app(app).to_dict()
                self._audit_cache[app] = cached
            return cached


class _ServiceServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: CampaignService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/%d" % API_VERSION

    # -- plumbing ------------------------------------------------------
    @property
    def service(self) -> CampaignService:
        """The shared :class:`CampaignService` hung off the server."""
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the operator's reverse proxy's job

    def _send_json(self, status: int, record: Any) -> None:
        body = (json.dumps(record, indent=2, sort_keys=True) + "\n"
                ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_bytes(self, body: bytes, content_type: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise JobSpecError("request body too large")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobSpecError("empty request body (expected a JSON spec)")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise JobSpecError("request body is not valid JSON")

    def _route(self) -> Tuple[List[str], Dict[str, List[str]]]:
        parts = urlsplit(self.path)
        segments = [s for s in parts.path.split("/") if s]
        return segments, parse_qs(parts.query)

    def _check_auth(self) -> bool:
        if self.service.authorized(self.headers.get("Authorization")):
            return True
        self._error(401, "missing or invalid bearer token "
                         "(see `repro serve-token` and docs/SERVICE.md)")
        return False

    # -- methods -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        """Route the read-only endpoints (never require auth)."""
        try:
            segments, query = self._route()
            if segments == ["v1", "healthz"]:
                return self._healthz()
            if segments == ["v1", "apps"]:
                return self._apps()
            if segments == ["v1", "campaigns"]:
                jobs = self.service.queue.list_jobs()
                return self._send_json(200, {
                    "campaigns": [self.service.job_summary(j) for j in jobs]})
            if len(segments) == 3 and segments[:2] == ["v1", "campaigns"]:
                return self._campaign_detail(segments[2])
            if len(segments) == 4 and segments[:2] == ["v1", "campaigns"]:
                if segments[3] == "report":
                    return self._campaign_report(segments[2], query)
                if segments[3] == "events":
                    return self._campaign_events(segments[2])
            if len(segments) == 3 and segments[:2] == ["v1", "registry"]:
                return self._registry(segments[2], query)
            self._error(404, "no such resource")
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_POST(self) -> None:  # noqa: N802
        """``POST /v1/campaigns``: authenticate, validate, submit (202)."""
        try:
            segments, _ = self._route()
            if segments != ["v1", "campaigns"]:
                return self._error(404, "no such resource")
            if not self._check_auth():
                return
            try:
                job = self.service.queue.submit(self._read_body())
            except JobSpecError as exc:
                return self._error(400, str(exc))
            record = self.service.job_summary(job)
            record["location"] = "/v1/campaigns/%s" % job.id
            self._send_json(202, record)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_DELETE(self) -> None:  # noqa: N802
        """``DELETE /v1/campaigns/{id}``: authenticate, cancel (202)."""
        try:
            segments, _ = self._route()
            if len(segments) != 3 or segments[:2] != ["v1", "campaigns"]:
                return self._error(404, "no such resource")
            if not self._check_auth():
                return
            try:
                job = self.service.queue.cancel(segments[2])
            except KeyError:
                return self._error(404, "no such campaign")
            self._send_json(202, self.service.job_summary(job))
        except (BrokenPipeError, ConnectionResetError):
            pass

    # -- GET handlers --------------------------------------------------
    def _healthz(self) -> None:
        queue = self.service.queue
        jobs = queue.list_jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        self._send_json(200, {
            "ok": True,
            "api_version": API_VERSION,
            "state_dir": queue.state_dir,
            "store": queue.store_path,
            "max_active": queue.max_active,
            "auth": bool(self.service.secret),
            "jobs": by_state,
        })

    def _apps(self) -> None:
        from repro.apps import catalog
        from repro.core.registry import load_all_suites
        corpus = load_all_suites()
        self._send_json(200, {"apps": [
            {"app": app,
             "unit_tests": len(corpus.for_app(app)),
             "parameters": len(catalog.spec_for(app).registry),
             "registry": "/v1/registry/%s" % app}
            for app in catalog.APP_NAMES]})

    def _campaign_detail(self, job_id: str) -> None:
        job = self.service.queue.get(job_id)
        if job is None:
            return self._error(404, "no such campaign")
        self._send_json(200, self.service.job_detail(job))

    def _campaign_report(self, job_id: str,
                         query: Dict[str, List[str]]) -> None:
        job = self.service.queue.get(job_id)
        if job is None:
            return self._error(404, "no such campaign")
        fmt = (query.get("format") or ["json"])[0]
        if fmt not in ("json", "markdown"):
            return self._error(400, "format must be json or markdown")
        if not job.has_report():
            return self._error(404, "no report yet (job state: %s)"
                               % job.state)
        path = job.report_path("json" if fmt == "json" else "md")
        try:
            with open(path, "rb") as handle:
                body = handle.read()
        except OSError:
            return self._error(404, "report unavailable")
        # exact stored bytes — the byte-identity contract with the CLI.
        self._send_bytes(body, "application/json" if fmt == "json"
                         else "text/markdown; charset=utf-8")

    def _campaign_events(self, job_id: str) -> None:
        queue = self.service.queue
        if queue.get(job_id) is None:
            return self._error(404, "no such campaign")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()  # HTTP/1.0: body is delimited by close
        index = 0
        while True:
            events, terminal = queue.events_since(job_id, index)
            for event in events:
                self.wfile.write((json.dumps(event, sort_keys=True)
                                  + "\n").encode("utf-8"))
            index += len(events)
            if events:
                self.wfile.flush()
            if terminal:
                remaining, _ = queue.events_since(job_id, index)
                if not remaining:
                    return
                continue
            queue.wait_for_events(job_id, index, 0.5)

    def _registry(self, app: str, query: Dict[str, List[str]]) -> None:
        from repro.apps import catalog
        if app not in catalog.APP_NAMES:
            return self._error(404, "unknown app %r (known: %s)"
                               % (app, ", ".join(catalog.APP_NAMES)))
        with_audit = (query.get("audit") or ["0"])[0] in ("1", "true")
        self._send_json(200, self.service.registry_resource(app, with_audit))


# ---------------------------------------------------------------------------
# daemon entry point (the `repro serve` subcommand)
# ---------------------------------------------------------------------------
def parse_listen(listen: str) -> Tuple[str, int]:
    """``[HOST:]PORT`` -> (host, port); bare port binds 127.0.0.1."""
    host, _, port = listen.rpartition(":")
    return host or "127.0.0.1", int(port)


def run_service(listen: str, state_dir: str,
                store_path: Optional[str] = None, max_active: int = 1,
                secret: Optional[str] = None,
                dist_secret: Optional[str] = None,
                log: Any = None, ready: Optional[Any] = None) -> int:
    """Run the daemon until SIGTERM/SIGINT.  Blocks; returns exit code.

    ``ready`` (a callable, tests only) receives the bound
    ``(host, port)`` once the socket is listening — with port 0 that is
    the only way to learn the ephemeral port.
    """
    log = log if log is not None else sys.stderr
    queue = JobQueue(state_dir, store_path=store_path,
                     max_active=max_active, dist_secret=dist_secret,
                     log=log)
    queue.start()
    server = _ServiceServer(parse_listen(listen), CampaignService(
        queue, secret=secret))
    host, port = server.server_address[:2]
    print("repro serve: listening on http://%s:%d (state: %s%s%s)"
          % (host, port, state_dir,
             ", store: %s" % store_path if store_path else "",
             ", auth: on" if secret else ""), file=log, flush=True)
    if ready is not None:
        ready((host, port))

    stopping = threading.Event()

    def _shutdown(signum: int, frame: Any) -> None:
        if not stopping.is_set():
            stopping.set()
            # shutdown() must not run on the serve_forever thread.
            threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _shutdown)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        queue.stop(cancel_active=True)
        print("repro serve: stopped (unfinished jobs remain resumable in"
              " %s)" % state_dir, file=log, flush=True)
    return 0
