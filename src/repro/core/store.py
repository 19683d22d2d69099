"""Durable, crash-consistent result store shared across campaigns.

PR 2's content-addressed execution cache dies with the process, so every
campaign starts cold.  This module persists the cache's two tiers
(deterministic / seeded) and finished ``AppReport``s on disk, behind
``--store DIR``, with **crash consistency as the contract** rather than
an aspiration:

* **Append-only CRC32-framed segments.**  Every record is
  ``MAGIC | length | crc32 | JSON payload``; appends reuse the
  checkpoint module's fsync discipline (flush + ``os.fsync`` per record,
  directory fsync when a segment is created).  A record is either fully
  durable or detectably damaged — there is no in-place mutation to tear.
* **Salvage-everything recovery.**  Opening a store scans every segment;
  a truncated tail stops the scan cleanly, a corrupt frame mid-file
  triggers a byte-wise resync on the next magic marker, and every record
  whose CRC verifies is served.  Reopen never raises on damage — damage
  is *counted* (``StoreStats``), not fatal.
* **Substrate guard.**  Segments open with a version header, and every
  entry carries the ``(app, corpus digest)`` it was produced under
  (the distribution layer's handshake digest).  A newer-format store is
  refused outright (:class:`StoreError`); entries from a different
  digest of the *same* app are silently not served (counted as stale) —
  config substrates drift across releases, and replaying results across
  that drift would fabricate findings.
* **Concurrent writers.**  Each writer claims a fresh segment under a
  brief exclusive ``flock`` on ``LOCK``, then holds a lifetime ``flock``
  on its own segment.  Forked children (supervised pool workers,
  application lanes) detect the pid change and claim their own segment lazily — the
  inherited parent handle is left untouched because flock is per
  open-file-description.  GC skips any segment whose lock is still held.
* **Degradation over loss.**  A failed append (ENOSPC, I/O error — real
  or injected via :class:`repro.common.faults.DiskFaultPlan`) retires
  the writer and the store continues read-only; the campaign's findings
  never depend on the store being writable.

The serving path plugs into the campaign as
:class:`StoreBackedExecutionCache`, a drop-in ``ExecutionCache`` whose
misses fall through to the loaded persistent entries (promote-on-hit)
and whose stores also append a durable record.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from repro.common.errors import ReproError
from repro.common.faults import DiskFaultPlan, FaultyFile
from repro.core.checkpoint import fsync_directory
from repro.core.execcache import ExecutionCache
from repro.core.runner import RunOutcome

try:  # advisory locking is POSIX-only; the store degrades to lock-free
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Bump on any incompatible change to the record format.  A store written
#: by a newer version is *refused*, never guessed at.
STORE_VERSION = 1

#: Frame marker.  Scans resynchronise on it after corruption.
MAGIC = b"ZCRS"

_FRAME_HEADER = struct.Struct(">II")  # payload length, crc32(payload)

#: Upper bound on one record.  A "length" beyond this is treated as frame
#: corruption (a garbage length would otherwise swallow the whole tail).
MAX_RECORD = 8 * 1024 * 1024

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".log"
MANIFEST_NAME = "MANIFEST.json"
LOCK_NAME = "LOCK"


class StoreError(ReproError):
    """The store cannot be used at all (format from the future, unusable
    root path).  Damage within a compatible store is never an error —
    it is salvaged around and counted."""


@dataclass
class StoreStats:
    """Counters for one store session (scan + serve + append)."""

    enabled: bool = True
    #: segments scanned at open.
    segments: int = 0
    #: entries loaded for *this* campaign's (app, digest).
    entries_loaded: int = 0
    #: reports seen at open (all substrates).
    reports_loaded: int = 0
    #: whole-profile records loaded for this campaign's app (all
    #: digests: profile reuse is keyed by content, not corpus digest).
    profiles_loaded: int = 0
    #: valid records recovered from segments that also contained damage.
    salvaged_records: int = 0
    #: damage events: bad CRC/magic/length frames and skipped byte spans.
    corrupt_records: int = 0
    #: segments ending in an incomplete frame (interrupted final append).
    truncated_tails: int = 0
    #: same-app entries refused because their corpus digest differs.
    stale_refused: int = 0
    #: lookups served from persisted entries this session.
    hits: int = 0
    #: lookups that missed memory *and* the persisted entries.
    misses: int = 0
    #: records durably appended this session.
    appends: int = 0
    #: failed appends (the writer is retired after the first).
    write_errors: int = 0


def _frame(payload: bytes) -> bytes:
    return MAGIC + _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _encode(record: Mapping[str, Any]) -> bytes:
    return _frame(json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode("utf-8"))


def iter_frames(data: bytes) -> Iterator[Tuple[str, Any]]:
    """Yield ``("record", payload)`` for every intact frame in ``data``,
    interleaved with ``("corrupt", byte_offset)`` damage events and at
    most one trailing ``("truncated", byte_offset)``.

    Recovery rule: a frame is served iff its magic, length, and CRC all
    verify.  After any damage the scan resynchronises on the next magic
    marker, so intact records *beyond* a corrupt span are still salvaged
    — a false marker inside a payload merely fails its CRC and the scan
    moves on.
    """
    offset, size = 0, len(data)
    while offset < size:
        start = data.find(MAGIC, offset)
        if start < 0:
            yield ("corrupt", offset)
            return
        if start > offset:
            yield ("corrupt", offset)
        header_end = start + len(MAGIC) + _FRAME_HEADER.size
        if header_end > size:
            yield ("truncated", start)
            return
        length, crc = _FRAME_HEADER.unpack(
            data[start + len(MAGIC):header_end])
        if length > MAX_RECORD:
            yield ("corrupt", start)
            offset = start + 1
            continue
        end = header_end + length
        if end > size:
            yield ("truncated", start)
            return
        payload = data[header_end:end]
        if zlib.crc32(payload) != crc:
            yield ("corrupt", start)
            offset = start + 1
            continue
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            yield ("corrupt", start)
            offset = start + 1
            continue
        yield ("record", record)
        offset = end


@dataclass
class _SegmentScan:
    """Everything recovered from one segment file."""

    name: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    corrupt: int = 0
    truncated: int = 0

    @property
    def damaged(self) -> bool:
        """True when the scan hit any corrupt record or truncated tail."""
        return bool(self.corrupt or self.truncated)


def _scan_segment(path: str) -> _SegmentScan:
    scan = _SegmentScan(name=os.path.basename(path))
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        scan.corrupt += 1
        return scan
    for kind, value in iter_frames(data):
        if kind == "record":
            if isinstance(value, dict):
                scan.records.append(value)
            else:
                scan.corrupt += 1
        elif kind == "corrupt":
            scan.corrupt += 1
        else:
            scan.truncated += 1
    return scan


class ResultStore:
    """One process's handle on a store directory.

    ``open(app, digest)`` scans the segments and builds the serving maps
    for that substrate; a writer segment is claimed lazily on the first
    append (and re-claimed per pid, so forked campaign workers each own
    their segment).  Construction without ``open`` is enough for the
    maintenance surface (``summary`` / ``gc``) used by ``repro store``.
    """

    def __init__(self, root: str,
                 disk_fault_plan: Optional[DiskFaultPlan] = None) -> None:
        self.root = root
        self.disk_fault_plan = disk_fault_plan
        self.stats = StoreStats()
        self.fault_counts: Dict[str, int] = {}
        # RLock: the append path holds it across segment claiming, which
        # itself touches manifest helpers that count their own errors.
        self._lock = threading.RLock()
        self.app: Optional[str] = None
        self.digest: Optional[int] = None
        self._det: Dict[str, RunOutcome] = {}
        self._seeded: Dict[Tuple[str, int], RunOutcome] = {}
        # whole-profile records for incremental planning (repro.core.plan):
        # newest record per content key, and per test name (so a changed
        # test is classified RERUN rather than NEW).
        self._profiles_by_key: Dict[str, Dict[str, Any]] = {}
        self._profile_by_test: Dict[str, Dict[str, Any]] = {}
        self._writer: Optional[Any] = None
        self._writer_pid: Optional[int] = None
        self._writer_dead = False

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------
    @property
    def segments_dir(self) -> str:
        """The directory holding the CRC-framed segment files."""
        return os.path.join(self.root, "segments")

    def _segment_paths(self) -> List[str]:
        try:
            names = os.listdir(self.segments_dir)
        except OSError:
            return []
        return [os.path.join(self.segments_dir, name)
                for name in sorted(names)
                if name.startswith(_SEGMENT_PREFIX)
                and name.endswith(_SEGMENT_SUFFIX)]

    def _ensure_layout(self) -> None:
        try:
            os.makedirs(self.segments_dir, exist_ok=True)
        except OSError as exc:
            raise StoreError("cannot create store at %r: %s"
                             % (self.root, exc))

    # ------------------------------------------------------------------
    # manifest (advisory bookkeeping; the directory is the truth)
    # ------------------------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def read_manifest(self) -> Dict[str, Any]:
        """The advisory manifest, normalised; a valid empty one on damage.

        The manifest is bookkeeping only — the segments directory is the
        truth — so an unreadable or malformed file is never an error.
        """
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return {"version": STORE_VERSION, "segments": []}
        if isinstance(manifest, dict):
            manifest.setdefault("version", STORE_VERSION)
            manifest.setdefault("segments", [])
            return manifest
        return {"version": STORE_VERSION, "segments": []}

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        """Atomic temp + rename + fsync: readers see the old manifest or
        the new one, never a torn one.  Failures are survivable — open()
        reconciles against the directory listing anyway."""
        path = self._manifest_path()
        temp = path + ".tmp.%d" % os.getpid()
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, sort_keys=True, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
            fsync_directory(path)
        except OSError:
            with self._lock:
                self.stats.write_errors += 1
            try:
                os.unlink(temp)
            except OSError:
                pass

    def _reconcile_manifest(self) -> None:
        """Fold crash gaps back in: segments on disk but missing from the
        manifest (died between segment create and manifest write) are
        added; manifest entries with no file (died mid-GC) are dropped."""
        on_disk = [os.path.basename(p) for p in self._segment_paths()]
        manifest = self.read_manifest()
        if manifest.get("segments") != on_disk:
            manifest["segments"] = on_disk
            self._write_manifest(manifest)

    # ------------------------------------------------------------------
    # advisory locking
    # ------------------------------------------------------------------
    def _flock(self, handle: Any, flags: int) -> bool:
        if fcntl is None:
            return True
        try:
            fcntl.flock(handle.fileno(), flags)
            return True
        except OSError:
            return False

    def _claim_lock(self) -> Optional[Any]:
        """The store-wide LOCK, held only across segment allocation and
        GC planning (never across record I/O)."""
        try:
            handle = open(os.path.join(self.root, LOCK_NAME), "ab")
        except OSError:
            return None
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                handle.close()
                return None
        return handle

    # ------------------------------------------------------------------
    # open / scan
    # ------------------------------------------------------------------
    def open(self, app: str, digest: int) -> StoreStats:
        """Scan the store and build the serving maps for one substrate.

        Never raises on damage; raises :class:`StoreError` only for an
        unusable root or a store written by a newer format version.
        """
        self._ensure_layout()
        self.app = app
        self.digest = digest
        for path in self._segment_paths():
            scan = _scan_segment(path)
            self._ingest(scan)
        self._reconcile_manifest()
        return self.stats

    def _check_version(self, record: Mapping[str, Any], name: str) -> None:
        version = record.get("version")
        if isinstance(version, int) and version > STORE_VERSION:
            raise StoreError(
                "store segment %s was written by format version %d; this "
                "build reads up to version %d — refusing to guess"
                % (name, version, STORE_VERSION))

    def _ingest(self, scan: _SegmentScan) -> None:
        with self._lock:
            self.stats.segments += 1
            self.stats.corrupt_records += scan.corrupt
            self.stats.truncated_tails += scan.truncated
        loaded = 0
        for record in scan.records:
            kind = record.get("kind")
            if kind == "header":
                self._check_version(record, scan.name)
                continue
            if kind == "report":
                with self._lock:
                    self.stats.reports_loaded += 1
                continue
            if kind == "profile":
                # Profile records are filtered by app only, NOT by corpus
                # digest: reusing them across registry drift is the whole
                # point — the per-profile content key embeds the parameter
                # definitions, so staleness is decided per profile, not
                # per substrate.
                if record.get("app") != self.app:
                    continue
                key = record.get("key")
                test = record.get("test")
                if not isinstance(key, str) or not isinstance(test, str) \
                        or not isinstance(record.get("record"), dict):
                    with self._lock:
                        self.stats.corrupt_records += 1
                    continue
                with self._lock:
                    self._profiles_by_key[key] = record
                    self._profile_by_test[test] = record
                    self.stats.profiles_loaded += 1
                continue
            if kind != "entry":
                continue
            if record.get("app") != self.app:
                continue
            if record.get("digest") != self.digest:
                with self._lock:
                    self.stats.stale_refused += 1
                continue
            outcome = _outcome_from_record(record)
            if outcome is None:
                with self._lock:
                    self.stats.corrupt_records += 1
                continue
            key = record["key"]
            seed = record.get("seed")
            with self._lock:
                if seed is None:
                    self._det[key] = outcome
                else:
                    self._seeded[(key, int(seed))] = outcome
                loaded += 1
        with self._lock:
            self.stats.entries_loaded += loaded
            if scan.damaged:
                self.stats.salvaged_records += len(scan.records)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def lookup_entry(self, key: str, seed: int
                     ) -> Tuple[Optional[RunOutcome], bool]:
        """``(outcome, seed_sensitive)`` from the persisted tiers, or
        ``(None, False)``.  Counts a store hit or a (true cold) miss."""
        with self._lock:
            outcome = self._det.get(key)
            if outcome is not None:
                self.stats.hits += 1
                return replace(outcome), False
            outcome = self._seeded.get((key, seed))
            if outcome is not None:
                self.stats.hits += 1
                return replace(outcome), True
            self.stats.misses += 1
            return None, False

    def lookup_profile(self, key: str) -> Optional[Dict[str, Any]]:
        """The newest whole-profile record with this content key."""
        with self._lock:
            return self._profiles_by_key.get(key)

    def profile_for_test(self, test: str) -> Optional[Dict[str, Any]]:
        """The newest whole-profile record for this unit test (any key)."""
        with self._lock:
            return self._profile_by_test.get(test)

    def confirmed_params(self) -> Set[str]:
        """Every parameter the newest stored profiles confirmed unsafe —
        the blacklist-coupling closure's raw material."""
        with self._lock:
            confirmed: Set[str] = set()
            for record in self._profile_by_test.values():
                confirmed.update(str(p) for p in record.get("confirmed", ()))
            return confirmed

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _claim_segment_locked(self) -> Optional[Any]:
        """Allocate and open a fresh segment for this pid.  Returns the
        writable handle (header already durable) or None on failure."""
        lock = self._claim_lock()
        try:
            existing = {os.path.basename(p) for p in self._segment_paths()}
            index = len(existing) + 1
            while True:
                name = "%s%06d%s" % (_SEGMENT_PREFIX, index, _SEGMENT_SUFFIX)
                if name not in existing:
                    break
                index += 1
            path = os.path.join(self.segments_dir, name)
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except OSError:
                return None
            handle: Any = os.fdopen(fd, "ab")
            # lifetime lock: GC must not compact a live writer's segment.
            if fcntl is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    handle.close()
                    return None
            if self.disk_fault_plan is not None \
                    and self.disk_fault_plan.active:
                handle = FaultyFile(handle, self.disk_fault_plan,
                                    label=name, counts=self.fault_counts)
            header = {"kind": "header", "version": STORE_VERSION,
                      "app": self.app, "digest": self.digest,
                      "writer_pid": os.getpid()}
            try:
                handle.write(_encode(header))
                handle.flush()
                os.fsync(handle.fileno())
                fsync_directory(path)
            except OSError:
                handle.close()
                return None
            manifest = self.read_manifest()
            segments = list(manifest.get("segments", []))
            if name not in segments:
                segments.append(name)
                manifest["segments"] = sorted(segments)
                self._write_manifest(manifest)
            return handle
        finally:
            if lock is not None:
                if fcntl is not None:
                    try:
                        fcntl.flock(lock.fileno(), fcntl.LOCK_UN)
                    except OSError:
                        pass
                lock.close()

    def _writer_handle(self) -> Optional[Any]:
        """The current pid's writer, claimed lazily.  A forked child sees
        the parent's pid on the inherited state and claims its *own*
        segment — the inherited handle is deliberately left open and
        untouched (closing it would release the parent's flock, which is
        shared across the fork)."""
        pid = os.getpid()
        if self._writer_pid == pid:
            return None if self._writer_dead else self._writer
        self._writer = None
        self._writer_pid = pid
        self._writer_dead = False
        self._writer = self._claim_segment_locked()
        if self._writer is None:
            self._writer_dead = True
            self.stats.write_errors += 1
        return self._writer

    def _append(self, record: Mapping[str, Any]) -> bool:
        """Durably append one record; False (never an exception) when the
        store is degraded or the write fails.  InjectedCrash — simulated
        process death — is the one thing allowed through, by design."""
        with self._lock:
            writer = self._writer_handle()
            if writer is None:
                return False
            try:
                writer.write(_encode(record))
                writer.flush()
                os.fsync(writer.fileno())
            except OSError:
                # ENOSPC / torn write / dying disk: retire the writer and
                # keep the campaign alive read-only.  The segment's intact
                # prefix remains salvageable.
                self.stats.write_errors += 1
                self._writer_dead = True
                try:
                    writer.close()
                except OSError:
                    pass
                self._writer = None
                return False
            self.stats.appends += 1
            return True

    def append_entry(self, key: str, seed: Optional[int],
                     outcome: RunOutcome) -> bool:
        """Durably append one cache entry (``seed=None`` = deterministic).

        Returns False (store retired read-only, campaign unaffected) when
        the write layer fails; see :meth:`_append`.
        """
        return self._append({"kind": "entry", "app": self.app,
                             "digest": self.digest, "key": key,
                             "seed": seed, "outcome": asdict(outcome)})

    def append_profile(self, key: str, test: str,
                       record: Mapping[str, Any],
                       confirmed: Sequence[str] = ()) -> bool:
        """Durably append one whole-profile record (newest wins per key).

        ``record`` is the checkpoint test-done payload (results, pool
        stats, executions, ...); ``confirmed`` lists the parameters this
        profile confirmed unsafe, for the planner's blacklist-coupling
        closure.  The serving maps are updated in place so a plan built
        later in the same session sees the fresh record.
        """
        framed = {"kind": "profile", "app": self.app, "digest": self.digest,
                  "key": key, "test": test, "confirmed": list(confirmed),
                  "record": dict(record)}
        if not self._append(framed):
            return False
        with self._lock:
            self._profiles_by_key[key] = framed
            self._profile_by_test[test] = framed
        return True

    def put_report(self, report: Mapping[str, Any]) -> bool:
        """Durably append the finished application report (newest wins)."""
        return self._append({"kind": "report", "app": self.app,
                             "digest": self.digest, "report": dict(report)})

    def close(self) -> None:
        """Release the writer segment (and its flock), if this pid owns it.

        Safe to call repeatedly and from forked children: a child that
        inherited the handle leaves it alone for the parent to close.
        """
        with self._lock:
            writer, self._writer = self._writer, None
            owned = self._writer_pid == os.getpid()
            self._writer_pid = None
        if writer is not None and owned:
            try:
                writer.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # maintenance surface (repro store {stats,verify,gc})
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """A full scan of every substrate in the store (no app binding)."""
        self._ensure_layout()
        substrates: Dict[Tuple[str, int], Dict[str, int]] = {}
        totals = {"segments": 0, "bytes": 0, "entries": 0,
                  "deterministic": 0, "seeded": 0, "reports": 0,
                  "profiles": 0, "corrupt_records": 0,
                  "truncated_tails": 0, "salvaged_records": 0}
        max_version = 0
        for path in self._segment_paths():
            scan = _scan_segment(path)
            totals["segments"] += 1
            try:
                totals["bytes"] += os.path.getsize(path)
            except OSError:
                pass
            totals["corrupt_records"] += scan.corrupt
            totals["truncated_tails"] += scan.truncated
            if scan.damaged:
                totals["salvaged_records"] += len(scan.records)
            for record in scan.records:
                kind = record.get("kind")
                if kind == "header":
                    version = record.get("version")
                    if isinstance(version, int):
                        max_version = max(max_version, version)
                    continue
                bucket = substrates.setdefault(
                    (str(record.get("app")), record.get("digest")),
                    {"entries": 0, "deterministic": 0, "seeded": 0,
                     "reports": 0, "profiles": 0})
                if kind == "entry":
                    totals["entries"] += 1
                    bucket["entries"] += 1
                    tier = "deterministic" if record.get("seed") is None \
                        else "seeded"
                    totals[tier] += 1
                    bucket[tier] += 1
                elif kind == "report":
                    totals["reports"] += 1
                    bucket["reports"] += 1
                elif kind == "profile":
                    totals["profiles"] += 1
                    bucket["profiles"] += 1
        if max_version > STORE_VERSION:
            raise StoreError(
                "store at %r was written by format version %d; this build "
                "reads up to version %d" % (self.root, max_version,
                                            STORE_VERSION))
        totals["substrates"] = [
            {"app": app, "digest": digest, **counts}
            for (app, digest), counts in sorted(substrates.items(),
                                                key=lambda kv: str(kv[0]))]
        return totals

    def gc(self) -> Dict[str, Any]:
        """Compact every *quiescent* segment into one deduplicated
        segment: the newest record per entry slot and the newest report
        per substrate survive; damaged spans and superseded duplicates
        are dropped.  Segments still flocked by a live writer are left
        alone entirely."""
        self._ensure_layout()
        lock = self._claim_lock()
        try:
            live_entries: Dict[Tuple[str, Any, str, Any], Dict[str, Any]] = {}
            live_reports: Dict[Tuple[str, Any], Dict[str, Any]] = {}
            live_profiles: Dict[Tuple[str, str], Dict[str, Any]] = {}
            compacted: List[str] = []
            skipped: List[str] = []
            dropped_damage = 0
            for path in self._segment_paths():
                try:
                    probe = open(path, "rb")
                except OSError:
                    skipped.append(os.path.basename(path))
                    continue
                busy = not self._flock(
                    probe, (fcntl.LOCK_EX | fcntl.LOCK_NB)
                    if fcntl is not None else 0)
                if busy:
                    probe.close()
                    skipped.append(os.path.basename(path))
                    continue
                scan = _scan_segment(path)
                probe.close()
                dropped_damage += scan.corrupt + scan.truncated
                for record in scan.records:
                    kind = record.get("kind")
                    if kind == "entry":
                        slot = (str(record.get("app")), record.get("digest"),
                                str(record.get("key")), record.get("seed"))
                        live_entries[slot] = record
                    elif kind == "report":
                        live_reports[(str(record.get("app")),
                                      record.get("digest"))] = record
                    elif kind == "profile":
                        live_profiles[(str(record.get("app")),
                                       str(record.get("key")))] = record
                compacted.append(os.path.basename(path))
            if not compacted:
                return {"compacted_segments": 0, "kept_segments": len(skipped),
                        "entries": 0, "profiles": 0, "reports": 0,
                        "dropped_damage": dropped_damage}
            index = 1
            existing = {os.path.basename(p) for p in self._segment_paths()}
            while "%s%06d%s" % (_SEGMENT_PREFIX, index,
                                _SEGMENT_SUFFIX) in existing:
                index += 1
            name = "%s%06d%s" % (_SEGMENT_PREFIX, index, _SEGMENT_SUFFIX)
            path = os.path.join(self.segments_dir, name)
            with open(path, "wb") as handle:
                handle.write(_encode({"kind": "header",
                                      "version": STORE_VERSION,
                                      "app": None, "digest": None,
                                      "compacted": True,
                                      "writer_pid": os.getpid()}))
                for slot in sorted(live_entries, key=repr):
                    handle.write(_encode(live_entries[slot]))
                for slot in sorted(live_profiles, key=repr):
                    handle.write(_encode(live_profiles[slot]))
                for who in sorted(live_reports, key=repr):
                    handle.write(_encode(live_reports[who]))
                handle.flush()
                os.fsync(handle.fileno())
            fsync_directory(path)
            manifest = self.read_manifest()
            manifest["segments"] = sorted(
                (set(manifest.get("segments", [])) - set(compacted))
                | {name} | set(skipped))
            self._write_manifest(manifest)
            for old in compacted:
                try:
                    os.unlink(os.path.join(self.segments_dir, old))
                except OSError:
                    pass
            fsync_directory(path)
            return {"compacted_segments": len(compacted),
                    "kept_segments": len(skipped),
                    "entries": len(live_entries),
                    "profiles": len(live_profiles),
                    "reports": len(live_reports),
                    "dropped_damage": dropped_damage,
                    "segment": name}
        finally:
            if lock is not None:
                if fcntl is not None:
                    try:
                        fcntl.flock(lock.fileno(), fcntl.LOCK_UN)
                    except OSError:
                        pass
                lock.close()


def _outcome_from_record(record: Mapping[str, Any]) -> Optional[RunOutcome]:
    payload = record.get("outcome")
    if not isinstance(payload, dict):
        return None
    try:
        return RunOutcome(
            ok=bool(payload["ok"]),
            error_type=str(payload.get("error_type", "")),
            error_message=str(payload.get("error_message", "")),
            timed_out=bool(payload.get("timed_out", False)),
            infra=bool(payload.get("infra", False)),
            retries=int(payload.get("retries", 0)),
            faults=int(payload.get("faults", 0)),
            rng_used=bool(payload.get("rng_used", False)))
    except (KeyError, TypeError, ValueError):
        return None


class StoreBackedExecutionCache(ExecutionCache):
    """An :class:`ExecutionCache` whose misses fall through to a
    :class:`ResultStore` and whose stores also persist durably.

    Persisted hits are promoted into the in-memory tiers, so the disk is
    consulted at most once per key and the replay semantics (two-tier
    seeded/deterministic soundness, infra never cached) are exactly the
    in-memory cache's — the store only widens where entries come from.
    """

    def __init__(self, context: Optional[Mapping[str, Any]],
                 backing: ResultStore) -> None:
        super().__init__(context)
        self.backing = backing

    def lookup(self, test_name: str, canonical: Any,
               seed: int) -> Optional[Any]:
        """Memory first, then disk; a disk hit is promoted into memory."""
        key = self._key(test_name, canonical)
        with self._lock:
            outcome = self._deterministic.get(key)
            if outcome is None:
                outcome = self._seeded.get((key, seed))
            if outcome is not None:
                self.hits += 1
                return replace(outcome)
        stored, seed_sensitive = self.backing.lookup_entry(key, seed)
        with self._lock:
            if stored is None:
                self.misses += 1
                return None
            self.hits += 1
            if seed_sensitive:
                self._seeded[(key, seed)] = stored
            else:
                self._deterministic[key] = stored
            return replace(stored)

    def store(self, test_name: str, canonical: Any, seed: int, outcome: Any,
              seed_sensitive: bool) -> bool:
        """Cache in memory, and persist iff the cache accepted the entry
        (so nothing uncacheable — infra outcomes — ever reaches disk)."""
        cached = super().store(test_name, canonical, seed, outcome,
                               seed_sensitive)
        if cached:
            self.backing.append_entry(self._key(test_name, canonical),
                                      seed if seed_sensitive else None,
                                      outcome)
        return cached
