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
  on its own segment.  Forked children (supervised pool workers) detect
  the pid change and claim their own segment lazily — the inherited
  parent handle is left untouched because flock is per
  open-file-description.  A worker ships the counters its profile moved
  (:meth:`ResultStore.traffic`) home with the profile, and the parent
  adds them (:meth:`ResultStore.add_traffic`), so a pooled campaign
  reports the store traffic a serial one does.  GC skips any segment
  whose lock is still held.
* **Degradation over loss.**  A failed append (ENOSPC, I/O error — real
  or injected via :class:`repro.common.faults.DiskFaultPlan`) retires
  the writer and the store continues read-only; the campaign's findings
  never depend on the store being writable.
* **Decode once per process.**  ``open`` keeps, per segment, the serving
  state it built for each ``(app, digest)`` and the byte offsets of each
  application's entry and profile frames, keyed by a SHA-256 of the
  segment's bytes.  A later open in the same process re-reads and
  re-hashes every segment but parses only new or changed ones; another
  ``(app, digest)`` of known bytes decodes just its application's
  frames.  So a warm open serves exactly what a full scan would.

The serving path plugs into the campaign as
:class:`StoreBackedExecutionCache`, a drop-in ``ExecutionCache`` whose
misses fall through to the loaded persistent entries (promote-on-hit)
and whose stores also append a durable record.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import zlib
from array import array
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from repro.common.errors import ReproError
from repro.common.faults import DiskFaultPlan, FaultyFile
from repro.core.checkpoint import fsync_directory
from repro.core.execcache import ExecutionCache, copy_outcome
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


#: the StoreStats counters a profile's run moves (lookups and appends).
TRAFFIC = ("hits", "misses", "appends", "write_errors")


def _frame(payload: bytes) -> bytes:
    return MAGIC + _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _payload(record: Mapping[str, Any]) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _encode(record: Mapping[str, Any]) -> bytes:
    return _frame(_payload(record))


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
    for kind, value, _ in _frames(data):
        yield kind, value


def _frames(data: bytes) -> Iterator[Tuple[str, Any, int]]:
    """:func:`iter_frames`' events, each with the byte offset where it
    starts (for a record, its frame's magic marker)."""
    offset, size = 0, len(data)
    while offset < size:
        start = data.find(MAGIC, offset)
        if start < 0:
            yield ("corrupt", offset, offset)
            return
        if start > offset:
            yield ("corrupt", offset, offset)
        header_end = start + len(MAGIC) + _FRAME_HEADER.size
        if header_end > size:
            yield ("truncated", start, start)
            return
        length, crc = _FRAME_HEADER.unpack(
            data[start + len(MAGIC):header_end])
        if length > MAX_RECORD:
            yield ("corrupt", start, start)
            offset = start + 1
            continue
        end = header_end + length
        if end > size:
            yield ("truncated", start, start)
            return
        payload = data[header_end:end]
        if zlib.crc32(payload) != crc:
            yield ("corrupt", start, start)
            offset = start + 1
            continue
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            yield ("corrupt", start, start)
            offset = start + 1
            continue
        yield ("record", record, start)
        offset = end


def _decode_at(data: bytes, start: int) -> Any:
    """The payload of the verified frame that starts at ``start``."""
    header_end = start + len(MAGIC) + _FRAME_HEADER.size
    length, _ = _FRAME_HEADER.unpack(data[start + len(MAGIC):header_end])
    return json.loads(data[header_end:header_end + length].decode("utf-8"))


@dataclass
class _SegmentScan:
    """Everything recovered from one segment file."""

    name: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    corrupt: int = 0
    truncated: int = 0
    #: see :class:`_SegmentIndex`.
    frames: Dict[str, "array[int]"] = field(default_factory=dict)
    reports: int = 0
    future: bool = False

    @property
    def damaged(self) -> bool:
        """True when the scan hit any corrupt record or truncated tail."""
        return bool(self.corrupt or self.truncated)

    def add(self, record: Dict[str, Any], start: int) -> None:
        """Keep one intact record, whose frame starts at ``start``."""
        self.records.append(record)
        kind = record.get("kind")
        if kind == "entry" or kind == "profile":
            app = record.get("app")
            if isinstance(app, str):
                self.frames.setdefault(app, array("q")).append(start)
        elif kind == "report":
            self.reports += 1
        elif kind == "header":
            version = record.get("version")
            if isinstance(version, int) and version > STORE_VERSION:
                self.future = True

    def index(self) -> "_SegmentIndex":
        return _SegmentIndex(self.name, len(self.records), self.corrupt,
                             self.truncated, self.reports, self.future,
                             self.frames)


@dataclass(frozen=True)
class _SegmentIndex:
    """A parsed segment without its records: where each application's
    entry and profile frames start (each verified when the bytes were
    first parsed), and the counts every open folds in."""

    name: str
    records: int
    corrupt: int
    truncated: int
    reports: int
    #: a header from a newer format version: serve by a full scan.
    future: bool
    #: app -> start offset of each of its entry and profile frames, in
    #: file order.
    frames: Dict[str, "array[int]"]


def _read_segment(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _scan_segment(path: str) -> _SegmentScan:
    """Read and decode one segment; no per-process reuse."""
    return _scan_data(os.path.basename(path), _read_segment(path))


def _scan_data(name: str, data: Optional[bytes]) -> _SegmentScan:
    scan = _SegmentScan(name=name)
    if data is None:  # unreadable
        scan.corrupt += 1
        return scan
    for kind, value, start in _frames(data):
        if kind == "record":
            if isinstance(value, dict):
                scan.add(value, start)
            else:
                scan.corrupt += 1
        elif kind == "corrupt":
            scan.corrupt += 1
        else:
            scan.truncated += 1
    return scan


@dataclass(frozen=True)
class _PackedProfile:
    """A stored whole-profile record kept as its zlib-compressed JSON
    payload, a quarter of its encoded size; a session decodes it on
    first lookup.  ``confirmed`` stays decoded because
    :meth:`ResultStore.confirmed_params` reads it from every record."""

    payload: bytes
    confirmed: Any

    @classmethod
    def pack(cls, record: Mapping[str, Any]) -> "_PackedProfile":
        return cls(zlib.compress(_payload(record), 1),
                   record.get("confirmed", ()))

    def decode(self) -> Dict[str, Any]:
        return json.loads(zlib.decompress(self.payload))


#: A session map value: packed until first looked up, or appended.
_ProfileSlot = Union[_PackedProfile, Dict[str, Any]]


@dataclass
class _Served:
    """One segment's contribution to an open of one ``(app, digest)``.

    Maps hold the segment's newest record per key, in first-seen order,
    so applying segments in name order leaves a session's maps exactly
    as a record-by-record scan would.  ``error`` is the StoreError that
    a future-version header raises once the records before it are in.
    Shared by every session that opens the same bytes, so never mutated
    after it is built.
    """

    counts: Dict[str, int] = field(default_factory=dict)
    det: Dict[str, RunOutcome] = field(default_factory=dict)
    seeded: Dict[Tuple[str, int], RunOutcome] = field(default_factory=dict)
    profiles_by_key: Dict[str, _PackedProfile] = field(default_factory=dict)
    profile_by_test: Dict[str, _PackedProfile] = field(default_factory=dict)
    error: Optional[str] = None


def _serve_scan(scan: _SegmentScan, app: str, digest: int) -> _Served:
    """The serving state of one scanned segment for ``(app, digest)``."""
    served = _serve_records(scan.name, scan.records, app, digest,
                            scan.corrupt, scan.truncated)
    if served.error is None and scan.damaged:
        served.counts["salvaged_records"] = len(scan.records)
    return served


def _serve_index(index: _SegmentIndex, data: bytes, app: str,
                 digest: int) -> _Served:
    """:func:`_serve_scan` of the bytes ``index`` was built from,
    decoding only ``app``'s entry and profile frames: every other record
    is one :func:`_serve_records` skips or only counts."""
    if index.future:
        return _serve_scan(_scan_data(index.name, data), app, digest)
    served = _serve_records(
        index.name, (_decode_at(data, start)
                     for start in index.frames.get(app, ())),
        app, digest, index.corrupt, index.truncated)
    if index.reports:
        served.counts["reports_loaded"] = index.reports
    if index.corrupt or index.truncated:
        served.counts["salvaged_records"] = index.records
    return served


def _serve_records(name: str, records: Iterable[Dict[str, Any]], app: str,
                   digest: int, corrupt: int, truncated: int) -> _Served:
    """Fold one segment's intact records, in file order."""
    served = _Served()
    counts = served.counts
    counts["segments"] = 1
    counts["corrupt_records"] = corrupt
    counts["truncated_tails"] = truncated

    def bump(name: str) -> None:
        counts[name] = counts.get(name, 0) + 1

    # equal outcomes share one object: lookups hand out copies anyway.
    outcomes: Dict[Tuple[Any, ...], RunOutcome] = {}
    loaded = 0
    for record in records:
        kind = record.get("kind")
        if kind == "header":
            version = record.get("version")
            if isinstance(version, int) and version > STORE_VERSION:
                served.error = (
                    "store segment %s was written by format version %d; "
                    "this build reads up to version %d — refusing to guess"
                    % (name, version, STORE_VERSION))
                return served
            continue
        if kind == "report":
            bump("reports_loaded")
            continue
        if kind == "profile":
            # Profile records are filtered by app only, NOT by corpus
            # digest: reusing them across registry drift is the whole
            # point — the per-profile content key embeds the parameter
            # definitions, so staleness is decided per profile, not per
            # substrate.
            if record.get("app") != app:
                continue
            key = record.get("key")
            test = record.get("test")
            if not isinstance(key, str) or not isinstance(test, str) \
                    or not isinstance(record.get("record"), dict):
                bump("corrupt_records")
                continue
            packed = _PackedProfile.pack(record)
            served.profiles_by_key[key] = packed
            served.profile_by_test[test] = packed
            bump("profiles_loaded")
            continue
        if kind != "entry" or record.get("app") != app:
            continue
        if record.get("digest") != digest:
            bump("stale_refused")
            continue
        fields = _outcome_fields(record)
        if fields is None:
            bump("corrupt_records")
            continue
        outcome = outcomes.get(fields)
        if outcome is None:
            outcome = outcomes[fields] = RunOutcome(*fields)
        key = record["key"]
        seed = record.get("seed")
        if seed is None:
            served.det[key] = outcome
        else:
            served.seeded[(key, int(seed))] = outcome
        loaded += 1
    counts["entries_loaded"] = loaded
    return served


#: Segment name -> (SHA-256 of its bytes, their index,
#: {(app, digest): _Served}).
_SegmentMemo = Dict[str, Tuple[bytes, _SegmentIndex,
                               Dict[Tuple[str, int], _Served]]]

#: Per-process decoded segments, per segments directory, most recently
#: opened last.  Only ``ResultStore.open`` reads it; see
#: :func:`_decoded_segments` and :func:`_serve_segment`.
_DECODED: "OrderedDict[str, _SegmentMemo]" = OrderedDict()
_DECODED_LOCK = threading.Lock()
#: Stores whose decoded segments are kept; opening another one drops
#: the least recently opened.
_DECODED_ROOTS = 8


def _decoded_segments(segments_dir: str, paths: Sequence[str]
                      ) -> _SegmentMemo:
    """This directory's memo, minus segments that no longer exist."""
    names = {os.path.basename(path) for path in paths}
    where = os.path.abspath(segments_dir)
    with _DECODED_LOCK:
        memo = _DECODED.pop(where, {})
        for name in [name for name in memo if name not in names]:
            del memo[name]
        _DECODED[where] = memo
        while len(_DECODED) > _DECODED_ROOTS:
            _DECODED.popitem(last=False)
    return memo


def _serve_segment(memo: _SegmentMemo, path: str, app: str,
                   digest: int) -> _Served:
    """The serving state of one segment for ``(app, digest)``: from
    ``memo`` when this process already served these exact bytes to this
    substrate, from their index when it parsed them for another, else
    from a full scan, which is then memoised with its index."""
    name = os.path.basename(path)
    data = _read_segment(path)
    if data is None:
        return _serve_scan(_scan_data(name, None), app, digest)
    sha = hashlib.sha256(data).digest()
    with _DECODED_LOCK:
        cached = memo.get(name)
        served = None
        if cached is not None and cached[0] == sha:
            served = cached[2].get((app, digest))
    if served is not None:
        return served
    if cached is None or cached[0] != sha:
        scan = _scan_data(name, data)
        cached = (sha, scan.index(), {})
        served = _serve_scan(scan, app, digest)
    else:
        served = _serve_index(cached[1], data, app, digest)
    with _DECODED_LOCK:
        memo[name] = cached
        cached[2][(app, digest)] = served
    return served


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
        self._lock = threading.Lock()
        self.app: Optional[str] = None
        self.digest: Optional[int] = None
        self._det: Dict[str, RunOutcome] = {}
        self._seeded: Dict[Tuple[str, int], RunOutcome] = {}
        # whole-profile records for incremental planning (repro.core.plan):
        # newest record per content key, and per test name (so a changed
        # test is classified RERUN rather than NEW).
        self._profiles_by_key: Dict[str, _ProfileSlot] = {}
        self._profile_by_test: Dict[str, _ProfileSlot] = {}
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

    def _next_segment_name(self) -> str:
        """One past the highest existing segment index, so a new segment
        sorts, and is read, after every older one: "newest wins" across
        segments depends on it.  Callers hold ``LOCK``."""
        highest = 0
        for path in self._segment_paths():
            stem = os.path.basename(path)[len(_SEGMENT_PREFIX):
                                          -len(_SEGMENT_SUFFIX)]
            if stem.isdigit():
                highest = max(highest, int(stem))
        return "%s%06d%s" % (_SEGMENT_PREFIX, highest + 1, _SEGMENT_SUFFIX)

    def _ensure_layout(self) -> None:
        try:
            os.makedirs(self.segments_dir, exist_ok=True)
        except OSError as exc:
            raise StoreError("cannot create store at %r: %s"
                             % (self.root, exc))

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

        Segments whose exact bytes this process already decoded for
        ``(app, digest)`` are served from memory (see
        :func:`_serve_segment`); the maps and ``StoreStats`` are the same
        either way.  Never raises on damage; raises :class:`StoreError`
        only for an unusable root or a store written by a newer format
        version.
        """
        self._ensure_layout()
        self.app = app
        self.digest = digest
        paths = self._segment_paths()
        memo = _decoded_segments(self.segments_dir, paths)
        for path in paths:
            self._apply(_serve_segment(memo, path, app, digest))
        return self.stats

    def _apply(self, served: _Served) -> None:
        """Fold one segment's serving state into this session's own maps
        (the shared state itself is never written)."""
        with self._lock:
            for name, count in served.counts.items():
                setattr(self.stats, name, getattr(self.stats, name) + count)
            self._det.update(served.det)
            self._seeded.update(served.seeded)
            self._profiles_by_key.update(served.profiles_by_key)
            self._profile_by_test.update(served.profile_by_test)
        if served.error is not None:
            raise StoreError(served.error)

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
                return copy_outcome(outcome), False
            outcome = self._seeded.get((key, seed))
            if outcome is not None:
                self.stats.hits += 1
                return copy_outcome(outcome), True
            self.stats.misses += 1
            return None, False

    def lookup_profile(self, key: str) -> Optional[Dict[str, Any]]:
        """The newest whole-profile record with this content key."""
        return self._profile(self._profiles_by_key, key)

    def profile_for_test(self, test: str) -> Optional[Dict[str, Any]]:
        """The newest whole-profile record for this unit test (any key)."""
        return self._profile(self._profile_by_test, test)

    def _profile(self, table: Dict[str, _ProfileSlot], key: str
                 ) -> Optional[Dict[str, Any]]:
        """``table[key]``, decoded into this session's map on first use."""
        with self._lock:
            record = table.get(key)
            if isinstance(record, _PackedProfile):
                record = table[key] = record.decode()
            return record

    def confirmed_params(self) -> Set[str]:
        """Every parameter the newest stored profiles confirmed unsafe —
        the blacklist-coupling closure's raw material."""
        with self._lock:
            confirmed: Set[str] = set()
            for record in self._profile_by_test.values():
                listed = record.confirmed \
                    if isinstance(record, _PackedProfile) \
                    else record.get("confirmed", ())
                confirmed.update(str(p) for p in listed)
            return confirmed

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _claim_segment_locked(self) -> Optional[Any]:
        """Allocate and open a fresh segment for this pid.  Returns the
        writable handle (header already durable) or None on failure."""
        lock = self._claim_lock()
        try:
            name = self._next_segment_name()
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

    def traffic(self) -> Dict[str, int]:
        """The :data:`TRAFFIC` counters so far."""
        with self._lock:
            return {name: getattr(self.stats, name) for name in TRAFFIC}

    def add_traffic(self, traffic: Mapping[str, Any]) -> None:
        """Count :data:`TRAFFIC` another process made on this store."""
        with self._lock:
            for name in TRAFFIC:
                setattr(self.stats, name, getattr(self.stats, name)
                        + int(traffic.get(name, 0)))

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
                        # re-insert, so the dict stays oldest-first and
                        # the newest record per test is written last.
                        slot = (str(record.get("app")),
                                str(record.get("key")))
                        live_profiles.pop(slot, None)
                        live_profiles[slot] = record
                compacted.append(os.path.basename(path))
            if not compacted:
                return {"compacted_segments": 0, "kept_segments": len(skipped),
                        "entries": 0, "profiles": 0, "reports": 0,
                        "dropped_damage": dropped_damage}
            name = self._next_segment_name()
            path = os.path.join(self.segments_dir, name)
            with open(path, "wb") as handle:
                handle.write(_encode({"kind": "header",
                                      "version": STORE_VERSION,
                                      "app": None, "digest": None,
                                      "compacted": True,
                                      "writer_pid": os.getpid()}))
                for slot in sorted(live_entries, key=repr):
                    handle.write(_encode(live_entries[slot]))
                for record in live_profiles.values():
                    handle.write(_encode(record))
                for who in sorted(live_reports, key=repr):
                    handle.write(_encode(live_reports[who]))
                handle.flush()
                os.fsync(handle.fileno())
            fsync_directory(path)
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


def _outcome_fields(record: Mapping[str, Any]) -> Optional[Tuple[Any, ...]]:
    """An entry's ``RunOutcome`` fields, in declaration order, or None
    when the record is malformed."""
    payload = record.get("outcome")
    if not isinstance(payload, dict):
        return None
    try:
        return (bool(payload["ok"]),
                str(payload.get("error_type", "")),
                str(payload.get("error_message", "")),
                bool(payload.get("timed_out", False)),
                bool(payload.get("infra", False)),
                int(payload.get("retries", 0)),
                int(payload.get("faults", 0)),
                bool(payload.get("rng_used", False)))
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

    def lookup(self, test_name: str, canonical: Any, seed: int,
               text: Optional[str] = None) -> Optional[Any]:
        """Memory first, then disk; a disk hit is promoted into memory."""
        key = self._key(test_name, canonical, text)
        outcome = self._deterministic.get(key)
        if outcome is None:
            outcome = self._seeded.get((key, seed))
        if outcome is not None:
            self.hits += 1
            return copy_outcome(outcome)
        stored, seed_sensitive = self.backing.lookup_entry(key, seed)
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        if seed_sensitive:
            self._seeded[(key, seed)] = stored
        else:
            self._deterministic[key] = stored
        return copy_outcome(stored)

    def store(self, test_name: str, canonical: Any, seed: int, outcome: Any,
              seed_sensitive: bool, text: Optional[str] = None) -> bool:
        """Cache in memory, and persist iff the cache accepted the entry
        (so nothing uncacheable — infra outcomes — ever reaches disk)."""
        cached = super().store(test_name, canonical, seed, outcome,
                               seed_sensitive, text)
        if cached:
            self.backing.append_entry(self._key(test_name, canonical, text),
                                      seed if seed_sensitive else None,
                                      outcome)
        return cached
