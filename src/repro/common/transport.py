"""Length-prefixed JSON framing over TCP, with deterministic chaos hooks.

The distributed campaign protocol (:mod:`repro.core.distrib`) moves
small JSON messages — leases, heartbeats, serialized ProfileOutcomes —
between a coordinator and its remote workers.  This module owns the
byte-level concerns so the protocol layer never touches a socket
directly:

* **Framing.**  Every message is ``4-byte big-endian length + UTF-8
  JSON``.  Short reads, EOF mid-frame, and oversized frames surface as
  :class:`TransportError` instead of garbled JSON.
* **Chaos.**  A frozen :class:`repro.common.faults.NetFaultPlan`
  (re-exported here) injects faults on the *real* socket layer,
  deterministically: every decision is drawn from
  :func:`repro.common.faults.fault_seed` over ``(plan seed, connection
  id, frame index)``, so the same plan against the same traffic produces
  the same drops/delays/partitions on every run.  Three fault kinds:

  - ``drop``       — an outbound frame is silently discarded; the peer's
    reply never comes and the caller's read deadline fires;
  - ``delay``      — an outbound frame is held back for a bounded time
    before hitting the wire;
  - ``partition``  — after N outbound frames the link is severed (the
    socket is closed mid-conversation); every later use of the
    transport fails like a genuine network partition.

The chaos sits *inside* :meth:`FrameTransport.send`, not in the protocol
layer: redelivery, reconnection, and duplicate suppression are then
exercised against real connection failures, which is the point.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.faults import NetFaultPlan

#: Frame length prefix: 4-byte unsigned big-endian.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame; a corrupt/hostile length prefix must not
#: make the receiver allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class TransportError(ReproError):
    """The connection is unusable (EOF, reset, injected partition)."""


class TransportTimeout(TransportError):
    """No frame arrived within the read deadline (connection may still
    be alive — the caller decides whether that means *dead peer*)."""


class FrameTransport:
    """One framed JSON connection, with optional injected chaos.

    ``send`` is thread-safe (the worker's heartbeat thread shares the
    transport with its request loop); ``recv`` must stay single-reader.
    ``on_fault(kind)`` is invoked for every injected fault so the
    protocol layer can count them into its stats.
    """

    def __init__(self, sock: socket.socket, conn_id: str = "",
                 plan: Optional[NetFaultPlan] = None,
                 on_fault: Optional[Callable[[str], None]] = None) -> None:
        self.sock = sock
        self.conn_id = conn_id
        self.plan = plan if plan is not None and plan.active else None
        self.on_fault = on_fault
        self.frames_sent = 0
        self.frames_received = 0
        #: injected fault kind -> count (observability, not behaviour).
        self.fault_counts: Dict[str, int] = {}
        self._send_lock = threading.Lock()
        self._closed = False
        #: bytes of the in-progress inbound frame (header + payload so
        #: far).  A read deadline can fire mid-frame; the bytes already
        #: pulled off the stream stay here so the next ``recv`` resumes
        #: the same frame instead of parsing its payload as a header.
        self._rx_buf = bytearray()
        #: payload length of the in-progress frame, once the header is
        #: complete (None while still reading the header).
        self._rx_frame_len: Optional[int] = None
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP socket (tests)
            pass

    # ------------------------------------------------------------------
    def _count_fault(self, kind: str) -> None:
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if self.on_fault is not None:
            self.on_fault(kind)

    def send(self, message: Dict[str, Any]) -> None:
        payload = json.dumps(message, sort_keys=True).encode("utf-8")
        if len(payload) > MAX_FRAME_BYTES:
            raise TransportError("frame of %d bytes exceeds the %d-byte "
                                 "limit" % (len(payload), MAX_FRAME_BYTES))
        with self._send_lock:
            if self._closed:
                raise TransportError("transport is closed")
            index = self.frames_sent
            self.frames_sent += 1
            plan = self.plan
            if plan is not None:
                if plan.partition_decision(index):
                    self._count_fault("partition")
                    self._close_locked()
                    raise TransportError(
                        "injected partition: link severed after %d frames"
                        % index)
                if plan.drop_decision(self.conn_id, index):
                    self._count_fault("drop")
                    return  # the frame vanishes; the peer sees nothing
                delay = plan.delay_decision(self.conn_id, index)
                if delay > 0.0:
                    self._count_fault("delay")
                    time.sleep(delay)
            try:
                self.sock.sendall(_HEADER.pack(len(payload)) + payload)
            except OSError as exc:
                raise TransportError("send failed: %s" % exc)

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        try:
            self.sock.settimeout(timeout)
        except OSError as exc:
            raise TransportError("socket unusable: %s" % exc)
        if self._rx_frame_len is None:
            self._fill(_HEADER.size)
            (length,) = _HEADER.unpack(bytes(self._rx_buf[:_HEADER.size]))
            if length > MAX_FRAME_BYTES:
                raise TransportError("peer announced a %d-byte frame (limit %d)"
                                     % (length, MAX_FRAME_BYTES))
            self._rx_frame_len = length
        self._fill(_HEADER.size + self._rx_frame_len)
        payload = bytes(self._rx_buf[_HEADER.size:])
        self._rx_buf.clear()
        self._rx_frame_len = None
        self.frames_received += 1
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise TransportError("undecodable frame: %s" % exc)
        if not isinstance(message, dict):
            raise TransportError("frame is not a JSON object: %r"
                                 % type(message).__name__)
        return message

    def _fill(self, count: int) -> None:
        """Grow ``_rx_buf`` to ``count`` bytes, preserving what is already
        buffered when the read deadline fires so a retried ``recv`` resumes
        the in-progress frame in sync with the stream."""
        while len(self._rx_buf) < count:
            try:
                chunk = self.sock.recv(count - len(self._rx_buf))
            except socket.timeout:
                raise TransportTimeout("no frame within the read deadline")
            except OSError as exc:
                raise TransportError("recv failed: %s" % exc)
            if not chunk:
                raise TransportError("connection closed by peer")
            self._rx_buf.extend(chunk)

    # ------------------------------------------------------------------
    def _close_locked(self) -> None:
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        # A supervisor thread closes the transport to unblock a sender
        # stuck in sendall() on a full kernel buffer — so the shutdown
        # must happen *before* taking _send_lock, which that sender
        # holds.  The fd itself is reclaimed under the lock afterwards.
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        with self._send_lock:
            self._close_locked()

    @property
    def closed(self) -> bool:
        return self._closed


# ---------------------------------------------------------------------------
# connection helpers
# ---------------------------------------------------------------------------
def parse_address(address: str, default_host: str = "127.0.0.1"
                  ) -> Tuple[str, int]:
    """``"HOST:PORT"``, ``":PORT"`` or bare ``"PORT"`` -> (host, port)."""
    text = address.strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host or default_host
    else:
        host, port_text = default_host, text
    try:
        port = int(port_text)
    except ValueError:
        raise TransportError("invalid address %r (want [HOST:]PORT)"
                             % address)
    if not 0 <= port <= 65535:
        raise TransportError("port %d out of range in %r" % (port, address))
    return host, port


def connect(host: str, port: int, timeout: float = 5.0,
            conn_id: str = "", plan: Optional[NetFaultPlan] = None,
            on_fault: Optional[Callable[[str], None]] = None
            ) -> FrameTransport:
    """Dial and wrap; connection failures surface as TransportError."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError("connect to %s:%d failed: %s"
                             % (host, port, exc))
    sock.settimeout(None)
    return FrameTransport(sock, conn_id=conn_id, plan=plan, on_fault=on_fault)
