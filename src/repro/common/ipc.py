"""Hadoop-style RPC: SASL-protected calls, rpc timeouts, shared IPC quirk.

Three behaviours from the paper live here:

* ``hadoop.rpc.protection`` — client and server each advertise exactly the
  SASL QOP from their own configuration; disjoint offers abort the
  connection (Table 3, Hadoop Common).
* ``ipc.client.rpc-timeout.ms`` — a client enforces *its* read deadline
  while a server paces keepalives on long calls according to *its own*
  idea of the timeout; a client with a short deadline talking to a server
  configured with a long one starves and times out (Table 3).
* the **shared IPC component** — in Hadoop unit tests "different nodes
  share the InterProcess Communication (IPC) component, which has its own
  configuration object [but] sometimes reads configuration values from
  external configuration objects as well" (§7.1, causes of false
  positives).  :class:`IpcComponent` reproduces this: it cross-checks
  connection parameters read through the caller's conf against its own
  conf, which fires spuriously under heterogeneous injection for four
  ``ipc.client.*`` parameters.  ``shared=False`` is the paper's one-line
  Hadoop fix that makes those false alarms disappear.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.common.configuration import Configuration
from repro.common.errors import RpcError, SocketTimeout
from repro.common.faults import current_injector
from repro.common.wire import negotiate_sasl, roundtrip_payload
from repro.core.confagent import current_agent

#: Parameters the shared IPC component reads both ways (the four
#: IPC-related false-positive parameters of §7.1).
IPC_SHARED_PARAMS = (
    "ipc.client.connect.max.retries",
    "ipc.client.connect.retry.interval",
    "ipc.client.idlethreshold",
    "ipc.client.kill.max",
)

#: Hadoop's default client ping cadence when no rpc timeout is set.
DEFAULT_PING_INTERVAL_MS = 60000

#: Switch for the paper's one-line Hadoop fix ("After we modified one
#: line of code in Hadoop to disable the sharing, the false alarms
#: disappeared"), read when clusters build their IpcComponent.  Per
#: context, like the ConfAgent, so each campaign thread keeps its own.
_ipc_sharing: ContextVar[bool] = ContextVar("ipc_sharing", default=True)


def set_ipc_sharing(enabled: bool) -> bool:
    """Enable/disable IPC-component sharing in this context; returns the
    previous value."""
    previous = _ipc_sharing.get()
    _ipc_sharing.set(enabled)
    return previous


def ipc_sharing_enabled() -> bool:
    return _ipc_sharing.get()


# Shared constant dicts: _wire_opts is on the per-RPC hot path and the
# options are only ever splatted into encode/decode (never mutated).
_PRIVACY_OPTS: Dict[str, Any] = {"encryption_key": b"sasl-privacy-wrap"}
_PLAIN_OPTS: Dict[str, Any] = {}


def _wire_opts(protection: str) -> Dict[str, Any]:
    if protection == "privacy":
        return _PRIVACY_OPTS
    return _PLAIN_OPTS


class RpcServer:
    """Server endpoint owned by one node; reads the node's conf lazily."""

    def __init__(self, owner: str, conf: Configuration) -> None:
        self.owner = owner
        self.conf = conf
        self._methods: Dict[str, Callable[..., Any]] = {}
        self.calls_served = 0

    def register(self, method: str, handler: Callable[..., Any]) -> None:
        self._methods[method] = handler

    def protection(self) -> str:
        return self.conf.get_enum("hadoop.rpc.protection")

    def keepalive_interval_s(self) -> float:
        """How often the server emits progress bytes on a long call.

        The server paces keepalives assuming clients use the timeout *it*
        is configured with (half the deadline, as Hadoop's ping logic
        does); with no timeout configured it falls back to the default
        60 s ping cadence.
        """
        timeout_ms = self.conf.get_int("ipc.client.rpc-timeout.ms")
        if timeout_ms <= 0:
            return DEFAULT_PING_INTERVAL_MS / 1000.0
        return timeout_ms / 2000.0

    def _dispatch(self, method: str, args: Any) -> Any:
        if method not in self._methods:
            raise RpcError("no such RPC method %s.%s" % (self.owner, method))
        self.calls_served += 1
        return self._methods[method](*args)


class RpcClient:
    """Client endpoint reading the calling node's (or test's) conf."""

    def __init__(self, conf: Configuration,
                 ipc: Optional["IpcComponent"] = None) -> None:
        self.conf = conf
        self.ipc = ipc

    def protection(self) -> str:
        return self.conf.get_enum("hadoop.rpc.protection")

    def timeout_s(self) -> float:
        timeout_ms = self.conf.get_int("ipc.client.rpc-timeout.ms")
        return timeout_ms / 1000.0 if timeout_ms > 0 else float("inf")

    # ------------------------------------------------------------------
    # Both call forms hand the handler and the caller what the wire would:
    # ``roundtrip_payload`` of the bare arguments (a list, since JSON has
    # no tuples) and of the bare result.  JSON encodes each member of a
    # container independently, so copying the two payloads apart equals
    # copying one envelope holding both.
    def call(self, server: RpcServer, method: str, *args: Any) -> Any:
        """Instantaneous RPC: handshake + encode/decode, no simulated time."""
        injector = current_injector()
        # The fault label, formatted only for an injector that reports it.
        what = ("rpc %s.%s" % (server.owner, method)) if injector.active else ""
        if injector.drop_message(what):
            raise SocketTimeout("injected fault: %s request dropped" % what)
        level = negotiate_sasl(self.protection(), server.protection(), what="rpc")
        if self.ipc is not None:
            self.ipc.check_connection_params(self.conf)
        opts = _wire_opts(level)
        request = roundtrip_payload(args, **opts)
        if injector.duplicate_message(what):
            # at-least-once delivery: the server processes the request
            # twice; non-idempotent handlers corrupt state accordingly.
            server._dispatch(method, request)
        return roundtrip_payload(server._dispatch(method, request), **opts)

    def call_timed(self, server: RpcServer, method: str, args: Tuple[Any, ...],
                   duration: float) -> Generator:
        """Long-running RPC as a simulation process body.

        The server works for ``duration`` simulated seconds, emitting a
        keepalive every :meth:`RpcServer.keepalive_interval_s`; the client
        aborts when it sees no bytes for :meth:`timeout_s`.
        """
        injector = current_injector()
        what = ("rpc %s.%s" % (server.owner, method)) if injector.active else ""
        level = negotiate_sasl(self.protection(), server.protection(), what="rpc")
        if self.ipc is not None:
            self.ipc.check_connection_params(self.conf)
        opts = _wire_opts(level)
        # serialised when sent: later changes to the caller's objects do
        # not reach the server.
        request = roundtrip_payload(args, **opts)
        client_deadline = self.timeout_s()
        keepalive = server.keepalive_interval_s()
        if injector.drop_message(what):
            # The request never reaches the server: the client sees no
            # bytes at all and gives up at its deadline (or, with no
            # deadline configured, after the call's nominal duration).
            wait = client_deadline if client_deadline != float("inf") else duration
            yield wait
            raise SocketTimeout("injected fault: %s request dropped "
                                "(gave up after %.3fs)" % (what, wait))
        # An injected network delay widens the first inter-byte gap, so a
        # tight client deadline can genuinely trip on it.
        gap_extra = injector.message_delay(what)
        remaining = duration
        while remaining > 0:
            work = min(keepalive, remaining)
            gap = work + gap_extra
            gap_extra = 0.0
            if gap > client_deadline:
                yield client_deadline
                raise SocketTimeout(
                    "rpc %s.%s: no response within %.3fs (server keepalive "
                    "cadence %.3fs)" % (server.owner, method, client_deadline,
                                        keepalive))
            yield gap
            remaining -= work
        return roundtrip_payload(server._dispatch(method, request), **opts)


class IpcComponent:
    """Process-wide IPC machinery shared by every node in a unit test.

    Created lazily by the first node that makes an RPC call, so its own
    configuration object is mapped (Rule 1.1) to *that* node.  Each
    connection setup then reads the four ``ipc.client.*`` parameters both
    through the caller's conf and through the component's own conf and
    insists they agree — which is always true in a real deployment (one
    process, one conf) but false under heterogeneous injection.
    """

    def __init__(self, conf_factory: Callable[[], Configuration],
                 shared: bool = True) -> None:
        self.shared = shared
        # The component's own configuration object is created *now*, i.e.
        # inside the init scope of whichever node builds the component
        # first — so Rule 1.1 maps it to that node, setting up the
        # cross-node sharing the paper observed in Hadoop.
        self._own_conf: Optional[Configuration] = conf_factory() if shared else None
        self.cross_check_failures = 0
        #: caller-conf id -> (caller conf, validity key): a *passed*
        #: cross-check memoised so hot RPC loops skip the 8 ``get``\ s.
        #: The stored conf reference both pins the object (id stays
        #: unique) and lets a hit verify identity, not just id equality.
        self._check_memo: Dict[int, Tuple[Configuration, Tuple[Any, ...]]] = {}

    def _own(self, caller_conf: Configuration) -> Configuration:
        if not self.shared or self._own_conf is None:
            # The paper's one-line fix: no sharing, so the component's view
            # is simply the caller's view.
            return caller_conf
        return self._own_conf

    def check_connection_params(self, caller_conf: Configuration) -> None:
        own_conf = self._own(caller_conf)
        # Memoise passed checks: the outcome depends only on the two
        # confs' contents and the agent's injection mapping, so a repeat
        # check with unchanged mutation counters and ownership epoch must
        # pass again.  Skipped while the agent records usage (the pre-run
        # needs every ``get`` observed).  Failures are never memoised —
        # each failing call must raise and count, exactly like the
        # unmemoised loop.
        agent = current_agent()
        memo_key = None
        if not getattr(agent, "record_usage", False):
            memo_key = (id(own_conf),
                        getattr(caller_conf, "_mutations", -1),
                        getattr(own_conf, "_mutations", -1),
                        id(agent), getattr(agent, "ownership_epoch", 0))
            hit = self._check_memo.get(id(caller_conf))
            if (hit is not None and hit[0] is caller_conf
                    and hit[1] == memo_key):
                return
        for param in IPC_SHARED_PARAMS:
            external = caller_conf.get(param)
            internal = own_conf.get(param)
            if external != internal:
                self.cross_check_failures += 1
                raise RpcError(
                    "IPC connection parameter %s changed mid-flight: "
                    "connection built with %r, reused with %r"
                    % (param, internal, external))
        if memo_key is not None:
            self._check_memo[id(caller_conf)] = (caller_conf, memo_key)
