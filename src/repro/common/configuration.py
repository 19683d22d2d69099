"""Hadoop-style ``Configuration`` with ZebraConf's ConfAgent hook points.

This mirrors Fig. 2a of the paper: the blank constructor calls
``ConfAgent.newConf``, the copy constructor calls ``ConfAgent.cloneConf``,
``get`` consults ``ConfAgent.interceptGet`` first, and ``set`` notifies
``ConfAgent.interceptSet`` (which writes values through to the parent conf
when the object is a node-side clone of a unit-test conf).

Inside a test execution a conf also keeps a *view*: the final value of
every name read so far, tagged with the agent's ``view_token``.  A read
whose token still matches is one dict lookup; ``set``/``raw_set``/
``unset`` drop the conf's view, and the agent replaces its token on every
ownership change, which drops every view built under the old one.  Agents
that must observe each read (the pre-run's recorder, the audit's probes,
the thread-ownership ablation) carry no token, so their reads always
reach ``interceptGet``.

Outside a ZebraConf session the hooks hit the inert
:class:`repro.core.confagent.NullAgent` and the class behaves exactly like
the unmodified application's configuration class.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.params import ParamRegistry
from repro.core.confagent import NO_OVERRIDE, current_agent

_UNSET = object()

#: The view of a conf that holds no resolved values.  Its token is a
#: private object no agent ever carries, so it never matches.
_NO_VIEW: Tuple[object, Dict[str, Any]] = (object(), {})


class Configuration:
    """Typed key/value configuration with registry-backed defaults."""

    #: Subclasses bind their application's parameter registry here so that
    #: ``Configuration()`` knows the default of every documented parameter.
    registry: Optional[ParamRegistry] = None

    def __init__(self, source: Optional["Configuration"] = None) -> None:
        self._properties: Dict[str, Any] = {}
        #: Monotonic per-object write counter.  Cheap cache-invalidation
        #: signal for consumers (e.g. the IPC cross-check memo) that need
        #: "has this conf changed since I last looked?" without hashing
        #: the property map.
        self._mutations = 0
        #: (agent view token, {name -> resolved value}).  One attribute,
        #: so a read never pairs one agent's token with another's values.
        self._view: Tuple[object, Dict[str, Any]] = _NO_VIEW
        if source is None:
            current_agent().new_conf(self)
        else:
            self._properties.update(source._properties)
            if self.registry is None:
                self.registry = source.registry
            current_agent().clone_conf(source, self)

    # ------------------------------------------------------------------
    # core get/set
    # ------------------------------------------------------------------
    def get(self, name: str, default: Any = _UNSET) -> Any:
        """The value of ``name`` as seen by *this object's owner*.

        Resolution order: ZebraConf-injected value (if an active agent has
        an assignment for this object's node), explicitly set value,
        registry default, the ``default`` argument.  The first three are
        kept in the conf's view while the agent's token is unchanged; an
        answer from ``default`` is not.
        """
        agent = current_agent()
        agent_token = agent.view_token
        token, view = self._view
        if token is agent_token:
            value = view.get(name, _UNSET)
            if value is not _UNSET:
                return value
        value = agent.intercept_get(self, name)
        if value is NO_OVERRIDE:
            value = self._properties.get(name, _UNSET)
            if value is _UNSET and self.registry is not None:
                value = self.registry.defaults.get(name, _UNSET)
            if value is _UNSET:
                if default is not _UNSET:
                    return default
                raise ConfigurationError(
                    "unknown parameter %r and no default given" % name)
        if agent_token is not None:
            if token is agent_token:
                view[name] = value
            else:
                self._view = (agent_token, {name: value})
        return value

    def set(self, name: str, value: Any) -> None:
        current_agent().intercept_set(self, name, value)
        self._properties[name] = value
        self._mutations += 1
        self._view = _NO_VIEW

    def raw_set(self, name: str, value: Any) -> None:
        """Store without notifying the agent (used by write-through)."""
        self._properties[name] = value
        self._mutations += 1
        self._view = _NO_VIEW

    def unset(self, name: str) -> None:
        self._properties.pop(name, None)
        self._mutations += 1
        self._view = _NO_VIEW

    def is_explicitly_set(self, name: str) -> bool:
        return name in self._properties

    # ------------------------------------------------------------------
    # typed accessors
    # ------------------------------------------------------------------
    def get_bool(self, name: str, default: Any = _UNSET) -> bool:
        value = self.get(name, default)
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
        if isinstance(value, int):
            return bool(value)
        raise ConfigurationError("parameter %r=%r is not a boolean" % (name, value))

    def get_int(self, name: str, default: Any = _UNSET) -> int:
        value = self.get(name, default)
        if isinstance(value, bool):
            raise ConfigurationError("parameter %r=%r is not an int" % (name, value))
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigurationError("parameter %r=%r is not an int" % (name, value))

    def get_float(self, name: str, default: Any = _UNSET) -> float:
        value = self.get(name, default)
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigurationError("parameter %r=%r is not a float" % (name, value))

    def get_str(self, name: str, default: Any = _UNSET) -> str:
        return str(self.get(name, default))

    def get_enum(self, name: str, default: Any = _UNSET) -> str:
        """A string value validated against the registry's enum values."""
        value = str(self.get(name, default))
        if self.registry is not None:
            values = self.registry.enum_values.get(name)
            if values is not None and value not in values:
                raise ConfigurationError(
                    "parameter %r=%r not in %r" % (name, value, values))
        return value

    # ------------------------------------------------------------------
    # cloning
    # ------------------------------------------------------------------
    def clone(self) -> "Configuration":
        """Copy-construct (triggers the cloneConf hook unless the agent is
        mid ``refToCloneConf``, which suppresses it)."""
        return type(self)(self)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def explicit_items(self) -> Iterator[Tuple[str, Any]]:
        return iter(sorted(self._properties.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(%d explicit)" % (type(self).__name__, len(self._properties))


def ref_to_clone(conf: Configuration) -> Configuration:
    """Fig. 2b line 17: replace a stored conf reference with a clone.

    Node initialization functions call this on the configuration argument
    they receive; under ZebraConf the returned clone is mapped to the node
    (Rule 2), while outside a session the original reference is returned
    unchanged, preserving stock behaviour.
    """
    return current_agent().ref_to_clone_conf(conf)
