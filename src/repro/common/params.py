"""Configuration parameter definitions and per-application registries.

A :class:`ParamDef` describes one parameter: its type ("kind"), default
value, and — for TestGenerator's value-selection step (§4) — an optional
explicit list of *candidate values* worth testing.  When no candidates are
given, :func:`default_candidates` synthesises them with the paper's rules:
booleans test both values; numeric parameters test the default, a value
much larger, a value much smaller, and special sentinels like 0/-1 when
they are meaningful; enumerations test every documented value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

BOOL = "bool"
INT = "int"
FLOAT = "float"
STR = "str"
ENUM = "enum"
SIZE = "size"          # bytes
DURATION_MS = "duration_ms"
DURATION_S = "duration_s"

_NUMERIC_KINDS = (INT, FLOAT, SIZE, DURATION_MS, DURATION_S)


@dataclass(frozen=True)
class ParamDef:
    """Definition of one configuration parameter."""

    name: str
    kind: str
    default: Any
    description: str = ""
    candidates: Optional[Tuple[Any, ...]] = None
    #: enum values; required when kind == ENUM.
    values: Optional[Tuple[Any, ...]] = None
    #: free-form tags ("security", "heartbeat", ...) used in reports.
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == ENUM and not self.values:
            raise ValueError("enum parameter %s needs values" % self.name)

    def candidate_values(self) -> Tuple[Any, ...]:
        """Values TestGenerator will consider for this parameter."""
        if self.candidates is not None:
            return self.candidates
        return default_candidates(self)


def default_candidates(param: ParamDef) -> Tuple[Any, ...]:
    """Synthesise candidate values per the paper's §4 selection rules."""
    if param.kind == BOOL:
        return (True, False)
    if param.kind == ENUM:
        return tuple(param.values or ())
    if param.kind in _NUMERIC_KINDS:
        default = param.default
        if default in (0, -1, None):
            base = 1000
        else:
            base = default
        much_larger = base * 100
        much_smaller = max(base // 100, 1)
        out: List[Any] = []
        for value in (default, much_larger, much_smaller):
            if value is not None and value not in out:
                out.append(value)
        return tuple(out)
    if param.kind == STR:
        # Without documentation-listed values, a lone string parameter is
        # not varied (the paper selects documented values only).
        return (param.default,)
    raise ValueError("unknown parameter kind %r" % param.kind)


class ParamRegistry:
    """All parameters known to one application (its ``*-default.xml``)."""

    def __init__(self, app: str) -> None:
        self.app = app
        self._params: Dict[str, ParamDef] = {}
        #: name -> default and name -> enum values, kept beside the
        #: definitions so ``Configuration.get`` and ``get_enum`` answer
        #: with one dict probe instead of a method call.
        self.defaults: Dict[str, Any] = {}
        self.enum_values: Dict[str, Tuple[Any, ...]] = {}

    def register(self, param: ParamDef) -> ParamDef:
        if param.name in self._params:
            raise ValueError("duplicate parameter %s in %s" % (param.name, self.app))
        self._params[param.name] = param
        self.defaults[param.name] = param.default
        if param.values is not None:
            self.enum_values[param.name] = param.values
        return param

    def define(self, name: str, kind: str, default: Any, **kwargs: Any) -> ParamDef:
        return self.register(ParamDef(name=name, kind=kind, default=default, **kwargs))

    def get(self, name: str) -> ParamDef:
        return self._params[name]

    def maybe_get(self, name: str) -> Optional[ParamDef]:
        return self._params.get(name)

    def default_of(self, name: str) -> Any:
        return self.defaults[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self) -> Iterator[ParamDef]:
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> List[str]:
        return list(self._params)

    def merged_with(self, *others: "ParamRegistry") -> "ParamRegistry":
        """A new registry containing this registry plus ``others``.

        Hadoop applications all see Hadoop Common's parameters in addition
        to their own (§4, Table 1 caption); apps build their effective
        registry by merging with the common one.
        """
        merged = ParamRegistry(self.app)
        for registry in (self,) + others:
            for param in registry:
                if param.name not in merged:
                    merged.register(param)
        return merged

    def tagged(self, tag: str) -> List[ParamDef]:
        return [p for p in self if tag in p.tags]
