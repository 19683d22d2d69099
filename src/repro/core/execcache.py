"""Content-addressed execution cache: run each distinct execution once.

Pooled testing (§4) exists to amortise redundant executions, yet a naive
TestRunner still re-runs byte-identical work constantly: the
homogeneous-baseline run where every entity sees a parameter's *default*
value is the same execution for every parameter, strategy, and
value-pair layer of a unit test, and the multi-trial confirmation loop
(§5) re-executes an unchanged deterministic test dozens of times.

The cache exploits the determinism of the simulated corpus.  One
execution is fully described by

* the unit test (``test.full_name``),
* the **canonical form** of its configuration assignment
  (:func:`canonical_assignment` — order-insensitive, with homogeneous
  default-value injections collapsed onto the original configuration),
* the trial seed (which feeds ``ctx.rng`` and the fault injector),
* campaign-level context that shapes every run: the fault-plan hash,
  the watchdog budget, the infra-retry budget, IPC sharing.

Soundness argument, in two tiers:

* **Seeded entries** — an execution that consulted ``ctx.rng`` or ran
  under an active fault plan may depend on its seed, so its outcome is
  memoized under ``(context, test, canonical assignment, seed)``.  The
  simulation kernel draws randomness *only* from those two streams, so
  replaying the memoized outcome is indistinguishable from re-running.
* **Deterministic entries** — an execution that never touched
  ``ctx.rng`` and ran with no fault plan is a pure function of
  ``(context, test, canonical assignment)``: with no random draws and no
  injected faults, control flow is fully determined by the injected
  configuration values, so *no* seed can change the outcome (in
  particular it can never start consulting the rng).  Such outcomes are
  memoized seed-free, which is what lets the §5 confirmation loop and
  pool re-draws hit the cache across trials.

Infrastructure-error outcomes are never cached (counted as *bypasses*):
in a real deployment they are environment-flavoured and retry-worthy,
and caching them would defeat the pool re-draw logic.

Collapsing ``homo(param=default)`` onto the original configuration is
sound only when the unit test does not explicitly ``set`` that parameter
(an injected value shadows explicit sets).  The pre-run records each
test's explicitly-set parameters, and callers pass them as
``no_collapse`` so those parameters keep their own cache slots.
"""

from __future__ import annotations

import hashlib
import threading
import zlib
from dataclasses import replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.core.testgen import (HeteroAssignment, HomoAssignment,
                                ParamAssignment)

#: Canonical form of "no value injected anywhere" — the original run.
ORIGINAL: Tuple[str, ...] = ("original",)


def stable_seed(*parts: Any) -> int:
    """Deterministic cross-run seed from identifying strings/ints.

    Each part is length-prefixed before joining so that distinct part
    tuples can never produce the same byte stream — ``("a|b", "c")`` and
    ``("a", "b|c")`` must not share a seed.
    """
    pieces = []
    for part in parts:
        text = str(part)
        pieces.append("%d:%s" % (len(text), text))
    return zlib.crc32("".join(pieces).encode("utf-8"))


def canonical_assignment(assignment: Any,
                         registry: Optional[Any] = None,
                         no_collapse: Iterable[str] = ()) -> Tuple[Any, ...]:
    """A stable, content-addressed form of any runner assignment.

    Two assignments with equal canonical forms produce byte-identical
    executions.  ``registry`` (a ``ParamRegistry``) enables the
    homogeneous default-value collapse; parameters in ``no_collapse``
    (explicitly set by the unit test) are exempt from it.
    """
    if assignment is None:
        return ORIGINAL
    if isinstance(assignment, HomoAssignment):
        exempt = set(no_collapse)
        kept = []
        for name, value in assignment.canonical()[1]:
            if registry is not None and name not in exempt:
                param = registry.maybe_get(name)
                if param is not None and type(param.default) is type(value) \
                        and param.default == value:
                    # Injecting the default is indistinguishable from not
                    # injecting: the configuration would have returned the
                    # registry default anyway (the test never sets it).
                    continue
            kept.append((name, value))
        if not kept:
            return ORIGINAL
        return ("homo", tuple(kept))
    if isinstance(assignment, HeteroAssignment):
        return assignment.canonical()
    if isinstance(assignment, ParamAssignment):
        return ("hetero", (assignment.canonical(),))
    # Unknown assignment type: fall back to its repr so distinct objects
    # at least never share a slot spuriously via an empty form.
    return ("opaque", type(assignment).__name__, repr(assignment))


def fingerprint(canonical: Any) -> str:
    """Collision-resistant digest of a canonical structure."""
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


def execution_seed(test_name: str, canonical: Any, trial: int) -> int:
    """The trial seed for one execution, derived from *content*.

    Deriving seeds from the canonical assignment (rather than from
    display labels) means two executions with identical content always
    run under the same seed — so they are byte-identical and the cache
    may serve one for the other even when the execution is seed-
    sensitive.
    """
    return stable_seed(test_name, repr(canonical), trial)


class ExecutionCache:
    """Memoizes ``RunOutcome``s for one campaign.

    Thread-safe; under the supervised pool each worker inherits a
    fork-time copy, which is lossless because cache keys include the
    unit-test name and each worker owns whole unit-test profiles.
    """

    def __init__(self, context: Optional[Mapping[str, Any]] = None) -> None:
        #: campaign-level settings folded into every key, so a cache can
        #: never serve an outcome produced under a different fault plan,
        #: watchdog budget, or IPC-sharing mode.
        self.context_key = fingerprint(tuple(sorted(
            (str(k), repr(v)) for k, v in (context or {}).items())))
        self._lock = threading.Lock()
        self._deterministic: Dict[str, Any] = {}
        self._seeded: Dict[Tuple[str, int], Any] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    # ------------------------------------------------------------------
    def _key(self, test_name: str, canonical: Any) -> str:
        return fingerprint((self.context_key, test_name, canonical))

    def lookup(self, test_name: str, canonical: Any, seed: int) -> Optional[Any]:
        """The memoized outcome, or None.  Counts a hit or a miss."""
        key = self._key(test_name, canonical)
        with self._lock:
            outcome = self._deterministic.get(key)
            if outcome is None:
                outcome = self._seeded.get((key, seed))
            if outcome is None:
                self.misses += 1
                return None
            self.hits += 1
            return replace(outcome)

    def store(self, test_name: str, canonical: Any, seed: int, outcome: Any,
              seed_sensitive: bool) -> bool:
        """Memoize one outcome; returns False when it is uncacheable.

        ``seed_sensitive`` must be True when the execution consulted
        ``ctx.rng`` or ran under an active fault plan — such outcomes are
        only valid for their exact seed.
        """
        if outcome.infra:
            with self._lock:
                self.bypasses += 1
            return False
        frozen = replace(outcome)
        key = self._key(test_name, canonical)
        with self._lock:
            if seed_sensitive:
                self._seeded[(key, seed)] = frozen
            else:
                self._deterministic[key] = frozen
        return True

    # ------------------------------------------------------------------
    @property
    def deterministic_entries(self) -> int:
        with self._lock:
            return len(self._deterministic)

    @property
    def seeded_entries(self) -> int:
        with self._lock:
            return len(self._seeded)

    def tier_sizes(self) -> Dict[str, int]:
        """Entry counts by tier, read in one lock acquisition (for the
        end-of-campaign ``zc_runtime_exec_cache_entries`` gauge)."""
        with self._lock:
            return {"deterministic": len(self._deterministic),
                    "seeded": len(self._seeded)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._deterministic) + len(self._seeded)
