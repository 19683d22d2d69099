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

Every campaign builds a fresh cache for each profile it runs; what a hit
*costs* is the cache's ``charge_hits`` setting, the one place the
accounting choice lives:

* **Paper accounting** (``charge_hits=True``, the default campaign) — a
  hit is charged exactly like the execution it replays (one execution,
  ``run_cost_s`` of modelled machine time), so execution counts, machine
  time, reports and span timelines equal a campaign that simulated every
  repeat; only the simulator's work is saved.  The campaign builds this
  cache only with no fault plan, because per-kind fault counts,
  ``fault``/``retry`` events and retry backoff are facts of each
  execution that a replay would have to re-emit.
* **Free hits** (``charge_hits=False``, ``--exec-cache`` and
  ``--store``) — a hit costs nothing and is counted as a cache hit, so
  the report shows the deduplicated execution count.

Collapsing ``homo(param=default)`` onto the original configuration is
sound only when the unit test does not explicitly ``set`` that parameter
(an injected value shadows explicit sets).  The pre-run records each
test's explicitly-set parameters, and callers pass them as
``no_collapse`` so those parameters keep their own cache slots.

Keys and seeds hash the ``repr`` of a canonical form, so
:func:`canonical_content` hands out the form together with that text,
both cached on the assignment object (see :mod:`repro.core.testgen`);
a homogeneous assignment's collapsed form is kept with the registry it
was collapsed against and served only to that same registry object.
Each cache memoises the key of every text it has hashed.  Hits are
handed out as exact copies (:func:`copy_outcome`), so nothing a caller
does to an outcome reaches the memo.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.common.faults import fault_seed as stable_seed
from repro.core.testgen import (HeteroAssignment, HomoAssignment,
                                ParamAssignment)

#: Canonical form of "no value injected anywhere" — the original run.
ORIGINAL: Tuple[str, ...] = ("original",)
_ORIGINAL_TEXT = repr(ORIGINAL)


def canonical_assignment(assignment: Any,
                         registry: Optional[Any] = None,
                         no_collapse: Iterable[str] = ()) -> Tuple[Any, ...]:
    """A stable, content-addressed form of any runner assignment.

    Two assignments with equal canonical forms produce byte-identical
    executions.  ``registry`` (a ``ParamRegistry``) enables the
    homogeneous default-value collapse; parameters in ``no_collapse``
    (explicitly set by the unit test) are exempt from it.
    """
    return canonical_content(assignment, registry, no_collapse)[0]


def canonical_content(assignment: Any, registry: Optional[Any] = None,
                      no_collapse: Iterable[str] = ()
                      ) -> Tuple[Tuple[Any, ...], str]:
    """``(canonical_assignment(...), its repr)``, from the caches the
    assignment object carries."""
    if assignment is None:
        return ORIGINAL, _ORIGINAL_TEXT
    if isinstance(assignment, HomoAssignment):
        exempt = frozenset(no_collapse)
        cached = assignment.__dict__.get("_collapsed")
        if cached is not None and cached[0] is registry \
                and cached[1] == exempt:
            return cached[2], cached[3]
        canonical = _collapse(assignment, registry, exempt)
        text = repr(canonical)
        object.__setattr__(assignment, "_collapsed",
                           (registry, exempt, canonical, text))
        return canonical, text
    if isinstance(assignment, HeteroAssignment):
        return assignment.canonical(), assignment.canonical_text()
    if isinstance(assignment, ParamAssignment):
        return (("hetero", (assignment.canonical(),)),
                "('hetero', (%s,))" % assignment.canonical_text())
    # Unknown assignment type: fall back to its repr so distinct objects
    # at least never share a slot spuriously via an empty form.
    canonical = ("opaque", type(assignment).__name__, repr(assignment))
    return canonical, repr(canonical)


def _collapse(assignment: HomoAssignment, registry: Optional[Any],
              exempt: frozenset) -> Tuple[Any, ...]:
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


def fingerprint(canonical: Any) -> str:
    """Collision-resistant digest of a canonical structure."""
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


def execution_seed(test_name: str, canonical: Any, trial: int,
                   text: Optional[str] = None) -> int:
    """The trial seed for one execution, derived from *content*.

    Deriving seeds from the canonical assignment (rather than from
    display labels) means two executions with identical content always
    run under the same seed — so they are byte-identical and the cache
    may serve one for the other even when the execution is seed-
    sensitive.  ``text`` is ``repr(canonical)`` when the caller has it.
    """
    return stable_seed(test_name,
                       repr(canonical) if text is None else text, trial)


def copy_outcome(outcome: Any) -> Any:
    """An exact copy of a memoised outcome: the same attribute values in
    a new object, without ``dataclasses.replace``'s re-construction."""
    twin = object.__new__(type(outcome))
    twin.__dict__.update(outcome.__dict__)
    return twin


class ExecutionCache:
    """Memoizes ``RunOutcome``s for one unit-test profile.

    The campaign builds one per profile, wherever the profile runs:
    keys include the unit-test name and one profile is one test, so a
    finished profile's entries would never be read again.  One profile
    runs on one thread, so no cache object is shared between threads.
    """

    def __init__(self, context: Optional[Mapping[str, Any]] = None,
                 charge_hits: bool = False) -> None:
        #: True = paper accounting: the runner charges a hit as the
        #: execution it replays (see the module docstring).
        self.charge_hits = charge_hits
        #: campaign-level settings folded into every key, so a cache can
        #: never serve an outcome produced under a different fault plan,
        #: watchdog budget, or IPC-sharing mode.
        self.context_key = fingerprint(tuple(sorted(
            (str(k), repr(v)) for k, v in (context or {}).items())))
        self._deterministic: Dict[str, Any] = {}
        self._seeded: Dict[Tuple[str, int], Any] = {}
        #: (test name, canonical text) -> key, so a form looked up again
        #: (every confirmation trial) is hashed once.
        self._keys: Dict[Tuple[str, str], str] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    # ------------------------------------------------------------------
    def _key(self, test_name: str, canonical: Any,
             text: Optional[str] = None) -> str:
        """``fingerprint((context_key, test_name, canonical))``; ``text``
        is ``repr(canonical)`` when the caller has it."""
        if text is None:
            text = repr(canonical)
        key = self._keys.get((test_name, text))
        if key is None:
            # the repr of a 3-tuple, spelled out around the given text
            key = self._keys[(test_name, text)] = hashlib.sha256(
                ("(%r, %r, %s)" % (self.context_key, test_name, text))
                .encode("utf-8")).hexdigest()
        return key

    def lookup(self, test_name: str, canonical: Any, seed: int,
               text: Optional[str] = None) -> Optional[Any]:
        """The memoized outcome, or None.  Counts a hit or a miss."""
        key = self._key(test_name, canonical, text)
        outcome = self._deterministic.get(key)
        if outcome is None:
            outcome = self._seeded.get((key, seed))
        if outcome is None:
            self.misses += 1
            return None
        self.hits += 1
        return copy_outcome(outcome)

    def store(self, test_name: str, canonical: Any, seed: int, outcome: Any,
              seed_sensitive: bool, text: Optional[str] = None) -> bool:
        """Memoize one outcome; returns False when it is uncacheable.

        ``seed_sensitive`` must be True when the execution consulted
        ``ctx.rng`` or ran under an active fault plan — such outcomes are
        only valid for their exact seed.
        """
        if outcome.infra:
            self.bypasses += 1
            return False
        frozen = copy_outcome(outcome)
        key = self._key(test_name, canonical, text)
        if seed_sensitive:
            self._seeded[(key, seed)] = frozen
        else:
            self._deterministic[key] = frozen
        return True

    # ------------------------------------------------------------------
    @property
    def deterministic_entries(self) -> int:
        return len(self._deterministic)

    @property
    def seeded_entries(self) -> int:
        return len(self._seeded)

    def __len__(self) -> int:
        return len(self._deterministic) + len(self._seeded)
