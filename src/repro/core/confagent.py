"""ConfAgent: map configuration objects to nodes and inject values (§6).

ConfAgent is the bottom layer of ZebraConf.  Its job during a unit test is
to answer, for every ``Configuration.get(name)`` call, *which node is
asking* — so that different nodes can be given different values for the
same parameter even though the unit test runs every node in one process
and freely shares configuration objects between them.

The implementation follows §6.3 of the paper literally.  It maintains:

* ``node_table``      — per-node records (type, index, owned conf ids,
  parent conf id);
* ``unit_test_confs`` — conf ids owned by the unit test itself (which is
  treated as a "client" node);
* ``uncertain_confs`` — conf ids the rules could not map anywhere;
* ``parent_to_child`` — clone relationships;
* ``thread_context``  — which node's initialization function is currently
  executing on which thread (a stack per thread, so nested node inits are
  handled).

and applies the paper's mapping rules:

* **Rule 1.1** — a conf created while a node's init function is running on
  the same thread belongs to that node.
* **Rule 1.2** — a conf created before any node has initialized belongs to
  the unit test.
* **Rule 2**   — a conf reference replaced by a clone inside an init
  function: the original belongs to the unit test, the clone to the node.
* **Rule 3**   — a cloned conf belongs to the same entity as its source.

A conf that no rule can place lands in ``uncertain_confs``; during the
pre-run, parameters read through uncertain confs are recorded so that
TestGenerator can exclude the (unit test, parameter) combinations that
would otherwise produce false positives (§6.2, Observation 3).

Agents are scoped with a :mod:`contextvars` context variable so that
concurrent campaigns (the service daemon's job threads) each see their
own session; when no
session is active, a shared inert :class:`NullAgent` makes the hook points
in :class:`repro.common.configuration.Configuration` free.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import repro.perf as perf

#: Pseudo node type representing the unit test itself (§6.1: "the unit
#: test itself is treated as a 'client' node in ZebraConf").
UNIT_TEST = "__unit_test__"

#: Owner marker for configuration objects no rule could place.
UNCERTAIN = "__uncertain__"

#: Sentinel returned by ``intercept_get`` when no value is injected.
NO_OVERRIDE = object()

#: Distinct miss marker for the per-(conf, name) get memo — NO_OVERRIDE
#: itself is a legitimate memoised value.
_MEMO_MISS = object()


@dataclass
class NodeRecord:
    """One row of the paper's ``nodeTable``."""

    node_id: int
    node_type: str
    node_index: int
    conf_ids: Set[int] = field(default_factory=set)
    parent_conf_id: Optional[int] = None


class NullAgent:
    """Inert agent used outside ZebraConf sessions.

    Behaviour matches the *unmodified* application: no tracking, no value
    injection, and ``ref_to_clone_conf`` keeps the original reference
    (i.e. nodes share the unit test's conf object, as the raw code in
    Fig. 2b line 16 would).
    """

    active = False

    def start_init(self, node: Any, node_type: str) -> None:
        pass

    def stop_init(self) -> None:
        pass

    def new_conf(self, conf: Any) -> None:
        pass

    def clone_conf(self, orig: Any, new: Any) -> None:
        pass

    def ref_to_clone_conf(self, conf: Any) -> Any:
        return conf

    def intercept_get(self, conf: Any, name: str) -> Any:
        return NO_OVERRIDE

    def intercept_set(self, conf: Any, name: str, value: Any) -> None:
        pass


NULL_AGENT = NullAgent()

_current_agent: ContextVar[Any] = ContextVar("zebraconf_agent", default=NULL_AGENT)


def current_agent() -> Any:
    """The agent for the calling context (a :class:`NullAgent` if none)."""
    return _current_agent.get()


#: Bound method for hot paths (``Configuration.get`` reads the agent on
#: every configuration lookup): calling the contextvar's ``get`` directly
#: skips one Python frame per call.  Semantically identical to
#: :func:`current_agent`; gated behind ``perf.FAST_PATH`` at call sites
#: so the A/B benches can measure and verify the equivalence.
agent_getter = _current_agent.get


class ConfAgent:
    """One ZebraConf session: tracks conf ownership for a single test run.

    Parameters
    ----------
    assignment:
        A :class:`repro.core.testgen.HeteroAssignment` (or ``None``) giving
        injected values per ``(node_type, node_index, parameter)``.  During
        a pre-run no assignment is given and the agent only records.
    record_usage:
        When true (the pre-run), every ``get`` is recorded against the
        owner of the conf object it went through.
    """

    active = True

    #: Whether intercept_get may memoise its decision per (conf, name).
    #: Subclasses with call-dependent resolution must disable this.
    _memo_gets = True

    def __init__(self, assignment: Optional[Any] = None,
                 record_usage: bool = False) -> None:
        self.assignment = assignment
        self.record_usage = record_usage

        self.node_table: Dict[int, NodeRecord] = {}
        self.unit_test_confs: Set[int] = set()
        self.uncertain_confs: Set[int] = set()
        self.parent_to_child: Dict[int, int] = {}  # child conf id -> parent conf id
        self.thread_context: Dict[int, List[int]] = {}  # thread id -> node-id stack

        #: node_type -> number of nodes of that type started (node indexes).
        self.node_counts: Dict[str, int] = {}
        #: owner key (node type, UNIT_TEST, or UNCERTAIN) -> params read.
        self.usage: Dict[str, Set[str]] = {}
        #: read-site attribution: (node_type, node_index) -> {param -> get
        #: count}.  Only populated while recording usage; the wiring audit
        #: (repro.core.audit) inverts it into per-parameter read sites and
        #: folds the counts into its behavioural fingerprints.
        self.read_sites: Dict[Tuple[str, int], Dict[str, int]] = {}
        #: params read through uncertain conf objects.
        self.uncertain_params: Set[str] = set()
        #: params the test execution explicitly ``set`` on any conf.  An
        #: injected value shadows explicit sets in ``Configuration.get``,
        #: so the execution cache's homogeneous default-value collapse
        #: must exempt these (see repro.core.execcache).
        self.set_params: Set[str] = set()
        #: count of get() calls answered with an injected value.
        self.injected_reads = 0
        #: Bumped on every conf-ownership mutation; external memos (e.g.
        #: the IPC cross-check) fold it into their keys so any remapping
        #: conservatively invalidates them.
        self.ownership_epoch = 0

        # Strong references so Python ids stay unique for the session.
        self._pinned: List[Any] = []
        self._in_ref_clone = False
        self._token = None
        self._conf_factory: Optional[Any] = None
        #: conf id -> (node_type, node_index) memo for _resolve, the
        #: hottest lookup in the system (once per intercepted get).  Every
        #: ownership mutation below pops the affected ids.
        self._resolve_cache: Dict[int, Tuple[str, int]] = {}
        #: conf id -> {param name -> injected value or NO_OVERRIDE}: the
        #: full injection decision per (conf, name).  Exact because the
        #: assignment is immutable for the agent's lifetime and the
        #: decision otherwise depends only on the conf's owner — every
        #: ownership mutation invalidates through _forget_conf.  Not used
        #: while recording usage (pre-run) nor by ThreadOwnershipAgent,
        #: whose resolution is thread-dependent.
        self._get_memo: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # session scoping
    # ------------------------------------------------------------------
    def __enter__(self) -> "ConfAgent":
        self._token = _current_agent.set(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _current_agent.reset(self._token)
        self._token = None

    # ------------------------------------------------------------------
    # node lifecycle annotations (Fig. 2b lines 14/21)
    # ------------------------------------------------------------------
    def start_init(self, node: Any, node_type: str) -> None:
        node_id = id(node)
        if node_id not in self.node_table:
            index = self.node_counts.get(node_type, 0)
            self.node_counts[node_type] = index + 1
            self.node_table[node_id] = NodeRecord(node_id, node_type, index)
            self._pinned.append(node)
        stack = self.thread_context.setdefault(threading.get_ident(), [])
        stack.append(node_id)

    def stop_init(self) -> None:
        stack = self.thread_context.get(threading.get_ident())
        if stack:
            stack.pop()

    def _initializing_node(self) -> Optional[NodeRecord]:
        stack = self.thread_context.get(threading.get_ident())
        if stack:
            return self.node_table[stack[-1]]
        return None

    # ------------------------------------------------------------------
    # configuration-object tracking (Fig. 2a lines 3/9, Fig. 2b line 17)
    # ------------------------------------------------------------------
    def new_conf(self, conf: Any) -> None:
        if self._in_ref_clone:
            return  # the clone made by ref_to_clone_conf is registered there
        # A brand-new conf may reuse the id of a dead, never-pinned conf
        # (one created outside the agent scope) that already has a memo.
        self._forget_conf(id(conf))
        self._pinned.append(conf)
        record = self._initializing_node()
        if record is not None:  # Rule 1.1
            record.conf_ids.add(id(conf))
        elif not self.node_table:  # Rule 1.2
            self.unit_test_confs.add(id(conf))
        else:
            self.uncertain_confs.add(id(conf))

    def clone_conf(self, orig: Any, new: Any) -> None:
        if self._in_ref_clone:
            return
        self._pinned.append(new)
        self._forget_conf(id(orig))
        self._forget_conf(id(new))
        self.parent_to_child[id(new)] = id(orig)
        # Rule 3: the clone belongs wherever the source belongs (or vice
        # versa if only the clone is known, which cannot happen for a
        # brand-new object but keeps the rule symmetric as in the paper).
        owner = self._owner_of(id(orig))
        if owner is None:
            owner = self._owner_of(id(new))
        if owner is None:
            self.uncertain_confs.add(id(orig))
            self.uncertain_confs.add(id(new))
        else:
            self._assign(id(new), owner)
            self._assign(id(orig), owner)

    def ref_to_clone_conf(self, conf: Any) -> Any:
        record = self._initializing_node()
        if record is None:
            # Called outside any node init (e.g. application main() path in
            # a real deployment); keep the reference semantics.
            return conf
        self._in_ref_clone = True
        try:
            clone = conf.clone()
        finally:
            self._in_ref_clone = False
        self._pinned.append(clone)
        # Rule 2: clone -> node; original -> unit test.
        self._forget_conf(id(clone))
        record.conf_ids.add(id(clone))
        if record.parent_conf_id is None:
            record.parent_conf_id = id(conf)
            self._pinned.append(conf)
        self._move_to_unit_test(id(conf))
        self.parent_to_child[id(clone)] = id(conf)
        return clone

    def _move_to_unit_test(self, conf_id: int) -> None:
        """Assign ``conf_id`` and its clone ancestors to the unit test."""
        seen = set()
        while conf_id is not None and conf_id not in seen:
            seen.add(conf_id)
            self._forget_conf(conf_id)
            self.uncertain_confs.discard(conf_id)
            if not self._owned_by_node(conf_id):
                self.unit_test_confs.add(conf_id)
            conf_id = self.parent_to_child.get(conf_id)

    def _owned_by_node(self, conf_id: int) -> bool:
        return any(conf_id in rec.conf_ids for rec in self.node_table.values())

    def _owner_of(self, conf_id: int) -> Optional[str]:
        """Owner key for a conf id: a node-table node id (as str marker),
        UNIT_TEST, or None if unknown."""
        for rec in self.node_table.values():
            if conf_id in rec.conf_ids:
                return "node:%d" % rec.node_id
        if conf_id in self.unit_test_confs:
            return UNIT_TEST
        return None

    def _assign(self, conf_id: int, owner: str) -> None:
        self._forget_conf(conf_id)
        self.uncertain_confs.discard(conf_id)
        if owner == UNIT_TEST:
            self.unit_test_confs.add(conf_id)
        elif owner.startswith("node:"):
            self.node_table[int(owner[5:])].conf_ids.add(conf_id)

    # ------------------------------------------------------------------
    # get/set interception (Fig. 2a lines 17/22)
    # ------------------------------------------------------------------
    def _resolve(self, conf: Any) -> Tuple[str, int]:
        """(node_type, node_index) owning ``conf``; UNIT_TEST/UNCERTAIN
        pseudo-entities use index 0."""
        conf_id = id(conf)
        if perf.FAST_PATH:
            cached = self._resolve_cache.get(conf_id)
            if cached is not None:
                return cached
        for rec in self.node_table.values():
            if conf_id in rec.conf_ids:
                result = (rec.node_type, rec.node_index)
                break
        else:
            if conf_id in self.unit_test_confs:
                result = (UNIT_TEST, 0)
            else:
                result = (UNCERTAIN, 0)
        if perf.FAST_PATH:
            self._resolve_cache[conf_id] = result
        return result

    def _forget_conf(self, conf_id: int) -> None:
        """Drop every per-conf memo; called on any ownership mutation."""
        self.ownership_epoch += 1
        self._resolve_cache.pop(conf_id, None)
        self._get_memo.pop(conf_id, None)

    def intercept_get(self, conf: Any, name: str) -> Any:
        memoize = (perf.FAST_PATH and self._memo_gets
                   and not self.record_usage)
        if memoize:
            memo = self._get_memo.get(id(conf))
            if memo is not None:
                value = memo.get(name, _MEMO_MISS)
                if value is not _MEMO_MISS:
                    return value
        node_type, node_index = self._resolve(conf)
        if self.record_usage:
            self.usage.setdefault(node_type, set()).add(name)
            site = self.read_sites.setdefault((node_type, node_index), {})
            site[name] = site.get(name, 0) + 1
            if node_type == UNCERTAIN:
                self.uncertain_params.add(name)
        result = NO_OVERRIDE
        if self.assignment is not None and node_type != UNCERTAIN:
            value = self.assignment.value_for(node_type, node_index, name)
            if value is not NO_OVERRIDE:
                self.injected_reads += 1
                result = value
        if memoize:
            self._get_memo.setdefault(id(conf), {})[name] = result
        return result

    def intercept_set(self, conf: Any, name: str, value: Any) -> None:
        """Write-through to the parent conf (§6.3, interceptSet logic).

        When the unit test handed a conf to a node and ZebraConf replaced
        the reference with a clone, values the node fills in must still be
        visible to the unit test through its original object.
        """
        self.set_params.add(name)
        conf_id = id(conf)
        for rec in self.node_table.values():
            if conf_id in rec.conf_ids and rec.parent_conf_id is not None:
                parent = self._find_pinned_conf(rec.parent_conf_id)
                if parent is not None and id(parent) != conf_id:
                    parent.raw_set(name, value)
                return

    def _find_pinned_conf(self, conf_id: int) -> Optional[Any]:
        for obj in self._pinned:
            if id(obj) == conf_id:
                return obj
        return None

    # ------------------------------------------------------------------
    # pre-run results
    # ------------------------------------------------------------------
    def started_node_groups(self) -> Dict[str, int]:
        """node_type -> number of started nodes (excludes the unit test)."""
        return dict(self.node_counts)

    def params_used_by(self, node_type: str) -> Set[str]:
        return set(self.usage.get(node_type, set()))

    def has_uncertain_confs(self) -> bool:
        return bool(self.uncertain_confs)


class ThreadOwnershipAgent(ConfAgent):
    """The paper's *failed third attempt* (§6.1): attribute every
    ``get`` to the node whose init... no — to the node that owns the
    *calling thread*.

    We keep it for the ablation benchmark: on unit tests that call node
    internals directly from the test thread (ubiquitous, per the paper),
    this agent misattributes reads to the unit test.  The ablation
    measures how often its answer differs from the rule-based agent's.
    """

    #: Resolution depends on the calling thread and every call counts a
    #: potential misattribution — per-(conf, name) memoisation would
    #: change both, so it stays off.
    _memo_gets = False

    def __init__(self, assignment: Optional[Any] = None,
                 record_usage: bool = False) -> None:
        super().__init__(assignment=assignment, record_usage=record_usage)
        #: thread id -> node id, set when a node's init runs on a thread
        #: and *never popped* (the thread is deemed owned by the node).
        self.thread_owner: Dict[int, int] = {}
        self.misattributions = 0

    def start_init(self, node: Any, node_type: str) -> None:
        super().start_init(node, node_type)
        self.thread_owner.setdefault(threading.get_ident(), id(node))

    def _resolve(self, conf: Any) -> Tuple[str, int]:
        rule_answer = super()._resolve(conf)
        owner_node = self.thread_owner.get(threading.get_ident())
        if owner_node is None:
            thread_answer: Tuple[str, int] = (UNIT_TEST, 0)
        else:
            rec = self.node_table[owner_node]
            thread_answer = (rec.node_type, rec.node_index)
        if thread_answer != rule_answer:
            self.misattributions += 1
        return thread_answer
