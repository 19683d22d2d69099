"""Triage of reported parameters: true problems vs false positives (§7.1).

The paper's authors manually analyzed all 57 reported parameters with
three principles; we encode the same principles mechanically, using the
corpus metadata that mirrors what the authors read off the unit tests:

1. The failure must be possible in a real distributed setting — tests
   that manipulate a server's private data with a client's configuration
   object (``realistic=False``) do not count.
2. An error raised in application code is a real problem.
3. A violated unit-test assertion counts only when it would be meaningful
   in a realistic setting: inconsistencies observable through **public**
   APIs are true problems; those observable only through private
   functions, and *overly strict* assertions, are false positives.

The shared-IPC false positives (four ``ipc.client.*`` parameters) are
recognised by their characteristic error signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.ipc import IPC_SHARED_PARAMS
from repro.common.params import ParamRegistry
from repro.core.runner import InstanceResult

TRUE_PROBLEM = "true-problem"
FALSE_POSITIVE = "false-positive"

# false-positive reasons (§7.1 "Causes of false positives")
FP_UNREALISTIC = "setting impossible in a real distributed system"
FP_SHARED_IPC = "nodes share the IPC component (violated assumption)"
FP_STRICT_ASSERTION = "overly strict unit-test assertion"
FP_PRIVATE_ONLY = "inconsistency observable only through private APIs"

#: categories used by §7.1's discussion of the true problems
CATEGORY_BY_TAG = {
    "wire-format": "compression/encryption/authentication/transport",
    "heartbeat": "heartbeat-related",
    "max-limit": "max-limit-related",
    "task-count": "counts of tasks",
    "inconsistency": "user-visible inconsistency",
}
DEFAULT_CATEGORY = "others"


@dataclass
class ParamVerdict:
    """Triage outcome for one reported parameter."""

    param: str
    verdict: str
    category: str = DEFAULT_CATEGORY
    fp_reason: str = ""
    failing_tests: Tuple[str, ...] = ()
    sample_error: str = ""

    @property
    def is_true_problem(self) -> bool:
        return self.verdict == TRUE_PROBLEM


def _category_for(param: str, registry: Optional[ParamRegistry]) -> str:
    if registry is not None:
        definition = registry.maybe_get(param)
        if definition is not None:
            for tag in definition.tags:
                if tag in CATEGORY_BY_TAG:
                    return CATEGORY_BY_TAG[tag]
    return DEFAULT_CATEGORY


def triage_param(param: str, results: Sequence[InstanceResult],
                 registry: Optional[ParamRegistry] = None) -> ParamVerdict:
    """Apply the §7.1 principles to one parameter's confirming instances."""
    failing_tests = tuple(sorted({r.instance.test.full_name for r in results}))
    sample_error = next((r.hetero_error for r in results if r.hetero_error), "")

    if param in IPC_SHARED_PARAMS and all(
            "IPC connection parameter" in r.hetero_error for r in results):
        return ParamVerdict(param, FALSE_POSITIVE, fp_reason=FP_SHARED_IPC,
                            failing_tests=failing_tests, sample_error=sample_error)

    realistic = [r for r in results if r.instance.test.realistic]
    if not realistic:
        return ParamVerdict(param, FALSE_POSITIVE, fp_reason=FP_UNREALISTIC,
                            failing_tests=failing_tests, sample_error=sample_error)

    lenient = [r for r in realistic if not r.instance.test.strict_assertion]
    if not lenient:
        return ParamVerdict(param, FALSE_POSITIVE, fp_reason=FP_STRICT_ASSERTION,
                            failing_tests=failing_tests, sample_error=sample_error)

    public = [r for r in lenient if r.instance.test.observability == "public"]
    if not public:
        return ParamVerdict(param, FALSE_POSITIVE, fp_reason=FP_PRIVATE_ONLY,
                            failing_tests=failing_tests, sample_error=sample_error)

    return ParamVerdict(param, TRUE_PROBLEM,
                        category=_category_for(param, registry),
                        failing_tests=failing_tests, sample_error=sample_error)


def triage_report(results_by_param: Dict[str, List[InstanceResult]],
                  registry: Optional[ParamRegistry] = None,
                  blacklisted: Iterable[str] = ()) -> List[ParamVerdict]:
    """Triage every reported parameter; blacklisted parameters with no
    per-instance evidence keep their confirming results from before the
    blacklist kicked in."""
    verdicts = []
    reported = set(results_by_param) | set(blacklisted)
    for param in sorted(reported):
        verdicts.append(triage_param(param, results_by_param.get(param, []),
                                     registry))
    return verdicts
