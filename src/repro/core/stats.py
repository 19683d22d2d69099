"""Hypothesis testing for nondeterministic unit tests (§5, §7.2).

TestRunner reports a parameter only when the heterogeneous configuration
fails *and* the homogeneous configurations pass — but a flaky test can
produce that pattern by chance.  The paper re-runs suspicious instances
"until we can be sure that the parameter is heterogeneous unsafe with
high probability, according to hypothesis testing using a significance
level of 0.0001".

We use the one-sided Fisher exact test on the 2x2 table

    =============  =======  =======
                   failed   passed
    heterogeneous  k        n - k
    homogeneous    j        m - j
    =============  =======  =======

with null hypothesis "failure probability is independent of the
configuration being heterogeneous".  The one-sided p-value is the
hypergeometric tail P(X >= k).  With fully deterministic outcomes the
smallest confirming design is 8 hetero failures vs 0 homo failures out of
8 trials each: p = 1 / C(16, 8) ~= 7.8e-5 < 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

#: Significance level from §5.
DEFAULT_ALPHA = 1e-4

#: Smallest per-side trial count that can reach significance when the
#: outcome pattern is perfectly separated (see module docstring).
MIN_DECISIVE_TRIALS = 8


def hypergeom_tail(k: int, n: int, j: int, m: int) -> float:
    """One-sided Fisher exact p-value: P(hetero failures >= k).

    ``k``/``n``: failures/trials under heterogeneous configuration;
    ``j``/``m``: failures/trials under homogeneous configurations.
    """
    if not (0 <= k <= n and 0 <= j <= m):
        raise ValueError("inconsistent contingency table")
    total_fail = k + j
    total = n + m
    if total == 0:
        return 1.0
    denom = comb(total, total_fail)
    tail = 0
    upper = min(n, total_fail)
    for x in range(k, upper + 1):
        tail += comb(n, x) * comb(m, total_fail - x)
    return tail / denom


@dataclass
class TrialTally:
    """Running outcome counts for one suspicious test instance."""

    hetero_failures: int = 0
    hetero_trials: int = 0
    homo_failures: int = 0
    homo_trials: int = 0

    def record_hetero(self, failed: bool) -> None:
        self.hetero_trials += 1
        if failed:
            self.hetero_failures += 1

    def record_homo(self, failed: bool) -> None:
        self.homo_trials += 1
        if failed:
            self.homo_failures += 1

    def p_value(self) -> float:
        return hypergeom_tail(self.hetero_failures, self.hetero_trials,
                              self.homo_failures, self.homo_trials)

    def significant(self, alpha: float = DEFAULT_ALPHA) -> bool:
        return self.p_value() <= alpha

    def hopeless(self, alpha: float = DEFAULT_ALPHA,
                 max_trials: int = 64) -> bool:
        """True when even a perfect future streak cannot reach ``alpha``
        within ``max_trials`` per side — stop wasting machine time."""
        best = TrialTally(
            hetero_failures=self.hetero_failures + (max_trials - self.hetero_trials),
            hetero_trials=max_trials,
            homo_failures=self.homo_failures,
            homo_trials=max_trials)
        return not best.significant(alpha)


def decisive_trials(alpha: float = DEFAULT_ALPHA) -> int:
    """Smallest n with 1 / C(2n, n) <= alpha (perfect-separation design)."""
    n = 1
    while 1.0 / comb(2 * n, n) > alpha:
        n += 1
    return n
