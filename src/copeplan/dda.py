"""Delay-damage-aware ranking of anytime processes.

Ranks processes by how much their log probability of failure per unit of
computation worsens if their next allocation is delayed by a chunk of t_u
units. The planner uses this to pick which open node's subtree gets the next
t_u expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dist import DiscreteDistribution
from .kds import success_prob

# floor on 1 - s: keeps LPF finite while preserving ranking
FAILURE_FLOOR = 1e-12


@dataclass(frozen=True)
class DdaParams:
    t_u: int = 10
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.t_u < 1:
            raise ValueError("t_u must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")


def lpf(profile: DiscreteDistribution, d: int, t: int, t_b: int) -> float:
    """Log probability of failure after t units starting at t_b, against the
    known deadline d; <= 0, floored at log(FAILURE_FLOOR)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    s = success_prob(profile, d, t, t_b)
    return math.log(max(1.0 - s, FAILURE_FLOOR))


def effective_time(profile: DiscreteDistribution, d: int, t_b: int) -> int:
    """Allocation length in [1, d - t_b] minimizing LPF/t; smallest on ties.

    When d - t_b < 1 the window is already shut and the process is scored as
    harmless (returns 1). Lengths beyond the profile support leave LPF flat
    and only worsen the ratio, so the scan stops there.
    """
    if t_b < 0:
        raise ValueError("t_b must be >= 0")
    cap = d - t_b
    if cap < 1:
        return 1
    best_t = 1
    best = lpf(profile, d, 1, t_b) / 1.0
    for t in range(2, min(cap, max(profile.support_max, 1)) + 1):
        ratio = lpf(profile, d, t, t_b) / t
        if ratio < best:
            best = ratio
            best_t = t
    return best_t


def q_value(profile: DiscreteDistribution, d: int, params: DdaParams) -> float:
    """Damage of delaying this process by t_u units (higher = more urgent).

    Q = gamma * LPF(e(t_u), t_u)/e(t_u) - LPF(e(0), 0)/e(0); a term whose
    allocation window d - t_b is empty contributes 0.
    """

    def term(t_b: int) -> float:
        if d - t_b < 1:
            return 0.0
        e = effective_time(profile, d, t_b)
        return lpf(profile, d, e, t_b) / e

    return params.gamma * term(params.t_u) - term(0)


def dda_rank(processes, params: DdaParams) -> list[int]:
    """Indices of (profile, deadline d) pairs by Q descending, stable ties."""
    if not processes:
        raise ValueError("no processes to rank")
    scored = [(q_value(p, d, params), i) for i, (p, d) in enumerate(processes)]
    return [i for _, i in sorted(scored, key=lambda pair: (-pair[0], pair[1]))]
