"""Straightforward forms of the planner's per-node kernels, kept as exact
references for the vectorised versions in copeplan.planner.search.

Each returns the same floats as the kernel it mirrors, so tests compare them
with ==, not with a tolerance.
"""

import math

import numpy as np

from copeplan.dda import FAILURE_FLOOR
from copeplan.dist import DiscreteDistribution
from copeplan.planner.search import ESTIMATE_SUPPORT_CAP
from copeplan.stn import EPSILON_SEPARATION, ORIGIN

INF = math.inf


def tighten(task, node):
    """Append the relaxed chain to a copy of the node's network, one
    add_event/add_constraint at a time, and read the prefix tmax values."""
    stn = node.stn
    eps = EPSILON_SEPARATION
    future = task.tils[node.til_count:]
    prev = f"s{len(node.prefix) - 1}" if node.prefix else ORIGIN
    last = prev
    for i, a in enumerate(node.chain):
        ev = f"r{i}"
        stn = stn.add_event(ev)
        stn = stn.add_constraint(ev, last, -eps)
        conds = a.cond_start | a.cond_over | a.cond_end
        bound = INF
        for lit in future:
            if not lit.add and lit.prop in conds:
                cut = lit.time - eps
                if lit.prop in a.cond_over or lit.prop in a.cond_end:
                    cut = lit.time - a.duration
                bound = min(bound, cut)
        if bound < INF:
            stn = stn.add_constraint(ORIGIN, ev, bound)
        nxt = f"r{i}d"
        stn = stn.add_event(nxt)
        stn = stn.add_constraint(nxt, ev, -a.duration)
        last = nxt
    goal_cut = INF
    for lit in future:
        if not lit.add and lit.prop in task.goal:
            goal_cut = min(goal_cut, lit.time - eps)
    if node.opens or goal_cut < INF:
        g = "rg"
        stn = stn.add_event(g)
        stn = stn.add_constraint(g, last, 0.0)
        for name, pos in node.opens:
            stn = stn.add_constraint(g, f"s{pos}", -task.by_name[name].duration)
        if goal_cut < INF:
            stn = stn.add_constraint(ORIGIN, g, goal_cut)
    if not stn.consistent:
        return False
    node.start_tmaxes = tuple(
        (pos, stn.tmax(f"s{pos}"))
        for pos, step in enumerate(node.prefix)
        if step[0] == "start"
    )
    return True


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def discretized_lognormal(mean, cv):
    """One scalar Phi per grid cell, stored index by index."""
    if mean <= 0:
        return DiscreteDistribution.delta(0)
    if cv < 1e-9:
        return DiscreteDistribution.delta(max(1, round(mean)))
    sigma2 = math.log(1.0 + cv * cv)
    sigma = math.sqrt(sigma2)
    mu = math.log(mean) - sigma2 / 2.0
    cap = int(math.ceil(math.exp(mu + 3.29 * sigma)))
    cap = max(2, min(cap, ESTIMATE_SUPPORT_CAP))
    probs = np.zeros(cap + 1)
    prev = 0.0
    for k in range(1, cap + 1):
        hi = _phi((math.log(k + 0.5) - mu) / sigma) if k < cap else 1.0
        probs[k] = hi - prev
        prev = hi
    return DiscreteDistribution(probs / probs.sum())


def q_known(profile, d, params):
    """Each term builds its own rate array over t and takes its argmin."""
    cum = profile.cum
    support = len(cum) - 1

    def term(t_b):
        cap = d - t_b
        if cap < 1:
            return 0.0
        hi = min(cap, max(support, 1))
        ts = np.arange(1, hi + 1)
        lim = np.minimum(ts, d - 1 - t_b)
        s = np.where(lim < 0, 0.0, cum[np.clip(lim, 0, support)])
        ratios = np.log(np.maximum(1.0 - s, FAILURE_FLOOR)) / ts
        return float(ratios[int(np.argmin(ratios))])

    return params.gamma * term(params.t_u) - term(0)
