"""Straightforward forms of vectorised kernels, kept as exact references:
the temporal network's growth in copeplan.stn, the planner's per-node
kernels in copeplan.planner.search (with the relaxed plan's set algebra
rebuilt on every test) and the KDS dynamic program in copeplan.kds.

Each returns the same floats as the kernel it mirrors, so tests compare them
with ==, not with a tolerance.
"""

import math

import numpy as np

from copeplan.dda import FAILURE_FLOOR
from copeplan.dist import DiscreteDistribution
from copeplan.kds import Block, KdsSolution, success_prob
from copeplan.planner.search import ESTIMATE_SUPPORT_CAP
from copeplan.stn import EPSILON_SEPARATION, ORIGIN, Stn

INF = math.inf


def _clone(stn):
    s = Stn.__new__(Stn)
    s.events = stn.events
    s.index = stn.index
    s.dist = stn.dist
    s.constraints = stn.constraints
    s.consistent = stn.consistent
    return s


def add_event(stn, name):
    """One new event in its own n x n matrix: its row is the origin row, its
    column empty but for the diagonal."""
    if name in stn.index:
        raise ValueError(f"event {name!r} already present")
    s = _clone(stn)
    s.events = stn.events + (name,)
    s.index = {**stn.index, name: len(stn.events)}
    n = len(s.events)
    dist = np.full((n, n), INF)
    dist[: n - 1, : n - 1] = stn.dist
    dist[n - 1, n - 1] = 0.0
    dist[n - 1, : n - 1] = stn.dist[0, :]
    s.dist = dist
    s.constraints = stn.constraints + ((name, ORIGIN, 0.0),)
    return s


def add_constraint(stn, from_event, to_event, bound):
    """One new edge, relaxed over the whole matrix and checked at once; an
    inconsistent network only logs it."""
    u = stn.index[from_event]
    v = stn.index[to_event]
    s = _clone(stn)
    s.constraints = stn.constraints + ((from_event, to_event, float(bound)),)
    if not stn.consistent:
        return s
    d = stn.dist
    s.dist = np.minimum(d, d[:, u, None] + (bound + d[None, v, :]))
    if np.diagonal(s.dist).min() < 0:
        s.consistent = False
    return s


def grow(stn, names, edges):
    """Stn.extend one step at a time: each event, then each (u, v, b) index
    edge in order, every step a new network."""
    for name in names:
        stn = add_event(stn, name)
    for u, v, b in edges:
        stn = add_constraint(stn, stn.events[u], stn.events[v], b)
    return stn


def relaxed_plan(task, props, opens, til_count):
    """search.relaxed_plan building each action's relaxed precondition and
    its additions from the action's own sets at every test."""
    facts = set(props)
    adder = {}
    for lit in task.tils[til_count:]:
        if lit.add:
            facts.add(lit.prop)
    pending = [task.by_name[name] for name, _ in opens]
    applied = []
    applied_names = set()
    progress = True
    while progress:
        progress = False
        still = []
        for a in pending:
            if a.cond_end <= facts:
                for p in a.add_end - facts:
                    adder.setdefault(p, None)
                if not a.add_end <= facts:
                    facts |= a.add_end
                    progress = True
            else:
                still.append(a)
        pending = still
        for a in task.actions:
            if a.name in applied_names:
                continue
            if a.cond_start <= facts and (a.cond_over | a.cond_end) <= facts | a.add_start:
                new = (a.add_start | a.add_end) - facts
                if new:
                    applied_names.add(a.name)
                    applied.append(a)
                    for p in new:
                        adder.setdefault(p, a.name)
                    facts |= new
                    progress = True
    if pending or not task.goal <= facts:
        return None
    selected = set()
    queue = [p for p in sorted(task.goal) if p not in props]
    while queue:
        prop = queue.pop()
        name = adder.get(prop)
        if name is None or name in selected:
            continue
        selected.add(name)
        a = task.by_name[name]
        for p in sorted(a.cond_start | a.cond_over | a.cond_end):
            if p not in props:
                queue.append(p)
    return [a for a in applied if a.name in selected]


def tighten(task, node):
    """Append the relaxed chain to a copy of the node's network, one event
    or edge at a time, and read the prefix tmax values."""
    stn = node.stn
    eps = EPSILON_SEPARATION
    future = task.tils[node.til_count:]
    prev = f"s{len(node.prefix) - 1}" if node.prefix else ORIGIN
    last = prev
    for i, a in enumerate(node.chain):
        ev = f"r{i}"
        stn = add_event(stn, ev)
        stn = add_constraint(stn, ev, last, -eps)
        conds = a.cond_start | a.cond_over | a.cond_end
        bound = INF
        for lit in future:
            if not lit.add and lit.prop in conds:
                cut = lit.time - eps
                if lit.prop in a.cond_over or lit.prop in a.cond_end:
                    cut = lit.time - a.duration
                bound = min(bound, cut)
        if bound < INF:
            stn = add_constraint(stn, ORIGIN, ev, bound)
        nxt = f"r{i}d"
        stn = add_event(stn, nxt)
        stn = add_constraint(stn, nxt, ev, -a.duration)
        last = nxt
    goal_cut = INF
    for lit in future:
        if not lit.add and lit.prop in task.goal:
            goal_cut = min(goal_cut, lit.time - eps)
    if node.opens or goal_cut < INF:
        g = "rg"
        stn = add_event(stn, g)
        stn = add_constraint(stn, g, last, 0.0)
        for name, pos in node.opens:
            stn = add_constraint(stn, g, f"s{pos}", -task.by_name[name].duration)
        if goal_cut < INF:
            stn = add_constraint(stn, ORIGIN, g, goal_cut)
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


def solve_kds_dp(instance, start_time=0):
    """One success_prob and one log1p per (process, time, block length),
    keeping the first strictly smaller candidate."""
    n = len(instance.processes)
    T = instance.horizon
    if start_time < 0:
        raise ValueError("start_time must be >= 0")
    order = sorted(range(n), key=lambda i: (instance.processes[i].deadline, i))
    logfail = np.zeros((n + 1, T + 1))
    choice = np.zeros((n, T + 1), dtype=int)
    for k in range(n - 1, -1, -1):
        proc = instance.processes[order[k]]
        for time in range(T, -1, -1):
            best = math.inf
            best_t = 0
            for t in range(0, max(0, proc.deadline - time) + 1):
                s = success_prob(proc.profile, proc.deadline, t, time)
                here = math.log1p(-s) if s < 1.0 else -math.inf
                cand = here + logfail[k + 1][time + t]
                if cand < best:
                    best = cand
                    best_t = t
            logfail[k][time] = best
            choice[k][time] = best_t

    blocks = []
    time = min(start_time, T)
    for k in range(n):
        t = int(choice[k][time])
        proc = instance.processes[order[k]]
        if t > 0 or success_prob(proc.profile, proc.deadline, 0, time) > 0.0:
            blocks.append(Block(order[k], time, t))
        time += t
    value = 0.0 - math.expm1(logfail[0][min(start_time, T)])
    return KdsSolution(value, blocks)
