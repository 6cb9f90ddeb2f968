"""Straightforward forms of vectorised kernels, kept as exact references:
the temporal network's growth in copeplan.stn, the planner's per-node
kernels in copeplan.planner.search (with the relaxed plan's set algebra
rebuilt on every test, and child networks grown eagerly by event name), the
decision cycle's scoring in copeplan.planner.engine (every quantity
recomputed per node and per call), the KDS dynamic program in
copeplan.kds, both as a loop and as one layer over every (time, block
length) cell, and copeplan.copem's measurement solvers with one DP per
(measured process, observation, dispatch option).

Each returns the same floats as the kernel it mirrors, so tests compare them
with ==, not with a tolerance.
"""

import math

import numpy as np

from copeplan import copem
from copeplan.cope import reduce_to_kds
from copeplan.dda import FAILURE_FLOOR, lpf
from copeplan.dist import DiscreteDistribution
from copeplan.kds import Block, KdsSolution, solve_kds_dp as _solve_kds_dp, success_prob
from copeplan.planner.search import (
    ESTIMATE_SUPPORT_CAP,
    deadline_steps,
    estimate_completion,
)
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


def extend_then_probe(parent, name, child_edges, n_chain, chain_edges):
    """Grow the child's network with its event and edges, then probe it with
    the chain: what tighten did before children kept their edges pending."""
    return parent.extend((name,), child_edges).probe(n_chain, chain_edges)


def child_network(task, parent_stn, k, step, til_count):
    """The network of the child that appends `step` at position k, grown one
    event or edge at a time with every event looked up by name."""
    eps = EPSILON_SEPARATION
    ev = f"s{k}"
    stn = add_event(parent_stn, ev)
    if k > 0:
        stn = add_constraint(stn, ev, f"s{k - 1}", -eps)
    if step[0] == "end":
        start = f"s{step[2]}"
        a = task.by_name[step[1]]
        stn = add_constraint(stn, start, ev, a.duration)
        stn = add_constraint(stn, ev, start, -a.duration)
    elif step[0] == "til":
        t = task.tils[step[1]].time
        stn = add_constraint(stn, ORIGIN, ev, t)
        stn = add_constraint(stn, ev, ORIGIN, -t)
    if step[0] != "til" and til_count < len(task.tils):
        stn = add_constraint(stn, ORIGIN, ev, task.tils[til_count].time - eps)
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


def q_known_cut(profile, d, params):
    """search.q_known building both of its tables, cut at d, on every call."""
    cum = profile.cum
    support = len(cum) - 1
    m = min(max(d - 1, 0), support)
    log_fail = np.log(np.maximum(1.0 - cum[: m + 1], FAILURE_FLOOR))
    best_rate = np.minimum.accumulate(log_fail[1:] / np.arange(1, m + 1))

    def term(t_b):
        cap = d - t_b
        if cap < 1:
            return 0.0
        if support == 0:
            return float(log_fail[0])
        k = min(support, cap - 1)
        best = best_rate[k - 1] if k >= 1 else INF
        if cap <= support:
            best = min(best, log_fail[cap - 1] / cap)
        return float(best)

    return params.gamma * term(params.t_u) - term(0)


def latest_start(node, c):
    """The least start tmax at a position >= c, from a fresh list."""
    vals = [tm for pos, tm in node.start_tmaxes if pos >= c]
    return min(vals) if vals else INF


def _scores(nd, stats, profiles):
    if nd.h not in profiles:
        prof = estimate_completion(nd, stats)
        profiles[nd.h] = (prof, max(1, round(prof.mean())))
    return profiles[nd.h]


def chain_log_failure(nodes, c, t_b, t_now, speed, stats):
    """engine._chain_log_failure with one lpf call per node."""
    profiles = {}
    total = 0.0
    offset = t_b
    for nd in nodes:
        prof, e = _scores(nd, stats, profiles)
        offset += e
        d = deadline_steps(latest_start(nd, c), t_now, speed)
        total += lpf(prof, d, e, offset)
    return total


def argmax_q(pool, m, t_now, speed, stats, dda):
    """engine._argmax_q scoring each distinct (h, d) with q_known_cut."""
    profiles = {}
    q_cache = {}
    best = None
    best_q = -INF
    for nd in pool:
        d = deadline_steps(latest_start(nd, m), t_now, speed)
        if (nd.h, d) not in q_cache:
            q_cache[(nd.h, d)] = q_known_cut(_scores(nd, stats, profiles)[0], d, dda)
        q = q_cache[(nd.h, d)]
        if best is None or q > best_q or (q == best_q and nd.generation_tick < best.generation_tick):
            best = nd
            best_q = q
    return best


def decide(open_list, m, t_now, speed, stats, dparams, counts):
    """engine._decide over chain_log_failure."""
    p_nd = 1.0 - math.exp(chain_log_failure(open_list, m, dparams.t_wait, t_now,
                                            speed, stats))
    groups = {}
    for nd in open_list:
        if len(nd.prefix) > m and nd.prefix[m][0] == "start":
            groups.setdefault(nd.prefix[m], []).append(nd)
    best_disp = None
    best_focus = None
    for step in sorted(groups):
        nodes = groups[step]
        p_d = 1.0 - math.exp(chain_log_failure(nodes, m + 1, 0, t_now, speed, stats))
        explored = (
            counts.get((m, step), 0) >= dparams.min_subtree_expansions
            and len(nodes) >= dparams.min_sim_open
        )
        if explored:
            if best_disp is None or p_d > best_disp[1]:
                best_disp = (step, p_d)
        elif best_focus is None or p_d > best_focus[1]:
            best_focus = (step, p_d)
    if best_disp is not None and best_disp[1] > p_nd + dparams.dt:
        return "dispatch", best_disp[0]
    if best_focus is not None and best_focus[1] > p_nd + dparams.sft:
        return "focus", best_focus[0]
    return None, None


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


def solve_layer_dense(cum, d, row, out, best_t):
    """kds._solve_layer over every (time, t) cell of the layer: one lf table
    up to d, a (d, d + 1) Hankel view of the row padded with zeros, the last
    allowed column overwritten, the cells past it masked to +inf, and one
    np.argmin per time."""
    out[d:] = math.log1p(-0.0) + row[d:]
    if d == 0:
        return
    lf = np.empty(d + 1)
    m = min(d, len(cum) - 1) + 1
    j = int(np.searchsorted(cum[:m], 1.0))
    lf[:j] = list(map(math.log1p, (-cum[:j]).tolist()))
    lf[j:m] = -INF
    lf[m:] = lf[m - 1]
    padded = np.zeros(2 * d)
    padded[: d + 1] = row[: d + 1]
    cand = lf + np.lib.stride_tricks.sliding_window_view(padded, d + 1)[:d]
    times = np.arange(d)
    cand[times, d - times] = lf[d - 1 - times] + row[d]
    cand[np.add.outer(times, np.arange(d + 1)) > d] = INF
    best = np.argmin(cand, axis=1)
    best_t[:d] = best
    out[:d] = cand[times, best]


def solve00(inst, start_time=0):
    """copem.solve00 with one DP per dispatch option and no layer memo."""
    best = None
    for i in [None] + [k for k, p in enumerate(inst.processes) if p.prefix]:
        kinst = reduce_to_kds(inst, copem._dispatch_f(inst, i, start_time))
        value = _solve_kds_dp(kinst, start_time).value
        if best is None or value > best[0]:
            best = (value, i)
    return best


def _best_option(options, start_time, memo):
    best = None
    for i, kinst in options:
        sol = _solve_kds_dp(kinst, start_time, memo=memo)
        if best is None or sol.value > best[1]:
            best = (i, sol.value, sol)
    return best


def _best_measurement(kinst, memo):
    """(value, j, {o: solution}): one DP per observation o of each j."""
    best = (-1.0, None, None)
    for j, p in enumerate(kinst.processes):
        total = 0.0
        sols = {}
        for o, po in p.profile.pairs():
            sol = _solve_kds_dp(copem._with_profile(kinst, j, copem._posterior(o)), 1, memo=memo)
            sols[o] = sol
            total += po * sol.value
        if total > best[0]:
            best = (total, j, sols)
    return best


def solve01(inst, dispatched):
    """copem.solve01 with one DP per (measured process, observation)."""
    if not inst.processes:
        return 0.0, None
    f = copem._dispatch_f(inst, dispatched, 0)
    copem._check_prefixes(inst)
    value, j, _ = _best_measurement(reduce_to_kds(inst, f), {})
    return value, j


def solve11(inst):
    """copem.solve11 with one DP per (measured process, observation,
    dispatch option), each table built from the solutions its branch
    solved."""
    if not inst.processes:
        raise ValueError("empty instance")
    copem._check_prefixes(inst)
    memo = {}
    branch_values = {}
    best = None
    later = copem._dispatch_options(inst, 1)
    for j, p in enumerate(inst.processes):
        total = 0.0
        table = {}
        for o, po in p.profile.pairs():
            measured = [(i, copem._with_profile(kinst, j, copem._posterior(o)))
                        for i, kinst in later]
            bi, bv, bsol = _best_option(measured, 1, memo)
            total += po * bv
            table[o] = copem.BranchOutcome(bv, bi, bsol)
        branch_values[("compute", j)] = total
        if best is None or total > best[0]:
            best = (total, ("compute", j), None, table)
    for i, kinst in copem._dispatch_options(inst, 0)[1:]:
        value, best_j, sols = _best_measurement(kinst, memo)
        table = {o: copem.BranchOutcome(sol.value, None, sol) for o, sol in sols.items()}
        branch_values[("dispatch", i)] = value
        if value > best[0]:
            best = (value, ("dispatch", i), best_j, table)
    value, first, after, table = best
    return copem.MetaPolicy(value, first, after, table, branch_values)
