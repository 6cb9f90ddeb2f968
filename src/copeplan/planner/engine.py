"""Planning loop that interleaves search with execution on a shared clock.

Search effort is the clock: expanding one node costs 1/speed seconds of plan
time. Each cycle runs a burst of at most t_wait expansions, cut to what is
left of the expansion budget, tries to schedule a goal the burst reached,
absorbs happenings that are no longer decisions, and asks the mode's
decision rule (`MODES`) for ("dispatch" | "focus" | None, step). The "disp"
rule, `_decide`, commits the next pending start mid-search when acting now
beats deliberating in estimated success probability, and pins its time into
every surviving node. The "nodisp" rule never commits, so the plan is
scheduled only once a goal node survives a feasibility check at the time the
search actually finished.

Scoring reads what the loop already knows. Each node carries the suffix
minima of its start tmaxes, so latest_start is a lookup. run_search keeps one
memo per burst that maps h to a _Scores: the completion profile, its
expected effort, q_known's whole-support tables and values by deadline, and
lpf's values by success index. _argmax_q and _decide fill it for every h
among their nodes that it lacks with one batched estimate_completion call,
so a cycle builds its profiles and their tables in one pass. _decide scores
nothing when no start is pending: p_nd is only ever compared with a pending
start's p_d.

The engine never reads a network's event layout: it pins through
search.pin_edges and reads times through search.earliest and
search.schedule. A pin extends a node's network through search.grown, so a
commit extends each distinct network among its nodes once, by the new
happening's two edges, and gives the pinned network one probe memo (see
search.tighten); tighten makes it the network of each node whose chain
still fits, so nodes that shared a network share the pinned one and probe
each relaxed chain once. A revived duplicate is pinned once with every
executed happening. No network is changed in place, so a shared one stays
as its nodes read it, and a refused pin leaves the node as it was.
"""

import math
from dataclasses import dataclass
from operator import attrgetter

from ..dda import DdaParams, lpf
from .search import (
    INF,
    SearchStats,
    deadline_steps,
    earliest,
    estimate_completion,
    expand,
    grown,
    is_goal,
    latest_start,
    make_root,
    pin_edges,
    q_known,
    schedule,
    tighten,
)


@dataclass
class DispatchParams:
    """Thresholds for the act-versus-deliberate comparison."""

    dt: float = 0.1
    sft: float = None
    min_subtree_expansions: int = 10
    min_sim_open: int = 10
    t_wait: int = 10

    def __post_init__(self):
        if self.sft is None:
            self.sft = self.dt / 2.0
        if not (self.dt > 0 and self.sft > 0):  # NaN fails too
            raise ValueError("thresholds must be positive")
        if self.min_subtree_expansions < 1 or self.min_sim_open < 1:
            raise ValueError("exploration minimums must be at least 1")
        if self.t_wait < 1:
            raise ValueError("t_wait must be at least 1")


@dataclass
class PlanResult:
    solved: bool
    expansions: int
    dispatches: int
    first_dispatch_time: float
    completion_time: float
    records: list
    happenings: list
    reason: str = ""


# the delay-damage scoring's allocation chunk t_u and discount gamma
DDA_PARAMS = DdaParams()


class _Scores:
    """The completion profile of nodes at one h, its expected effort e,
    q_known's whole-support tables and its value by deadline, and lpf's
    value by the clipped success index it reads."""

    __slots__ = ("profile", "e", "tables", "q", "lpf")

    def __init__(self, profile, mean, tables):
        self.profile = profile
        self.e = max(1, round(mean))
        self.tables = tables
        self.q = {}
        self.lpf = {}


def _score(nodes, stats, profiles):
    """Give `profiles` a _Scores for every h among `nodes` that it lacks,
    from one estimate_completion call; the memo holds until the search
    statistics next change."""
    hs = list(dict.fromkeys(nd.h for nd in nodes if nd.h not in profiles))
    if hs:
        for h, scores in zip(hs, estimate_completion(hs, stats)):
            profiles[h] = _Scores(*scores)


def _argmax_q(pool, m, t_now, speed, stats, profiles):
    _score(pool, stats, profiles)
    best = None
    best_q = -INF
    for nd in pool:
        d = deadline_steps(latest_start(nd, m), t_now, speed)
        entry = profiles[nd.h]
        q = entry.q.get(d)
        if q is None:
            q = entry.q[d] = q_known(entry.profile, d, DDA_PARAMS, entry.tables)
        if best is None or q > best_q or (q == best_q and nd.generation_tick < best.generation_tick):
            best = nd
            best_q = q
    return best


# the burst's order: least h first, then the earliest generated
_BEST_FIRST = attrgetter("h", "generation_tick")


def _burst(task, node, m_exec, stats, memo, pruned_dups, counts, t_u):
    """Expand up to t_u nodes inside one subtree; returns (goal_or_None, leftovers)."""
    frontier = [node]
    for _ in range(t_u):
        if not frontier:
            break
        chosen = min(frontier, key=_BEST_FIRST)
        frontier.remove(chosen)
        if is_goal(task, chosen):
            return chosen, frontier
        stats.note_expansion(chosen.generation_tick)
        if len(chosen.prefix) > m_exec:
            ck = (m_exec, chosen.prefix[m_exec])
            counts[ck] = counts.get(ck, 0) + 1
        for child in expand(task, chosen, stats.expansions):
            stats.note_h_step(chosen.h, child.h)
            k = child.key()
            if k in memo:
                pruned_dups.setdefault(k, []).append(child)
                continue
            memo[k] = child.prefix
            frontier.append(child)
    return None, frontier


def _chain_log_failure(nodes, c, t_b, t_now, speed, profiles):
    """Joint log failure of finishing every node's subtree before its window.

    Nodes are charged sequentially: each one waits for the expected effort of
    those before it plus its own before its success is evaluated. lpf reads
    the running sum at min(e, d - 1 - offset), so its value is kept by that
    index; below 0 it would add log(1.0) = 0.0. `profiles` holds a _Scores
    for every node's h.
    """
    total = 0.0
    offset = t_b
    for nd in nodes:
        entry = profiles[nd.h]
        e = entry.e
        offset += e
        d = deadline_steps(latest_start(nd, c), t_now, speed)
        i = min(e, d - 1 - offset)
        if i >= 0:
            value = entry.lpf.get(i)
            if value is None:
                value = entry.lpf[i] = lpf(entry.profile, d, e, offset)
            total += value
    return total


def _decide(open_list, m, t_now, speed, stats, dparams, counts, profiles):
    """Compare acting now against deliberating; ('dispatch'|'focus'|None, step).

    p_nd is only ever compared with a pending start's p_d, so with no
    pending start there is nothing to score."""
    groups = {}
    for nd in open_list:
        if len(nd.prefix) > m and nd.prefix[m][0] == "start":
            groups.setdefault(nd.prefix[m], []).append(nd)
    if not groups:
        return None, None
    _score(open_list, stats, profiles)
    p_nd = 1.0 - math.exp(_chain_log_failure(open_list, m, dparams.t_wait, t_now,
                                             speed, profiles))
    best_disp = None
    best_focus = None
    for step in sorted(groups):
        nodes = groups[step]
        p_d = 1.0 - math.exp(_chain_log_failure(nodes, m + 1, 0, t_now, speed,
                                                profiles))
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


def _never_commit(*_):
    """The nodisp rule: neither dispatch nor focus, and compute no chains."""
    return None, None


MODES = ("disp", "nodisp")


def _pin(task, node, edges, grow):
    """Add the pin `edges` (search.pin_edges) to the node's network; None if
    that breaks it or the node's chain no longer fits. The pinned network
    comes from search.grown, so the nodes pinned through one `grow` dict on
    one network share the pinned network and its probe memo. It is refused
    at once when inconsistent; otherwise tighten probes it with the chain
    and makes it the node's. The old network is never written, and a
    refused pin leaves the node as it was."""
    stn, memo = grown(grow, node.stn, 0, edges)
    if not stn.consistent or not tighten(task, node, stn, memo):
        return None
    return node


def _commit(task, nodes, executed, step, when):
    """Append (step, when) to `executed`; the nodes that survive pinning it,
    each distinct network among them extended once."""
    m = len(executed)
    executed.append((step, when))
    edges, grow = pin_edges(executed, m), {}
    return [nd for nd in nodes if _pin(task, nd, edges, grow) is not None]


def _apply_dispatch(task, step, executed, open_list, memo, pruned_dups, t_now, records):
    """Commit `step` as the next executed happening and reconcile all state."""
    m = len(executed)
    matching = [nd for nd in open_list if len(nd.prefix) > m and nd.prefix[m] == step]
    when = max(t_now, min(earliest(nd, m) for nd in matching))
    records.append((t_now, step[1], when))
    open_list[:] = _commit(task, matching, executed, step, when)

    exec_steps = tuple(s for s, _ in executed)
    freed = []
    for key, pfx in list(memo.items()):
        n = min(len(pfx), len(exec_steps))
        if pfx[:n] != exec_steps[:n]:
            del memo[key]
            freed.append(key)
    # a duplicate pruned against a now-contradicted entry gets another
    # chance, pinned once with every executed happening
    for key in freed:
        dups = pruned_dups.pop(key, None)
        if not dups:
            continue
        kept = []
        revived = False
        for child in dups:
            ok = (
                not revived
                and len(child.prefix) >= len(exec_steps)
                and child.prefix[: len(exec_steps)] == exec_steps
            )
            if ok and _pin(task, child, pin_edges(executed), {}) is not None:
                memo[key] = child.prefix
                open_list.append(child)
                revived = True
            else:
                kept.append(child)
        if kept:
            pruned_dups[key] = kept


def _auto_advance(task, executed, open_list, t_now):
    """Absorb happenings that are no longer decisions: ends of committed
    starts and timed literals, once their moment has passed and every open
    node agrees on them.

    Every open node's prefix[:m] is the executed steps (_apply_dispatch keeps
    only matching nodes and a revival checks the prefix), and an end at
    position m has its start at some pos < m, so that start is committed and
    executed[pos] holds its time."""
    while open_list:
        m = len(executed)
        if any(len(nd.prefix) <= m for nd in open_list):
            return
        steps = {nd.prefix[m] for nd in open_list}
        if len(steps) != 1:
            return
        step = next(iter(steps))
        if step[0] == "start":
            return
        if step[0] == "end":
            when = executed[step[2]][1] + task.by_name[step[1]].duration
        else:
            when = task.tils[step[1]].time
        if when > t_now:
            return
        open_list[:] = _commit(task, open_list, executed, step, when)


def _try_finish(task, node, executed, records, stats, t_now):
    """Schedule the whole plan; starts not yet committed may not predate now."""
    m = len(executed)
    times = schedule(node, m, t_now)
    if times is None:
        return None
    recs = list(records)
    happenings = []
    for pos, step in enumerate(node.prefix):
        if step[0] == "start":
            happenings.append((times[pos], "start", step[1]))
            if pos >= m:
                recs.append((t_now, step[1], times[pos]))
        elif step[0] == "end":
            happenings.append((times[pos], "end", step[1]))
    completion = max(times, default=t_now)
    first = min((t for t, kind, _ in happenings if kind == "start"), default=completion)
    return PlanResult(
        solved=True,
        expansions=stats.expansions,
        dispatches=len(records),
        first_dispatch_time=first,
        completion_time=completion,
        records=recs,
        happenings=happenings,
        reason="goal",
    )


def run_search(task, mode="nodisp", speed=100.0, dispatch_params=None,
               max_expansions=200000):
    """Plan for `task` at the given search speed (expansions per second).

    `mode`, one of `MODES`, picks the decision rule: "nodisp" schedules
    only after search ends (`_never_commit`); "disp" may commit starts
    mid-search (`_decide`, looked up when the search starts, so a replaced
    `_decide` takes effect). Returns a PlanResult whose records hold one
    (decision_time, action, start_time) triple per start, decision never
    later than the start it schedules.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rule = _decide if mode == "disp" else _never_commit
    dparams = dispatch_params if dispatch_params is not None else DispatchParams()
    stats = SearchStats()
    executed = []
    records = []
    root = make_root(task)
    open_list = [] if root is None else [root]
    counts = {}
    memo = {nd.key(): nd.prefix for nd in open_list}
    pruned_dups = {}
    # _Scores by h; they depend only on `stats`, which changes only inside
    # _burst
    profiles = {}
    focus_step = None

    while True:
        t_now = stats.expansions / speed
        m = len(executed)
        open_list = [nd for nd in open_list if latest_start(nd, m) >= t_now - 1e-9]
        if not open_list or stats.expansions >= max_expansions:
            reason = ("goal unreachable" if root is None else
                      "expansion limit" if open_list else "frontier exhausted")
            return PlanResult(False, stats.expansions, len(records), INF, INF,
                              records, [], reason)

        pool = open_list
        if focus_step is not None:
            sub = [nd for nd in pool if len(nd.prefix) > m and nd.prefix[m] == focus_step]
            if sub:
                pool = sub
            else:
                focus_step = None
        chosen = _argmax_q(pool, m, t_now, speed, stats, profiles)
        open_list.remove(chosen)
        goal_node, leftovers = _burst(task, chosen, m, stats, memo, pruned_dups, counts,
                                      min(dparams.t_wait, max_expansions - stats.expansions))
        profiles.clear()
        open_list.extend(leftovers)
        t_now = stats.expansions / speed

        if goal_node is not None:
            done = _try_finish(task, goal_node, executed, records, stats, t_now)
            if done is not None:
                return done
            # reached the goal too late to schedule it; keep searching

        _auto_advance(task, executed, open_list, t_now)
        if not open_list:
            continue
        kind, step = rule(open_list, len(executed), t_now, speed, stats, dparams,
                          counts, profiles)
        if kind == "dispatch":
            _apply_dispatch(task, step, executed, open_list, memo, pruned_dups,
                            t_now, records)
        focus_step = step if kind == "focus" else None
