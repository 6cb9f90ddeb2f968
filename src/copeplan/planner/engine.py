"""Planning loop that interleaves search with execution on a shared clock.

Search effort is the clock: expanding one node costs 1/speed seconds of plan
time. In dispatching mode the loop may commit the next pending start while
search continues, comparing the estimated success probability of acting now
against continuing to deliberate; committed steps pin their timestamps into
every surviving node. In plain mode the plan is only scheduled after a goal
node survives a feasibility check at the time the search actually finished.
"""

import math
from dataclasses import dataclass

from ..dda import DdaParams, lpf
from ..stn import ORIGIN
from .search import (
    INF,
    SearchStats,
    deadline_steps,
    estimate_completion,
    expand,
    is_goal,
    latest_start,
    make_root,
    q_known,
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
        if self.dt <= 0 or self.sft <= 0:
            raise ValueError("thresholds must be positive")
        if self.min_subtree_expansions < 1 or self.min_sim_open < 1:
            raise ValueError("exploration minimums must be at least 1")
        if self.t_wait < 1:
            raise ValueError("t_wait must be at least 1")

    @classmethod
    def from_settings(cls, dt, sft, t_wait, frontier_min_1, sft_1):
        """Parameters from user-facing settings, including the two ablations:
        frontier_min_1 drops both evidence minimums to 1 and sft_1 forces the
        focus threshold to 1."""
        minimums = {}
        if frontier_min_1:
            minimums = {"min_subtree_expansions": 1, "min_sim_open": 1}
        return cls(dt=dt, sft=1.0 if sft_1 else sft, t_wait=t_wait, **minimums)


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


def _profile(nd, stats, profiles):
    """(completion profile, expected effort e) for nodes at nd.h, memoised in
    `profiles` until the search statistics next change."""
    entry = profiles.get(nd.h)
    if entry is None:
        prof = estimate_completion(nd, stats)
        entry = profiles[nd.h] = (prof, max(1, round(prof.mean())))
    return entry


def _argmax_q(pool, m, t_now, speed, stats, dda, profiles):
    q_cache = {}
    best = None
    best_q = -INF
    for nd in pool:
        d = deadline_steps(latest_start(nd, m), t_now, speed)
        q = q_cache.get((nd.h, d))
        if q is None:
            q = q_known(_profile(nd, stats, profiles)[0], d, dda)
            q_cache[(nd.h, d)] = q
        if best is None or q > best_q or (q == best_q and nd.generation_tick < best.generation_tick):
            best = nd
            best_q = q
    return best


def _burst(task, node, m_exec, stats, memo, pruned_dups, counts, t_u):
    """Expand up to t_u nodes inside one subtree; returns (goal_or_None, leftovers)."""
    frontier = [node]
    for _ in range(t_u):
        if not frontier:
            break
        chosen = min(frontier, key=lambda nd: (nd.h, nd.generation_tick))
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


def _chain_log_failure(nodes, c, t_b, t_now, speed, stats, profiles):
    """Joint log failure of finishing every node's subtree before its window.

    Nodes are charged sequentially: each one waits for the expected effort of
    those before it plus its own before its success is evaluated.
    """
    total = 0.0
    offset = t_b
    for nd in nodes:
        prof, e = _profile(nd, stats, profiles)
        offset += e
        d = deadline_steps(latest_start(nd, c), t_now, speed)
        total += lpf(prof, d, e, offset)
    return total


def _decide(open_list, m, t_now, speed, stats, dparams, counts, profiles):
    """Compare acting now against deliberating; ('dispatch'|'focus'|None, step)."""
    p_nd = 1.0 - math.exp(_chain_log_failure(open_list, m, dparams.t_wait, t_now,
                                             speed, stats, profiles))
    groups = {}
    for nd in open_list:
        if len(nd.prefix) > m and nd.prefix[m][0] == "start":
            groups.setdefault(nd.prefix[m], []).append(nd)
    best_disp = None
    best_focus = None
    for step in sorted(groups):
        nodes = groups[step]
        p_d = 1.0 - math.exp(_chain_log_failure(nodes, m + 1, 0, t_now, speed,
                                                stats, profiles))
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


def _pin(task, node, pos, when):
    """Fix t(step pos) = when in the node's network; None if that breaks it."""
    origin, ev = node.stn.index[ORIGIN], node.stn.index[f"s{pos}"]
    stn = node.stn.extend((), [(origin, ev, when), (ev, origin, -when)])
    if not stn.consistent:
        return None
    node.stn = stn
    if not tighten(task, node):
        return None
    return node


def _repin(task, node, executed):
    for pos, (_, when) in enumerate(executed):
        if _pin(task, node, pos, when) is None:
            return None
    return node


def _commit(task, nodes, executed, step, when):
    """Append (step, when) to `executed`; the nodes that survive pinning it."""
    m = len(executed)
    executed.append((step, when))
    return [nd for nd in nodes if _pin(task, nd, m, when) is not None]


def _apply_dispatch(task, step, executed, open_list, memo, pruned_dups, t_now, records):
    """Commit `step` as the next executed happening and reconcile all state."""
    m = len(executed)
    matching = [nd for nd in open_list if len(nd.prefix) > m and nd.prefix[m] == step]
    when = max(t_now, float(min(nd.stn.tmin(f"s{m}") for nd in matching)))
    records.append((t_now, step[1], when))
    open_list[:] = _commit(task, matching, executed, step, when)

    exec_steps = tuple(s for s, _ in executed)
    freed = []
    for key, pfx in list(memo.items()):
        n = min(len(pfx), len(exec_steps))
        if pfx[:n] != exec_steps[:n]:
            del memo[key]
            freed.append(key)
    # a duplicate pruned against a now-contradicted entry gets another chance
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
            if ok and _repin(task, child, executed) is not None:
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
    node agrees on them."""
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
            pos = step[2]
            if pos >= m:
                return
            when = executed[pos][1] + task.by_name[step[1]].duration
        else:
            when = task.tils[step[1]].time
        if when > t_now:
            return
        open_list[:] = _commit(task, open_list, executed, step, when)


def _try_finish(task, node, executed, records, stats, t_now, dispatches):
    """Schedule the whole plan; starts not yet committed may not predate now."""
    index = node.stn.index
    m = len(executed)
    stn = node.stn.extend((), [
        (index[f"s{pos}"], index[ORIGIN], -t_now)
        for pos, step in enumerate(node.prefix) if pos >= m and step[0] == "start"
    ])
    if not stn.consistent:
        return None
    times = {pos: float(stn.tmin(f"s{pos}")) for pos in range(len(node.prefix))}
    recs = list(records)
    happenings = []
    for pos, step in enumerate(node.prefix):
        if step[0] == "start":
            happenings.append((times[pos], "start", step[1]))
            if pos >= m:
                recs.append((t_now, step[1], times[pos]))
        elif step[0] == "end":
            happenings.append((times[pos], "end", step[1]))
    completion = max(times.values(), default=t_now)
    first = min((t for t, kind, _ in happenings if kind == "start"), default=completion)
    return PlanResult(
        solved=True,
        expansions=stats.expansions,
        dispatches=dispatches,
        first_dispatch_time=first,
        completion_time=completion,
        records=recs,
        happenings=happenings,
        reason="goal",
    )


def run_search(task, mode="nodisp", speed=100.0, dispatch_params=None,
               dda_params=None, max_expansions=200000):
    """Plan for `task` at the given search speed (expansions per second).

    mode "nodisp" schedules only after search ends; "disp" may commit starts
    mid-search. Returns a PlanResult whose records hold one
    (decision_time, action, start_time) triple per start, decision never
    later than the start it schedules.
    """
    if mode not in ("disp", "nodisp"):
        raise ValueError(f"unknown mode {mode!r}")
    dparams = dispatch_params if dispatch_params is not None else DispatchParams()
    dda = dda_params if dda_params is not None else DdaParams()
    stats = SearchStats()
    root = make_root(task)
    if root is None:
        return PlanResult(False, 0, 0, INF, INF, [], [], "goal unreachable")

    executed = []
    records = []
    counts = {}
    memo = {root.key(): root.prefix}
    pruned_dups = {}
    open_list = [root]
    # completion profiles by h; they depend only on `stats`, which changes
    # only inside _burst
    profiles = {}
    focus_step = None
    dispatches = 0

    while True:
        t_now = stats.expansions / speed
        m = len(executed)
        open_list = [nd for nd in open_list if latest_start(nd, m) >= t_now - 1e-9]
        if not open_list:
            return PlanResult(False, stats.expansions, dispatches, INF, INF,
                              records, [], "frontier exhausted")
        if stats.expansions >= max_expansions:
            return PlanResult(False, stats.expansions, dispatches, INF, INF,
                              records, [], "expansion limit")

        pool = open_list
        if focus_step is not None:
            sub = [nd for nd in pool if len(nd.prefix) > m and nd.prefix[m] == focus_step]
            if sub:
                pool = sub
            else:
                focus_step = None
        chosen = _argmax_q(pool, m, t_now, speed, stats, dda, profiles)
        open_list.remove(chosen)
        goal_node, leftovers = _burst(task, chosen, m, stats, memo, pruned_dups,
                                      counts, dparams.t_wait)
        profiles.clear()
        open_list.extend(leftovers)
        t_now = stats.expansions / speed

        if goal_node is not None:
            done = _try_finish(task, goal_node, executed, records, stats,
                               t_now, dispatches)
            if done is not None:
                return done
            # reached the goal too late to schedule it; keep searching

        if mode == "disp":
            _auto_advance(task, executed, open_list, t_now)
            if not open_list:
                continue
            m = len(executed)
            kind, step = _decide(open_list, m, t_now, speed, stats, dparams, counts,
                                 profiles)
            if kind == "dispatch":
                _apply_dispatch(task, step, executed, open_list, memo,
                                pruned_dups, t_now, records)
                dispatches += 1
                focus_step = None
            elif kind == "focus":
                focus_step = step
            else:
                focus_step = None
