"""Search-space machinery: nodes, expansion, heuristics, and urgency scores.

A node is a totally ordered sequence of snap happenings with a temporal
network over their timestamps. Between two timed-literal applications every
step must fit before the next pending literal, so sequence order and time
order always agree. Remaining work is estimated by a delete-relaxed pass
whose extracted action chain is also probed against the node's network (as
tentative events that Stn.probe never adds to it) to tighten the latest
feasible start of each pending step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..dda import FAILURE_FLOOR, DdaParams
from ..dist import DiscreteDistribution
from ..stn import EPSILON_SEPARATION, ORIGIN, Stn
from .task import apply_end, apply_start

INF = math.inf


@dataclass
class SearchStats:
    """Running aggregates the estimator feeds on.

    expansion_delay is the mean number of expansions a node waits between
    generation and expansion; the one-step error tracker accumulates how far
    each expansion moves the heuristic from the ideal decrease of exactly 1.
    """

    expansions: int = 0
    delay_sum: float = 0.0
    delay_count: int = 0
    err_count: int = 0
    err_mean: float = 0.0
    err_m2: float = 0.0

    def note_expansion(self, generation_tick: int):
        self.expansions += 1
        self.delay_sum += self.expansions - generation_tick
        self.delay_count += 1

    def note_h_step(self, parent_h: float, child_h: float):
        if math.isinf(parent_h) or math.isinf(child_h):
            return
        x = child_h + 1.0 - parent_h
        self.err_count += 1
        d = x - self.err_mean
        self.err_mean += d / self.err_count
        self.err_m2 += d * (x - self.err_mean)

    def expansion_delay(self) -> float:
        if self.delay_count == 0:
            return 1.0
        return max(1.0, self.delay_sum / self.delay_count)

    def h_error_std(self) -> float:
        if self.err_count < 2:
            return 0.0
        return math.sqrt(self.err_m2 / self.err_count)


# distinct nodes never share a network, so identity is node equality, and
# list.remove on the open list and the frontier need not compare fields
@dataclass(eq=False)
class SearchNode:
    prefix: tuple
    props: frozenset
    opens: tuple
    til_count: int
    stn: Stn
    h: float
    chain: tuple
    generation_tick: int
    start_tmaxes: tuple = ()

    def key(self):
        return (self.props, self.opens, self.til_count)


def latest_start(node: SearchNode, c: int) -> float:
    """Latest feasible time of the earliest pending start at position >= c.

    Positions below c count as committed. Infinity when nothing at or past c
    needs a start decision.
    """
    vals = [tm for pos, tm in node.start_tmaxes if pos >= c]
    return min(vals) if vals else INF


def relaxed_plan(task, props, opens, til_count):
    """Delete-relaxed goal check: chain of still-unstarted actions, or None.

    Future timed additions are treated as already available and deletions are
    ignored, so reachability here is optimistic; a None is a true dead end.
    Extraction backchains through the earliest achiever of every needed fact,
    which keeps the chain minimal when several actions add the same goal.
    """
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
            if a.relaxed_pre <= facts:
                new = a.adds - facts
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
        for p in sorted(a.conds):
            if p not in props:
                queue.append(p)
    return [a for a in applied if a.name in selected]


def tighten(task, node: SearchNode):
    """Cache latest feasible starts against the relaxed chain.

    The chain actions are laid out sequentially after the last step, bounded
    by upcoming timed deletions of their conditions (and of goal facts); open
    intervals bound the chain's finish from below. The chain is only probed
    (Stn.probe), never added to the node's network; the probe's origin row
    gives the prefix tmax values. Returns False when even the optimistic
    chain cannot fit, which callers treat as a dead end.
    """
    stn = node.stn
    index = stn.index
    eps = EPSILON_SEPARATION
    future = task.tils[node.til_count:]
    origin = index[ORIGIN]
    last = index[f"s{len(node.prefix) - 1}"] if node.prefix else origin
    ev = len(stn.events)
    edges = []
    for a in node.chain:
        edges.append((ev, last, -eps))
        bound = INF
        for lit in future:
            if not lit.add and lit.prop in a.conds:
                cut = lit.time - eps
                if lit.prop in a.cond_over or lit.prop in a.cond_end:
                    cut = lit.time - a.duration
                bound = min(bound, cut)
        if bound < INF:
            edges.append((origin, ev, bound))
        edges.append((ev + 1, ev, -a.duration))
        last = ev + 1
        ev += 2
    goal_cut = INF
    for lit in future:
        if not lit.add and lit.prop in task.goal:
            goal_cut = min(goal_cut, lit.time - eps)
    if node.opens or goal_cut < INF:
        edges.append((ev, last, 0.0))
        for name, pos in node.opens:
            edges.append((ev, index[f"s{pos}"], -task.by_name[name].duration))
        if goal_cut < INF:
            edges.append((origin, ev, goal_cut))
        ev += 1
    tmax = stn.probe(ev - len(stn.events), edges)
    if tmax is None:
        return False
    node.start_tmaxes = tuple(
        (pos, tmax[index[f"s{pos}"]])
        for pos, step in enumerate(node.prefix)
        if step[0] == "start"
    )
    return True


def make_child(task, parent: SearchNode, step, tick: int):
    """Apply one snap step; None when conditions or time make it impossible."""
    eps = EPSILON_SEPARATION
    k = len(parent.prefix)
    ev = f"s{k}"
    til_count = parent.til_count
    if step[0] == "start":
        a = task.by_name[step[1]]
        if not a.cond_start <= parent.props:
            return None
        props = apply_start(a, parent.props)
        opens = parent.opens + ((a.name, k),)
    elif step[0] == "end":
        a = task.by_name[step[1]]
        if not a.cond_end <= parent.props:
            return None
        props = apply_end(a, parent.props)
        opens = tuple(o for o in parent.opens if o != (a.name, step[2]))
    else:
        lit = task.tils[step[1]]
        props = (parent.props | {lit.prop}) if lit.add else (parent.props - {lit.prop})
        opens = parent.opens
        til_count = step[1] + 1
    for name, _ in opens:
        if not task.by_name[name].cond_over <= props:
            return None

    index = parent.stn.index
    origin = index[ORIGIN]
    new = len(parent.stn.events)
    edges = [(new, index[f"s{k - 1}"], -eps)] if k > 0 else []
    if step[0] == "end":
        start = index[f"s{step[2]}"]
        a = task.by_name[step[1]]
        edges += [(start, new, a.duration), (new, start, -a.duration)]
    elif step[0] == "til":
        t = task.tils[step[1]].time
        edges += [(origin, new, t), (new, origin, -t)]
    if step[0] != "til" and til_count < len(task.tils):
        edges.append((origin, new, task.tils[til_count].time - eps))
    stn = parent.stn.extend((ev,), edges)
    if not stn.consistent:
        return None

    chain = relaxed_plan(task, props, opens, til_count)
    if chain is None:
        return None
    h = 2 * len(chain) + len(opens)
    node = SearchNode(
        prefix=parent.prefix + (step,),
        props=props,
        opens=opens,
        til_count=til_count,
        stn=stn,
        h=float(h),
        chain=tuple(chain),
        generation_tick=tick,
    )
    if not tighten(task, node):
        return None
    return node


def candidate_steps(task, node: SearchNode):
    steps = []
    if node.til_count < len(task.tils):
        steps.append(("til", node.til_count))
    for name, pos in node.opens:
        steps.append(("end", name, pos))
    for a in task.actions:
        if a.cond_start <= node.props:
            steps.append(("start", a.name))
    return steps


def expand(task, node: SearchNode, tick: int):
    children = []
    for step in candidate_steps(task, node):
        child = make_child(task, node, step, tick)
        if child is not None:
            children.append(child)
    return children


def make_root(task):
    props = frozenset(task.init)
    chain = relaxed_plan(task, props, (), 0)
    if chain is None:
        return None
    node = SearchNode(
        prefix=(),
        props=props,
        opens=(),
        til_count=0,
        stn=Stn(),
        h=float(2 * len(chain)),
        chain=tuple(chain),
        generation_tick=0,
    )
    if not tighten(task, node):
        return None
    return node


def is_goal(task, node: SearchNode) -> bool:
    return task.goal <= node.props and not node.opens


# -- completion estimates and urgency ---------------------------------------

ESTIMATE_SUPPORT_CAP = 200
# log(k + 0.5), the log of the upper edge of grid cell k, for every k a
# discretized lognormal can reach
_LOG_CELL_EDGES = np.array([math.log(k + 0.5) for k in range(ESTIMATE_SUPPORT_CAP + 1)])
_SQRT2 = math.sqrt(2.0)


def discretized_lognormal(mean: float, cv: float) -> DiscreteDistribution:
    """Integer-grid distribution with the given mean and relative spread.

    Cell k (1 <= k < cap) holds Phi(edge k) - Phi(edge k-1) of the lognormal,
    and the last cell takes the rest of the mass. The arithmetic around erf
    runs on arrays; each operation rounds as the scalar form would.
    """
    if mean <= 0:
        return DiscreteDistribution.delta(0)
    sigma2 = math.log(1.0 + cv * cv)
    # below about 1.05e-8, cv * cv vanishes next to 1 and sigma would be 0
    if cv < 1e-9 or sigma2 == 0.0:
        return DiscreteDistribution.delta(max(1, round(mean)))
    sigma = math.sqrt(sigma2)
    mu = math.log(mean) - sigma2 / 2.0
    cap = int(math.ceil(math.exp(mu + 3.29 * sigma)))
    cap = max(2, min(cap, ESTIMATE_SUPPORT_CAP))
    z = (_LOG_CELL_EDGES[1:cap] - mu) / sigma / _SQRT2
    # phi[k-1] = Phi(edge k) = 0.5 * (1 + erf(z)), the mass below edge k
    phi = np.fromiter(map(math.erf, z.tolist()), float, cap - 1)
    phi += 1.0
    phi *= 0.5
    probs = np.empty(cap + 1)
    probs[0] = 0.0
    probs[1] = phi[0]
    np.subtract(phi[1:], phi[:-1], out=probs[2:cap])
    probs[cap] = 1.0 - phi[-1]
    probs /= probs.sum()
    return DiscreteDistribution(probs)


def estimate_completion(node: SearchNode, stats: SearchStats) -> DiscreteDistribution:
    """Distribution over expansions still needed beneath this node."""
    if node.h <= 0:
        return DiscreteDistribution.delta(0)
    mean = node.h * stats.expansion_delay()
    # per-step heuristic errors accumulate over h steps
    cv = min(2.0, stats.h_error_std() / math.sqrt(node.h))
    return discretized_lognormal(mean, cv)


def deadline_steps(latest: float, t_now: float, speed: float) -> int:
    """Expansion budget until `latest`, on the strict completes-before grid."""
    if latest is INF or latest == INF:
        return 10**9
    budget = (latest - t_now) * speed
    if budget < 0:
        return 0
    return int(math.floor(budget)) + 1


def q_known(profile: DiscreteDistribution, d: int, params: DdaParams) -> float:
    """Urgency of a process against a fixed deadline d expansion-steps away.

    Vectorized replica of the reference scoring (same floats): success after
    t units starting at offset t_b is the profile's running sum at
    min(t, d-1-t_b). Each term is the least log-failure rate over t; both
    terms read one table of log-failures and its running minimum of rates.
    """
    cum = profile.cum
    support = len(cum) - 1
    m = min(max(d - 1, 0), support)
    log_fail = np.log(np.maximum(1.0 - cum[: m + 1], FAILURE_FLOOR))
    # best_rate[k-1]: least log_fail[t] / t over t = 1..k
    best_rate = np.minimum.accumulate(log_fail[1:] / np.arange(1, m + 1))

    def term(t_b: int) -> float:
        cap = d - t_b
        if cap < 1:
            return 0.0
        if support == 0:
            return float(log_fail[0])
        # t < cap reads cum[t]; t = cap (inside the support) reads cum[cap-1]
        k = min(support, cap - 1)
        best = best_rate[k - 1] if k >= 1 else INF
        if cap <= support:
            best = min(best, log_fail[cap - 1] / cap)
        return float(best)

    return params.gamma * term(params.t_u) - term(0)
