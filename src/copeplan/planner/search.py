"""Search-space machinery: nodes, expansion, heuristics, and urgency scores.

A node is a totally ordered sequence of snap happenings with a temporal
network over their timestamps. Between two timed-literal applications every
step must fit before the next pending literal, so sequence order and time
order always agree. Remaining work is estimated by a delete-relaxed pass
whose extracted action chain is also probed against the node's network (as
tentative events that Stn.probe never adds to it) to tighten the latest
feasible start of each pending step.

A node's state is a bitmask over the task's numbered propositions
(Task.bit), so applying a step, testing a condition and the relaxed pass are
integer & and | on the masks Task compiles once. What the per-node work
reads that depends on the task alone is compiled there too: the relaxed
pass walks Task.relaxed_actions and the end masks of Task.masks, and tighten
reads each chain action's deadline bound and the goal cut from
Task.chain_bounds.

Events are positions, never names: a network holds the origin, then one
event per step in prefix order, so step pos is event pos + 1. This module
alone knows that layout: the engine pins with pin_edges and reads times
through earliest and schedule.

A node's network grows three ways: a child's is its parent's extended by
the child's event and edges, a commit pins an executed happening into every
node that survives it, and a revived duplicate is pinned with every
executed happening at once. Each goes through grown, which extends a
network by given events and edges once per `grow` dict and gives the result
one probe memo. A network is fixed by the constraints added to it, so nodes
whose networks and added edges agree share the extended one: the start
children of one expansion (a start leaves til_count as it was, so their
edges are equal), and the nodes one commit pins on one network. A child
whose network is inconsistent is refused before its relaxed plan, and
tighten then probes the child's network with its chain alone.

The probe memo lives as long as its grow dict. tighten keys it on the
compiled values that fix a probe's answer, the count of new events and the
edges up to the probe's cut (stn.probe_edges), before it lays out any
chain, and stores the node's latest starts or its refusal, so a relaxed
chain that a node on the same network has already probed is neither laid
out nor probed again. No network is grown twice, no probe is repeated on
one network, and no shared matrix or latest list is written in place.

One constructor, _node, makes the root (the initial state on an empty
network) and every child (make_child's state on its extended network): it
refuses an inconsistent network, scores the relaxed chain and tightens.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..dda import FAILURE_FLOOR, DdaParams
from ..dist import DiscreteDistribution, check_mass
from ..stn import EPSILON_SEPARATION, Stn, probe_edges

INF = math.inf


@dataclass
class SearchStats:
    """Running aggregates the estimator feeds on.

    expansion_delay is the mean number of expansions a node waits between
    generation and expansion, delay_sum over expansions; the one-step error
    tracker accumulates how far each expansion moves the heuristic from the
    ideal decrease of exactly 1.
    """

    expansions: int = 0
    delay_sum: float = 0.0
    err_count: int = 0
    err_mean: float = 0.0
    err_m2: float = 0.0

    def note_expansion(self, generation_tick: int):
        self.expansions += 1
        self.delay_sum += self.expansions - generation_tick

    def note_h_step(self, parent_h: float, child_h: float):
        x = child_h + 1.0 - parent_h
        self.err_count += 1
        d = x - self.err_mean
        self.err_mean += d / self.err_count
        self.err_m2 += d * (x - self.err_mean)

    def expansion_delay(self) -> float:
        if self.expansions == 0:
            return 1.0
        return max(1.0, self.delay_sum / self.expansions)

    def h_error_std(self) -> float:
        if self.err_count < 2:
            return 0.0
        return math.sqrt(self.err_m2 / self.err_count)


# distinct nodes are distinct search states, so identity is node equality,
# and list.remove on the open list and the frontier need not compare fields
@dataclass(eq=False)
class SearchNode:
    """`props` is the node's state as a proposition bitmask. `stn` is the
    node's network, its pins included; a start child's is the network its
    expansion's start children share, and a pin gives the nodes it fixes
    together one pinned network. `latest[c]` is the least latest feasible
    time of a start step at a position >= c; nodes on one network may share
    the list, which is never written once set. tighten sets both."""

    prefix: tuple
    props: int
    opens: tuple
    til_count: int
    h: float
    chain: tuple
    generation_tick: int
    stn: Stn = None
    latest: list = ()

    def key(self):
        return (self.props, self.opens, self.til_count)


def latest_start(node: SearchNode, c: int) -> float:
    """Latest feasible time of the earliest pending start at position >= c.

    Positions below c count as committed. Infinity when nothing at or past c
    needs a start decision.
    """
    return node.latest[c] if c < len(node.latest) else INF


def relaxed_plan(task, props, opens, til_count):
    """Delete-relaxed goal check: chain of still-unstarted actions, or None.

    Future timed additions are treated as already available and deletions are
    ignored, so reachability here is optimistic; a None is a true dead end.
    Each round first lets the open actions end, then applies each action in
    task order whose relaxed precondition holds and that adds something new,
    with facts visible within the round. The first achiever of a fact is
    the one that made it new, and extraction backchains through those
    achievers, which keeps the chain minimal when several actions add the
    same goal. Every set is a bitmask; an achiever's conditions are achieved
    at or before it, so one backward scan over the applied actions finds
    every achiever the goal needs.
    """
    facts = props | task.til_adds[til_count]
    masks = task.masks
    pending = [masks[name] for name, _ in opens]
    # actions not yet applied, as Task.relaxed_actions tuples; one whose
    # precondition holds but that adds nothing new never will, as facts
    # only grow
    waiting = task.relaxed_actions
    applied = []
    progress = True
    while progress:
        progress = False
        if pending:
            still = []
            for m in pending:
                if m.cond_end & ~facts:
                    still.append(m)
                elif m.add_end & ~facts:
                    facts |= m.add_end
                    progress = True
            pending = still
        # ~facts, kept as facts grow
        missing = ~facts
        left = []
        for entry in waiting:
            a, pre, adds, conds = entry
            if pre & missing:
                left.append(entry)
                continue
            new = adds & missing
            if new:
                applied.append((a, conds, new))
                facts |= new
                missing = ~facts
                progress = True
        waiting = left
    if pending or task.goal_mask & ~facts:
        return None
    need = task.goal_mask & ~props
    chain = []
    for a, conds, new in reversed(applied):
        if new & need:
            chain.append(a)
            need |= conds & ~props
    chain.reverse()
    return chain


def tighten(task, node: SearchNode, base: Stn, memo: dict):
    """Make `base` the node's network and set its latest feasible starts
    against the relaxed chain.

    The chain actions are laid out sequentially after the last step, each
    bounded by the upcoming timed deletions of its conditions, and the
    chain's finish by those of goal facts (Task.chain_bounds at the node's
    til_count); open intervals bound the finish from below. One Stn.probe of
    `base` with the chain, which is never added to any network, gives the
    prefix tmax values in its origin row. Returns False when even the
    optimistic chain cannot fit, which callers treat as a dead end; the node
    is then left as it was.

    `memo` is `base`'s probe memo: it maps a key of the probe to the latest
    list that probe gave, or False for a refusal, and a key found there is
    not probed again, nor is its chain laid out. The answer is a function
    of n_new and the edges up to the probe's cut (stn.probe_edges). `base`
    holds the origin and one event per prefix step, so every index in those
    edges is fixed by the network, and their values by:
    - the chain length and whether a final block (for the opens or the goal
      cut) exists, which give n_new;
    - when the goal is cut, the last edge bounds the finish, so the cut
      keeps every edge: each chain action's (bound, duration), each open's
      (pos, duration) and the goal cut;
    - else the cut falls just after the last bounded action's deadline
      edge: the (bound, duration) of each action before it, and its bound.
    The key holds exactly these values, so two calls share a key exactly
    when they share n_new and the cut edges. The latest list reads the
    answer only at the prefix, whose kinds every node on one shared network
    has in common: start siblings differ only in which action their last
    step starts, and a pin shares a network only among nodes that shared
    one. A list is never written once set, so nodes may share it. The key
    compares bounds with ==, which holds between 0.0 and -0.0, but no bound
    is -0.0 (see Task._compile_chain_bounds).
    """
    bounds, goal_cut = task.chain_bounds[node.til_count]
    steps = [bounds[a.name] for a in node.chain]
    final = bool(node.opens) or goal_cut < INF
    n_new = 2 * len(steps) + final
    if goal_cut < INF:
        by_name = task.by_name
        key = (n_new, tuple(steps), goal_cut,
               tuple([(pos, by_name[name].duration) for name, pos in node.opens]))
    else:
        # the steps up to the last bounded one
        k = len(steps)
        while k and steps[k - 1][0] == INF:
            k -= 1
        key = (n_new, tuple(steps[:k - 1]), steps[k - 1][0]) if k else (n_new, (), INF)
    latest = memo.get(key)
    if latest is None:
        tmax = base.probe(n_new, *_chain_edges(task, node, steps, goal_cut, len(base.dist)))
        latest = memo[key] = False if tmax is None else _suffix_minima(node.prefix, tmax.tolist())
    if latest is False:
        return False
    node.stn = base
    node.latest = latest
    return True


def _chain_edges(task, node, steps, goal_cut, m):
    """(edges, row_only) of tighten's probe of a network of m events, cut
    by stn.probe_edges: the chain's (bound, duration) steps laid out after
    the last step, then the final block when there are opens or a goal cut."""
    eps = EPSILON_SEPARATION
    edges = []
    last = len(node.prefix)
    ev = last + 1
    for bound, duration in steps:
        edges.append((ev, last, -eps))
        if bound < INF:
            edges.append((0, ev, bound))
        edges.append((ev + 1, ev, -duration))
        last = ev + 1
        ev += 2
    if node.opens or goal_cut < INF:
        edges.append((ev, last, 0.0))
        for name, pos in node.opens:
            edges.append((ev, pos + 1, -task.by_name[name].duration))
        if goal_cut < INF:
            edges.append((0, ev, goal_cut))
    return probe_edges(m, edges)


def _suffix_minima(prefix, tmax):
    """latest[c], the least start tmax at a position >= c, for each c up to
    len(prefix); step pos reads tmax[pos + 1]. Of equal values the earlier
    is kept, as min over the list in position order would."""
    latest = [INF] * (len(prefix) + 1)
    low = INF
    for pos in range(len(prefix) - 1, -1, -1):
        if prefix[pos][0] == "start" and tmax[pos + 1] <= low:
            low = tmax[pos + 1]
        latest[pos] = low
    return latest


def _node(task, prefix, props, opens, til_count, tick, stn, memo):
    """The node of a state whose network is `stn`, tightened against its
    relaxed chain through `stn`'s probe memo (see tighten); None when `stn`
    is inconsistent, when no relaxed plan reaches the goal or when the chain
    does not fit. The root and every child are made here."""
    if not stn.consistent:
        return None
    chain = relaxed_plan(task, props, opens, til_count)
    if chain is None:
        return None
    node = SearchNode(prefix, props, opens, til_count, float(2 * len(chain) + len(opens)),
                      tuple(chain), tick)
    return node if tighten(task, node, stn, memo) else None


def grown(grow, network, n_new, edges):
    """(`network` extended by n_new events and the `edges` tuple, its probe
    memo), built once per `grow` dict: a later call with the same network
    object, n_new and edges gets the same pair. Stn has no __eq__, so a
    network keys by identity."""
    key = (network, n_new, edges)
    pair = grow.get(key)
    if pair is None:
        pair = grow[key] = network.extend(n_new, edges), {}
    return pair


def make_child(task, parent: SearchNode, step, tick: int, grow=None):
    """Apply one snap step; None when conditions or time make it impossible.

    A start step must be applicable in the parent (its start conditions
    hold there), as `candidate_steps` only offers such starts; an end step's
    conditions are checked here.

    The child's event is k + 1 for a prefix of length k, and the child's
    network is the parent's extended by that event and its edges, through
    grown and `grow`; when that network is inconsistent the child is None
    before its relaxed plan. expand passes one `grow` per expansion, so the
    start children, whose edges are equal, share one network and probe
    memo, and no chain a sibling has probed is probed again. Without `grow`
    the network and memo are this child's alone."""
    eps = EPSILON_SEPARATION
    k = len(parent.prefix)
    new = k + 1
    kind, what = step[0], step[1]
    props, opens, til_count = parent.props, parent.opens, parent.til_count
    masks = task.masks
    # the step's separation from the last step, then its own edges
    edges = [(new, k, -eps)] if k else []
    if kind == "til":
        lit = task.tils[what]
        bit = task.bit[lit.prop]
        props = (props | bit) if lit.add else (props & ~bit)
        til_count = what + 1
        edges += ((0, new, lit.time), (new, 0, -lit.time))
    else:
        m = masks[what]
        if kind == "start":
            props = (props & ~m.del_start) | m.add_start
            opens += ((what, k),)
        else:
            if m.cond_end & ~props:
                return None
            props = (props & ~m.del_end) | m.add_end
            opens = tuple(o for o in opens if o != (what, step[2]))
            d = task.by_name[what].duration
            edges += ((step[2] + 1, new, d), (new, step[2] + 1, -d))
        # a start or end comes before the next timed literal
        if til_count < len(task.tils):
            edges.append((0, new, task.tils[til_count].time - eps))
    for name, _ in opens:
        if masks[name].cond_over & ~props:
            return None
    stn, memo = grown({} if grow is None else grow, parent.stn, 1, tuple(edges))
    return _node(task, parent.prefix + (step,), props, opens, til_count, tick, stn, memo)


def candidate_steps(task, node: SearchNode):
    steps = []
    if node.til_count < len(task.tils):
        steps.append(("til", node.til_count))
    for name, pos in node.opens:
        steps.append(("end", name, pos))
    for name, m in task.masks.items():
        if not m.cond_start & ~node.props:
            steps.append(("start", name))
    return steps


def expand(task, node: SearchNode, tick: int):
    children = []
    # the networks this expansion's children grow, which its start children
    # share
    grow = {}
    for step in candidate_steps(task, node):
        child = make_child(task, node, step, tick, grow)
        if child is not None:
            children.append(child)
    return children


def make_root(task):
    return _node(task, (), task.mask(task.init), (), 0, 0, Stn(), {})


def is_goal(task, node: SearchNode) -> bool:
    return not task.goal_mask & ~node.props and not node.opens


def pin_edges(executed, start=0):
    """The edges that fix t(step pos) = when for each executed (step, when)
    from position `start` on, as a tuple for grown."""
    edges = []
    for pos, (_, when) in enumerate(executed[start:], start):
        edges += ((0, pos + 1, when), (pos + 1, 0, -when))
    return tuple(edges)


def earliest(node: SearchNode, pos: int) -> float:
    """The earliest time of step pos in the node's network."""
    return float(-node.stn.dist[pos + 1, 0])


def schedule(node: SearchNode, m: int, t_now: float):
    """The earliest time of each step of the node, by position, once every
    start at position m or later is held at or after t_now; None when that
    breaks the network. The node's network is not changed."""
    stn = node.stn.extend(0, [(pos + 1, 0, -t_now)
                              for pos, step in enumerate(node.prefix)
                              if pos >= m and step[0] == "start"])
    if not stn.consistent:
        return None
    return [float(-stn.dist[pos + 1, 0]) for pos in range(len(node.prefix))]


# -- completion estimates and urgency ---------------------------------------

ESTIMATE_SUPPORT_CAP = 200
# what a row of the flat layout reads in cell k: +inf at k = 0, so Phi = 1
# there, which closes the row before it; -inf at k = 1, so Phi = 0; and
# log(k - 0.5), the log of the upper edge of grid cell k - 1, from k = 2 on
_EDGE_TABLE = np.array([INF, -INF] + [math.log(k + 0.5)
                                      for k in range(1, ESTIMATE_SUPPORT_CAP)])
_SQRT2 = math.sqrt(2.0)


def _profile_rows(rows):
    """(profile, mean, q tables) of the discretized lognormal of each
    (mean, cv) row, in one pass over all of them.

    Cell k (1 <= k < cap) of a row holds Phi(edge k) - Phi(edge k-1) of the
    lognormal, and the last cell takes the rest of the mass; a row with no
    spread is a point mass. The rows lie end to end in flat arrays: Phi, the
    cell masses, the clamp and the log-failure table are each one numpy
    operation over all of them, elementwise, so each cell rounds as it would
    alone. Sums, running sums, the dot product of the mean and running
    minima run on each row's own 1-D slice, as numpy rounds a row's own
    array. The masses are checked as DiscreteDistribution checks them, once
    for the batch.
    """
    spread = []
    points = []
    for i, (mean, cv) in enumerate(rows):
        if mean <= 0:
            points.append((i, 0))
            continue
        sigma2 = math.log(1.0 + cv * cv)
        # below about 1.05e-8, cv * cv vanishes next to 1 and sigma would be 0
        if cv < 1e-9 or sigma2 == 0.0:
            points.append((i, max(1, round(mean))))
            continue
        sigma = math.sqrt(sigma2)
        mu = math.log(mean) - sigma2 / 2.0
        cap = int(math.ceil(math.exp(mu + 3.29 * sigma)))
        spread.append((i, max(2, min(cap, ESTIMATE_SUPPORT_CAP)) + 1, mu, sigma))
    # the rows lie end to end, the spread ones first
    k = len(spread)
    order = [r[0] for r in spread] + [i for i, _ in points]
    lengths = [r[1] for r in spread] + [t + 1 for _, t in points]
    starts = [0]
    for length in lengths:
        starts.append(starts[-1] + length)
    n = starts.pop()
    masses = np.zeros(n)
    if spread:
        # each row reads [+inf, -inf, edges...]; one +inf closes the last
        counts = lengths[:k] + [1]
        edges = np.concatenate([_EDGE_TABLE[:length] for length in counts])
        mu = np.array([r[2] for r in spread] + [0.0]).repeat(counts)
        sigma = np.array([r[3] for r in spread] + [1.0]).repeat(counts)
        z = (edges - mu) / sigma / _SQRT2
        # phi[j] = Phi(z[j]) = 0.5 * (1 + erf(z[j])), so a row's masses are
        # the differences of its Phi from 0 up to 1, past a first cell that
        # reads the row before it
        phi = np.fromiter(map(math.erf, z.tolist()), float, len(z))
        phi += 1.0
        phi *= 0.5
        spread_masses = masses[:len(z) - 1]
        np.subtract(phi[1:], phi[:-1], out=spread_masses)
        masses[starts[:k]] = 0.0
        sums = [np.add.reduce(masses[a:a + length]) for a, length in zip(starts, lengths[:k])]
        spread_masses /= np.array(sums).repeat(lengths[:k])
    if points:
        masses[[starts[j] + t for j, (_, t) in enumerate(points, k)]] = 1.0
    low = np.minimum.reduce(masses)
    np.maximum(masses, 0.0, out=masses)
    cum = np.empty(n)
    ends = []
    for a, length in zip(starts, lengths):
        # add.accumulate is cumsum, without its wrapper
        np.add.accumulate(masses[a:a + length], out=cum[a:a + length])
        ends.append(a + length - 1)
    totals = cum[ends]
    check_mass(low, float(totals[np.abs(totals - 1.0).argmax()]))
    steps = np.arange(n, dtype=float) - np.array(starts, dtype=float).repeat(lengths)
    tables = _q_tables(cum, steps, starts, lengths)
    out = [None] * len(rows)
    for i, a, length, table in zip(order, starts, lengths, tables):
        probs = masses[a:a + length]
        out[i] = (DiscreteDistribution.wrap(probs, cum[a:a + length]),
                  float(probs.dot(steps[a:a + length])), table)
    return out


def _q_tables(cum, steps, starts, lengths):
    """q_known's tables for each row of the flat running sums `cum`, rows
    that start at `starts` and run `lengths` cells, each cell at index
    `steps` of its row: the log-failure of each running sum, and the running
    least rate log_fail[t] / t over t = 1..k at index k - 1."""
    log_fail = np.log(np.maximum(1.0 - cum, FAILURE_FLOOR))
    # a row's first cell has no rate; dividing it by 1 keeps it finite
    rate = log_fail / np.maximum(steps, 1.0)
    return [(log_fail[a:a + length], np.minimum.accumulate(rate[a + 1:a + length]))
            for a, length in zip(starts, lengths)]


def discretized_lognormal(mean: float, cv: float) -> DiscreteDistribution:
    """Integer-grid distribution with the given mean and relative spread:
    one row of _profile_rows."""
    return _profile_rows([(mean, cv)])[0][0]


def estimate_completion(hs, stats: SearchStats):
    """(profile, mean, q tables) for each h in `hs`: the distribution over
    expansions still needed beneath a node at h, its mean and q_known's
    tables, from one _profile_rows pass over all of them."""
    delay = stats.expansion_delay()
    std = stats.h_error_std()
    # per-step heuristic errors accumulate over h steps
    return _profile_rows([(h * delay, min(2.0, std / math.sqrt(h))) if h > 0 else (0.0, 0.0)
                          for h in hs])


def deadline_steps(latest: float, t_now: float, speed: float) -> int:
    """Expansion budget until `latest`, on the strict completes-before grid."""
    if latest is INF or latest == INF:
        return 10**9
    budget = (latest - t_now) * speed
    if budget < 0:
        return 0
    return int(math.floor(budget)) + 1


def q_tables(profile: DiscreteDistribution):
    """q_known's tables over the profile's whole support (see _q_tables)."""
    n = len(profile.cum)
    return _q_tables(profile.cum, np.arange(n, dtype=float), [0], [n])[0]


def q_known(profile: DiscreteDistribution, d: int, params: DdaParams,
            tables=None) -> float:
    """Urgency of a process against a fixed deadline d expansion-steps away.

    Replica of the reference scoring (same floats): success after t units
    starting at offset t_b is the profile's running sum at min(t, d-1-t_b).
    Each term is the least log-failure rate over t, read from q_tables (pass
    them as `tables` to reuse them across d). Every cell is elementwise or a
    prefix minimum, so a term reads the same floats from the whole-support
    tables as from tables cut at d.
    """
    log_fail, best_rate = q_tables(profile) if tables is None else tables
    support = len(log_fail) - 1

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
