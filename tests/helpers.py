"""Shared random-instance builders for the test suite.

Every builder takes an explicit numpy Generator so suites stay reproducible
from a single seed.
"""

from __future__ import annotations

import contextlib
import importlib.util
from pathlib import Path

import numpy as np

from copeplan.cope import CopeInstance, CopeProcess, PrefixAction
from copeplan.copem import CopemInstance
from copeplan.dist import DiscreteDistribution
from copeplan.kds import KdsInstance, KdsProcess
from copeplan.stn import INF, Stn, probe_edges


def random_pmf(
    rng: np.random.Generator,
    tmax: int,
    max_atoms: int = 4,
    min_time: int = 0,
) -> DiscreteDistribution:
    """Random sparse pmf with support inside [min_time, tmax]."""
    hi = max(tmax, min_time)
    k = int(rng.integers(1, max_atoms + 1))
    times = rng.choice(np.arange(min_time, hi + 1), size=min(k, hi - min_time + 1), replace=False)
    weights = rng.random(len(times)) + 0.05
    weights /= weights.sum()
    return DiscreteDistribution.from_pairs(zip(times.tolist(), weights.tolist()))


def random_kds_instance(
    rng: np.random.Generator,
    max_n: int = 3,
    max_t: int = 10,
    min_time: int = 0,
) -> KdsInstance:
    n = int(rng.integers(1, max_n + 1))
    horizon = int(rng.integers(1, max_t + 1))
    procs = []
    for _ in range(n):
        profile = random_pmf(rng, horizon, min_time=min(min_time, horizon))
        deadline = int(rng.integers(0, horizon + 1))
        procs.append(KdsProcess(profile, deadline))
    return KdsInstance(procs, horizon)


ACTION_POOL = ["a", "b", "c", "d"]


def random_cope_instance(
    rng: np.random.Generator,
    max_n: int = 3,
    max_t: int = 8,
    max_prefix: int = 2,
    min_time: int = 0,
) -> CopeInstance:
    """Random prefixed-process instance; action ids overlap across processes."""
    n = int(rng.integers(1, max_n + 1))
    horizon = int(rng.integers(2, max_t + 1))
    procs = []
    for _ in range(n):
        plen = int(rng.integers(0, max_prefix + 1))
        ids = rng.choice(ACTION_POOL, size=plen, replace=False)
        prefix = tuple(
            PrefixAction(str(aid), int(rng.integers(0, 4))) for aid in ids
        )
        induced = int(rng.integers(0, horizon + 1))
        profile = random_pmf(rng, horizon, min_time=min(min_time, horizon))
        procs.append(CopeProcess(profile, prefix, induced))
    return CopeInstance(procs, horizon)


def random_network(rng: np.random.Generator, max_events: int = 30,
                   min_events: int = 2) -> Stn:
    """Events 1..n after the origin, then constraints between any two of
    the n + 1 events, each its own add_constraint."""
    n = int(rng.integers(min_events, max_events))
    s = Stn().extend(n, ())
    for _ in range(int(rng.integers(1, 4 * n))):
        u, v = rng.choice(n + 1, size=2, replace=False)
        # dyadic bounds keep every path sum exact in float64
        bound = int(rng.integers(-8, 33)) / 8.0
        s = s.add_constraint(int(u), int(v), bound)
    return s


def probe(stn: Stn, n_new, edges):
    """stn.probe of any edge list, cut and flagged by stn.probe_edges as the
    planner's tighten cuts and flags its chain."""
    return stn.probe(n_new, *probe_edges(len(stn.dist), edges))


def solve(stn: Stn):
    """The incremental network's (consistent, tmin, tmax) in recompute's
    form: bounds as lists by position, empty when inconsistent."""
    if not stn.consistent:
        return False, [], []
    return True, (-stn.dist[:, 0]).tolist(), stn.dist[0].tolist()


class LoggedStn(Stn):
    """A network with the edge log the tests recorded for it: its parent's
    log, an (e, 0, 0.0) entry for each new event e (every event is at or
    after the origin), then its own (u, v, b) edges in order. Stn itself
    keeps no log."""

    __slots__ = ("edges",)


def edges_of(stn: Stn) -> tuple:
    """The recorded edge log of `stn`: () for a fresh Stn(), which has only
    the origin. A network grown while no recorder was installed has none,
    and asking for it is an error."""
    if isinstance(stn, LoggedStn):
        return stn.edges
    if len(stn.dist) == 1 and stn.consistent:
        return ()
    raise LookupError("network grown while no edge recorder was installed")


def logged(parent: Stn, n_new, edges, dist, consistent) -> Stn:
    """The network (dist, consistent) that `parent` grew into by n_new
    events and then `edges`, with parent's log and its own entries; a growth
    of a network that has no log has none either."""
    try:
        log = edges_of(parent)
    except LookupError:
        s = Stn.__new__(Stn)
    else:
        m = len(parent.dist)
        s = LoggedStn.__new__(LoggedStn)
        s.edges = (log + tuple((e, 0, 0.0) for e in range(m, m + n_new))
                   + tuple(edges))
    s.dist, s.consistent = dist, consistent
    return s


@contextlib.contextmanager
def recording():
    """Record edge logs inside the block: every network Stn.extend returns
    (add_event and add_constraint included) is logged, from the network it
    grew."""
    real = Stn.extend

    def extend(self, n_new, edges):
        got = real(self, n_new, edges)
        return logged(self, n_new, edges, got.dist, got.consistent)

    Stn.extend = extend
    try:
        yield
    finally:
        Stn.extend = real


def recompute(stn: Stn):
    """From-scratch (consistent, tmin, tmax) of the recorded edge log of
    `stn`, in solve's form: a full Floyd-Warshall closure, independent of
    the network's incremental matrix, the oracle for the claim that the
    matrix is exact."""
    n = len(stn.dist)
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for u, v, b in edges_of(stn):
        if b < dist[u, v]:
            dist[u, v] = b
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    if np.diagonal(dist).min() < 0:
        return False, [], []
    return True, (-dist[:, 0]).tolist(), dist[0].tolist()


ORIGIN = "origin"


class NamedStn:
    """A positional network built and read by event name, for tests that
    write networks by hand and for the references that look events up by
    name: `index` maps each name to its position, ORIGIN to 0 and every
    later name to the next position in the order it was given."""

    __slots__ = ("stn", "index")

    def __init__(self, stn=None, names=()):
        self.stn = Stn() if stn is None else stn
        self.index = {ORIGIN: 0}
        for name in names:
            if name in self.index:
                raise ValueError(f"event {name!r} already present")
            self.index[name] = len(self.index)

    def named(self, stn, *names) -> "NamedStn":
        """`stn`, a growth of this network by the events `names` (or by
        edges alone), under this network's names and those."""
        return NamedStn(stn, [*list(self.index)[1:], *names])

    def add_event(self, name) -> "NamedStn":
        return self.named(self.stn.add_event(), name)

    def add_constraint(self, u, v, b) -> "NamedStn":
        return self.named(self.stn.add_constraint(self.index[u], self.index[v], b))

    def tmin(self, name) -> float:
        return -self.stn.dist[self.index[name], 0]

    def tmax(self, name) -> float:
        return self.stn.dist[0, self.index[name]]


def random_copem_instance(
    rng: np.random.Generator,
    dispatch_budget: int,
    observation_budget: int,
    max_n: int = 3,
    max_t: int = 8,
) -> CopemInstance:
    """Random measured instance: one-action prefixes, no mass at time 0.

    Mass at 0 is excluded because measuring a process charges one unit
    against it; free time-0 completions would make extra budget look harmful.
    """
    base = random_cope_instance(rng, max_n=max_n, max_t=max_t, max_prefix=1, min_time=1)
    return CopemInstance(
        base.processes,
        dispatch_budget=dispatch_budget,
        observation_budget=observation_budget,
        horizon=base.horizon,
    )


def abstract_instances(seed: int) -> list:
    """The benchmark's seeded solve_abstract instances, [(kind, index, instance)]."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "abstract.py"
    spec = importlib.util.spec_from_file_location("perfbench_abstract", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_instances(seed)


def props_of(task, mask: int) -> frozenset:
    """The propositions a planner bitmask holds: bit i is the i-th name in
    sorted order."""
    return frozenset(p for i, p in enumerate(sorted(task.propositions)) if mask >> i & 1)
