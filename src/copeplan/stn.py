"""Simple temporal networks with value semantics and incremental solving.

Events are named time points; a constraint (u, v, b) encodes t(v) - t(u) <= b.
Every event is implicitly at or after the origin. Networks are persistent:
extend returns a new network, so search nodes can share history safely. The
incremental all-pairs matrix is exact because a single new edge can only
improve a shortest path once when no negative cycle exists; recompute() is
the from-scratch oracle for that claim.

A network grows in one body: it copies the matrix into one scratch matrix of
the final size, gives each new event the origin row and relaxes every new
edge in place. extend keeps the result as a new network; probe only reads its
origin row, so tentative events never enter the network. add_event and
add_constraint are extend with one event or one edge.
"""

import math

import numpy as np

ORIGIN = "origin"
INF = math.inf
# separation between a condition's time and the effect that achieves it
EPSILON_SEPARATION = 0.001


class Stn:
    __slots__ = ("events", "index", "dist", "constraints", "consistent")

    def __init__(self):
        self.events = (ORIGIN,)
        self.index = {ORIGIN: 0}
        self.dist = np.zeros((1, 1))
        self.constraints = ()
        self.consistent = True

    def add_event(self, name: str) -> "Stn":
        return self.extend((name,), ())

    def add_constraint(self, from_event: str, to_event: str, bound: float) -> "Stn":
        try:
            edge = (self.index[from_event], self.index[to_event], bound)
        except KeyError as exc:
            raise KeyError(f"unknown event {exc.args[0]!r}") from None
        return self.extend((), (edge,))

    def extend(self, names, edges) -> "Stn":
        """A new network with the events `names` appended, then the sequence
        of (u, v, b) index edges added in order; new events are numbered from
        len(self.events). Nothing changes in this network."""
        index = dict(self.index)
        for name in names:
            if name in index:
                raise ValueError(f"event {name!r} already present")
            index[name] = len(index)
        s = Stn.__new__(Stn)
        s.events = self.events + tuple(names)
        s.index = index
        s.dist, s.consistent = self._grow(len(names), edges)
        s.constraints = (
            self.constraints
            + tuple((name, ORIGIN, 0.0) for name in names)
            + tuple((s.events[u], s.events[v], float(b)) for u, v, b in edges)
        )
        return s

    def probe(self, n_new: int, edges):
        """Origin row after adding n_new events and then the edges, or None
        when the result is inconsistent. Nothing is added to this network."""
        dist, consistent = self._grow(n_new, edges)
        return dist[0] if consistent else None

    def _grow(self, n_new, edges):
        """(dist, consistent) after adding n_new events and then the edges,
        in a fresh matrix: the network's one relaxation loop.

        The matrix equals what adding each new event, then each edge in order,
        one at a time with a full relaxation each, would leave:
        - an event no edge has touched keeps the origin row and an empty
          column, so creating every new event up front changes nothing;
        - an edge leaving a new event that no edge enters yet can shorten
          only that event's row, since its column holds just the diagonal 0;
        - relaxation never raises an entry, so one consistency check at the
          end sees any negative diagonal an earlier step would have seen.
        Once the network is inconsistent its matrix means nothing; only the
        flag is kept exact.
        """
        m = len(self.events)
        n = m + n_new
        dist = np.full((n, n), INF)
        dist[:m, :m] = self.dist
        # nonnegativity: a new event sits at or after the origin, so its only
        # outgoing edge runs to the origin and onward from there
        dist[m:, :m] = self.dist[0]
        np.fill_diagonal(dist[m:, m:], 0.0)
        if not self.consistent:
            return dist, False
        entered = set()
        for u, v, b in edges:
            rows = dist[u:u + 1] if u >= m and u not in entered else dist
            np.minimum(rows, _through(rows, dist, u, v, b), out=rows)
            entered.add(v)
        return dist, not np.diagonal(dist).min() < 0

    def solve(self):
        """(consistent, tmin, tmax); the maps are empty when inconsistent."""
        if not self.consistent:
            return False, {}, {}
        tmin = {e: -self.dist[i, 0] for e, i in self.index.items()}
        tmax = {e: self.dist[0, i] for e, i in self.index.items()}
        return True, tmin, tmax

    def tmin(self, event: str) -> float:
        return -self.dist[self.index[event], 0]

    def tmax(self, event: str) -> float:
        return self.dist[0, self.index[event]]


def _through(rows, dist, u, v, b):
    """Length of each path i -> u -> v -> j over the new edge (u, v, b), for
    the rows i of `rows`: the network's one relaxation formula."""
    return rows[:, u, None] + (b + dist[None, v, :])


def _edge_matrix(events, constraints):
    index = {e: i for i, e in enumerate(events)}
    n = len(events)
    adj = np.full((n, n), INF)
    np.fill_diagonal(adj, 0.0)
    for u, v, b in constraints:
        if b < adj[index[u], index[v]]:
            adj[index[u], index[v]] = b
    return adj


def recompute(stn: Stn):
    """From-scratch (consistent, tmin, tmax) for oracle comparisons: a full
    Floyd-Warshall closure of the constraint log."""
    dist = _edge_matrix(stn.events, stn.constraints)
    for k in range(len(stn.events)):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    if np.diagonal(dist).min() < 0:
        return False, {}, {}
    tmin = {e: -dist[stn.index[e], 0] for e in stn.events}
    tmax = {e: dist[0, stn.index[e]] for e in stn.events}
    return True, tmin, tmax
