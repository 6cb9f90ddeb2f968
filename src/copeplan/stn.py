"""Simple temporal networks with value semantics and incremental solving.

Events are named time points; a constraint (u, v, b) encodes t(v) - t(u) <= b.
Every event is implicitly at or after the origin. Networks are persistent:
add_event and add_constraint return new networks, so search nodes can share
history safely. The incremental all-pairs matrix is exact because a single
new edge can only improve a shortest path once when no negative cycle exists;
recompute() is the from-scratch oracle for that claim.

probe() answers "what would the origin row be after these additions?" without
building the intermediate networks: it grows one scratch matrix to its final
size and relaxes every edge in place, with the same float operations as the
equivalent add_event/add_constraint sequence.
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

    def _clone(self) -> "Stn":
        s = Stn.__new__(Stn)
        s.events = self.events
        s.index = self.index
        s.dist = self.dist
        s.constraints = self.constraints
        s.consistent = self.consistent
        return s

    def add_event(self, name: str) -> "Stn":
        if name in self.index:
            raise ValueError(f"event {name!r} already present")
        s = self._clone()
        s.events = self.events + (name,)
        s.index = {**self.index, name: len(self.events)}
        n = len(s.events)
        dist = np.full((n, n), INF)
        dist[: n - 1, : n - 1] = self.dist
        dist[n - 1, n - 1] = 0.0
        # nonnegativity: the new event sits at or after the origin, so its
        # only outgoing edge runs to the origin and onward from there
        dist[n - 1, : n - 1] = self.dist[0, :]
        s.dist = dist
        s.constraints = self.constraints + ((name, ORIGIN, 0.0),)
        return s

    def add_constraint(self, from_event: str, to_event: str, bound: float) -> "Stn":
        try:
            u = self.index[from_event]
            v = self.index[to_event]
        except KeyError as exc:
            raise KeyError(f"unknown event {exc.args[0]!r}") from None
        s = self._clone()
        s.constraints = self.constraints + ((from_event, to_event, float(bound)),)
        if not self.consistent:
            return s
        s.dist = np.minimum(self.dist, _through(self.dist, self.dist, u, v, bound))
        if np.diagonal(s.dist).min() < 0:
            s.consistent = False
        return s

    def probe(self, n_new: int, edges):
        """Origin row after adding n_new events and then the edges, or None
        when the result is inconsistent. Nothing is added to this network.

        edges holds (u, v, b) index triples; new events are numbered from
        len(self.events). The row equals what add_event for each new event,
        followed by add_constraint for each edge in order, would leave:
        - an event no edge has touched keeps the origin row and an empty
          column, so creating every new event up front changes nothing;
        - an edge leaving a new event that no edge enters yet can shorten
          only that event's row, since its column holds just the diagonal 0;
        - relaxation never raises an entry, so one consistency check at the
          end sees any negative diagonal an earlier step would have seen.
        """
        if not self.consistent:
            return None
        m = len(self.events)
        n = m + n_new
        dist = np.full((n, n), INF)
        dist[:m, :m] = self.dist
        dist[m:, :m] = self.dist[0]
        np.fill_diagonal(dist[m:, m:], 0.0)
        entered = set()
        for u, v, b in edges:
            rows = dist[u:u + 1] if u >= m and u not in entered else dist
            np.minimum(rows, _through(rows, dist, u, v, b), out=rows)
            entered.add(v)
        if np.diagonal(dist).min() < 0:
            return None
        return dist[0]

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
