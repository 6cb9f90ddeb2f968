"""Simple temporal networks with value semantics and incremental solving.

Events are named time points; a constraint (u, v, b) encodes t(v) - t(u) <= b.
Every event is implicitly at or after the origin. Networks are persistent:
extend returns a new network, so search nodes can share history safely. The
incremental all-pairs matrix is exact because a single new edge can only
improve a shortest path once when no negative cycle exists; recompute() is
the from-scratch oracle for that claim.

A network grows in one body: it copies the matrix into one scratch matrix of
the final size, gives each new event the origin row and relaxes the new
edges in place, each through the same formula. extend keeps the result as a
new network; add_event and add_constraint are extend with one event or one
edge. probe reads the origin row and the diagonal, so tentative events never
enter the network, and it stops after the last edge that relaxes the whole
matrix: every edge past it writes only the row of a new event, which nothing
reads. probe also keeps the matrix of a leading part of its events and
edges, which is what extend would build from that part; wrap turns it into
a network without relaxing anything again.
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
        dist = self._grow(len(names))
        consistent = self.consistent
        if consistent:
            _relax(dist, edges, _row_only(len(self.events), edges))
            consistent = _consistent(dist)
        return self.wrap(names, edges, dist, consistent)

    def wrap(self, names, edges, dist, consistent=True) -> "Stn":
        """The network extend(names, edges) builds, around a matrix already
        computed for it (probe's kept block); no edge is relaxed again."""
        index = dict(self.index)
        for name in names:
            if name in index:
                raise ValueError(f"event {name!r} already present")
            index[name] = len(index)
        s = Stn.__new__(Stn)
        s.events = self.events + tuple(names)
        s.index = index
        s.dist = dist
        s.consistent = consistent
        s.constraints = (
            self.constraints
            + tuple((name, ORIGIN, 0.0) for name in names)
            + tuple((s.events[u], s.events[v], float(b)) for u, v, b in edges)
        )
        return s

    def probe(self, n_new, edges, kept_new=0, kept_edges=0):
        """(origin row, kept block) after adding n_new events and then the
        edges, or None when the result is inconsistent. Nothing is added to
        this network.

        The kept block is the matrix of extend(the first kept_new new
        events, edges[:kept_edges]), bit for bit. Those edges may name only
        this network's events and the kept ones, the first k events of the
        matrix; an edge among the first k events reads and writes only the
        top-left k x k block, and every later event keeps the origin row and
        an empty column until an edge enters it. So the block is copied out
        of the one matrix once the kept edges are relaxed. It is consistent
        whenever the whole is, since relaxation never raises a diagonal
        entry.

        Past the kept edges, only the edges up to the last one that relaxes
        the whole matrix are relaxed. Each edge after it is row-only (see
        _row_only): it writes the row of a new event, never the origin row,
        and leaves that row's diagonal at 0, since its column holds nothing
        else. So neither the origin row nor the consistency check can see
        it. Kept edges are relaxed all the same, as the block needs them.
        With no edge to relax and nothing kept, the answer is the origin row
        with an unbounded entry for each new event, and no matrix is built;
        a kept edge without a kept event names only this network's events,
        so it is never row-only.
        """
        if not self.consistent:
            return None
        m = len(self.events)
        row_only = _row_only(m, edges)
        cut = len(edges)
        while cut and row_only[cut - 1]:
            cut -= 1
        if cut == 0 and kept_new == 0:
            return np.concatenate((self.dist[0], np.full(n_new, INF))), self.dist
        dist = self._grow(n_new)
        _relax(dist, edges[:kept_edges], row_only)
        size = m + kept_new
        kept = dist[:size, :size].copy()
        _relax(dist, edges[kept_edges:cut], row_only[kept_edges:])
        if not _consistent(dist):
            return None
        return dist[0], kept

    def _grow(self, n_new):
        """A fresh matrix: this network's, grown by n_new events before any
        new edge, as adding each event one at a time would leave it.
        A new event sits at or after the origin, so its only outgoing edge
        runs to the origin and onward from there; it gets the origin row and
        an empty column."""
        m = len(self.events)
        n = m + n_new
        dist = np.empty((n, n))
        dist[:m, :m] = self.dist
        dist[:, m:] = INF
        dist[m:, :m] = self.dist[0]
        dist.reshape(-1)[m * (n + 1)::n + 1] = 0.0
        return dist

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


def _row_only(m, edges):
    """For each (u, v, b) edge in order, whether relaxing it can change only
    row u, in a network whose new events are numbered from m: u is a new
    event that no earlier edge enters, and v is not u. Then column u holds
    nothing but the diagonal 0, so only row u can gain a path, and its
    diagonal stays 0."""
    entered = set()
    flags = []
    for u, v, _ in edges:
        flags.append(u >= m and u != v and u not in entered)
        entered.add(v)
    return flags


def _relax(dist, edges, row_only):
    """Relax the (u, v, b) edges into dist in order, in place: the network's
    one relaxation loop. row_only[k] says whether edges[k] relaxes only its
    source row.

    The matrix ends as adding each edge in order, one at a time with a full
    relaxation each, would leave it:
    - an event no edge has touched keeps the origin row and an empty column
      (see Stn._grow), so laying out every new event up front changes
      nothing;
    - a row-only edge can shorten only its source's row, since every other
      row reaches the source through its empty column;
    - relaxation never raises an entry, so one consistency check at the end
      (_consistent) sees any negative diagonal an earlier step would have
      seen.
    Every entry a relaxation offers is dist[i, u] + (b + dist[v, j]), in that
    association.
    """
    n = len(dist)
    via = np.empty(n)
    through = None
    for (u, v, b), row in zip(edges, row_only):
        np.add(b, dist[v], out=via)
        if row:
            source = dist[u]
            np.add(source[u], via, out=via)
            np.minimum(source, via, out=source)
        else:
            if through is None:
                through = np.empty((n, n))
            np.add(dist[:, u, None], via, out=through)
            np.minimum(dist, through, out=dist)


def _consistent(dist):
    """No negative cycle: no diagonal entry below 0. Once a network is
    inconsistent its matrix means nothing; only the flag is kept exact."""
    return not dist.diagonal().min() < 0


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
