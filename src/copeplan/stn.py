"""Simple temporal networks with value semantics and incremental solving.

Events are positions: the origin is event 0 and each new event takes the
next position. A constraint (u, v, b) encodes t(v) - t(u) <= b. Every event
is implicitly at or after the origin. Networks are persistent: extend
returns a new network, so search nodes can share history safely. Each
network logs its (u, v, b) edges, an (e, 0, 0.0) entry per event included;
recompute() closes that log from scratch, the oracle for the claim that the
incremental all-pairs matrix is exact (a single new edge can only improve a
shortest path once when no negative cycle exists).

A network grows in one body: it copies the matrix into one scratch matrix of
the final size, gives each new event the origin row and relaxes the new
edges in place, each through the same formula. extend keeps the result as a
new network; add_event and add_constraint are extend with one event or one
edge. probe reads the origin row and the diagonal, so tentative events never
enter the network, and it stops after the last edge that relaxes the whole
matrix: every edge past it writes only the row of a new event, which nothing
reads. probe also keeps a leading part of its events and edges as a new
network, the one extend would build from that part, without relaxing
anything again.
"""

import math

import numpy as np

INF = math.inf
# separation between a condition's time and the effect that achieves it
EPSILON_SEPARATION = 0.001


class Stn:
    __slots__ = ("dist", "edges", "consistent")

    def __init__(self):
        self.dist = np.zeros((1, 1))
        self.edges = ()
        self.consistent = True

    def add_event(self) -> "Stn":
        return self.extend(1, ())

    def add_constraint(self, u: int, v: int, b: float) -> "Stn":
        return self.extend(0, ((u, v, b),))

    def extend(self, n_new, edges) -> "Stn":
        """A new network with n_new events appended, numbered from
        len(self.dist), then the sequence of (u, v, b) edges added in order.
        Nothing changes in this network. IndexError if an edge names an
        event outside the new network, consistent or not."""
        n = len(self.dist) + n_new
        for u, v, _ in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) outside events 0..{n - 1}")
        dist = self._grow(n_new)
        consistent = self.consistent
        if consistent:
            _relax(dist, edges, _row_only(len(self.dist), edges))
            consistent = _consistent(dist)
        return self._wrap(n_new, edges, dist, consistent)

    def _wrap(self, n_new, edges, dist, consistent=True) -> "Stn":
        """The network extend(n_new, edges) builds, around a matrix already
        computed for it; no edge is relaxed again."""
        m = len(self.dist)
        s = Stn.__new__(Stn)
        s.dist = dist
        s.consistent = consistent
        s.edges = (
            self.edges
            + tuple((e, 0, 0.0) for e in range(m, m + n_new))
            + tuple((u, v, float(b)) for u, v, b in edges)
        )
        return s

    def probe(self, n_new, edges, kept_new=0, kept_edges=0):
        """(origin row, kept network) after adding n_new events and then
        the edges, or None when the result is inconsistent. Nothing is added
        to this network, and its matrix is never written.

        The planner probes an end or timed-literal child's parent network
        with the child's event and edges kept and its chain after them, and
        a pinned node's network with the pin's edges kept. A start child's
        network is already its own (the one its siblings share), so its
        probe keeps nothing and relaxes only the chain. With nothing kept,
        the kept network is this one itself. Unlike extend, probe checks no
        event index.

        The kept network is extend(the first kept_new new events,
        edges[:kept_edges]), bit for bit. Those edges may name only this
        network's events and the kept ones, the first k events of the
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
        m = len(self.dist)
        row_only = _row_only(m, edges)
        cut = len(edges)
        while cut and row_only[cut - 1]:
            cut -= 1
        if cut == 0 and kept_new == 0:
            return np.concatenate((self.dist[0], np.full(n_new, INF))), self
        dist = self._grow(n_new)
        _relax(dist, edges[:kept_edges], row_only)
        size = m + kept_new
        block = dist[:size, :size].copy() if kept_new or kept_edges else None
        _relax(dist, edges[kept_edges:cut], row_only[kept_edges:])
        if not _consistent(dist):
            return None
        kept = self if block is None else self._wrap(kept_new, edges[:kept_edges], block)
        return dist[0], kept

    def _grow(self, n_new):
        """A fresh matrix: this network's, grown by n_new events before any
        new edge, as adding each event one at a time would leave it.
        A new event sits at or after the origin, so its only outgoing edge
        runs to the origin and onward from there; it gets the origin row and
        an empty column."""
        m = len(self.dist)
        n = m + n_new
        dist = np.empty((n, n))
        dist[:m, :m] = self.dist
        dist[:, m:] = INF
        dist[m:, :m] = self.dist[0]
        dist.reshape(-1)[m * (n + 1)::n + 1] = 0.0
        return dist


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


def recompute(stn: Stn):
    """From-scratch (consistent, tmin, tmax) for oracle comparisons: a full
    Floyd-Warshall closure of the edge log, the bounds as lists by
    position; they are empty when inconsistent."""
    n = len(stn.dist)
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for u, v, b in stn.edges:
        if b < dist[u, v]:
            dist[u, v] = b
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    if np.diagonal(dist).min() < 0:
        return False, [], []
    return True, (-dist[:, 0]).tolist(), dist[0].tolist()
