"""Simple temporal networks with value semantics and incremental solving.

Events are positions: the origin is event 0 and each new event takes the
next position. A constraint (u, v, b) encodes t(v) - t(u) <= b. Every event
is implicitly at or after the origin. Networks are persistent: extend is the
one way a network grows, and it returns a new network, so search nodes can
share history safely. A network holds only its all-pairs matrix and its
consistency flag, no edge log: the matrix is exact, since a single new edge
can only improve a shortest path once when no negative cycle exists, and the
tests check it against a from-scratch Floyd-Warshall closure of the edges
they record.

A network grows in one body: extend copies the matrix into one scratch
matrix of the final size (a plain copy when no event is added), gives each
new event the origin row and relaxes the new edges in place, each through
the same formula; add_event and add_constraint are extend with one event or
one edge. An edge that can change only its source's row costs two numpy
calls, one that relaxes the whole matrix three, and the consistency check
one reduction of the diagonal. probe does the same
for tentative events and edges that never enter the network: it returns
only the origin row. probe_edges cuts a probe's edges after the last one
that relaxes the whole matrix, since every edge past it writes only the row
of a new event, which nothing reads; the cut edges and their flags are what
probe takes, and with the count of new events they determine its answer.
"""

import math

import numpy as np

INF = math.inf
# separation between a condition's time and the effect that achieves it
EPSILON_SEPARATION = 0.001


class Stn:
    __slots__ = ("dist", "consistent")

    def __init__(self):
        self.dist = np.zeros((1, 1))
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
        m = len(self.dist)
        n = m + n_new
        for u, v, _ in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) outside events 0..{n - 1}")
        s = Stn.__new__(Stn)
        s.dist = self._grow(n_new)
        s.consistent = self.consistent
        if s.consistent:
            _relax(s.dist, edges, _row_only(m, edges))
            s.consistent = _consistent(s.dist)
        return s

    def probe(self, n_new, edges, row_only):
        """The origin row after adding n_new events and then the edges, or
        None when the result is inconsistent. row_only[k] is edges[k]'s
        flag from _row_only; probe_edges gives both. Nothing is added to
        this network, and its matrix is never written; unlike extend, probe
        checks no event index. The planner probes a node's network with the
        node's relaxed chain, whose events never enter any network. With no
        edge to relax, the answer is the origin row with an unbounded entry
        for each new event, and no matrix is built.
        """
        if not self.consistent:
            return None
        if not edges:
            return np.concatenate((self.dist[0], np.full(n_new, INF)))
        dist = self._grow(n_new)
        _relax(dist, edges, row_only)
        if not _consistent(dist):
            return None
        return dist[0]

    def _grow(self, n_new):
        """A fresh matrix: this network's, grown by n_new events before any
        new edge, as adding each event one at a time would leave it.
        A new event sits at or after the origin, so its only outgoing edge
        runs to the origin and onward from there; it gets the origin row and
        an empty column. With no new event it is a copy."""
        if not n_new:
            return self.dist.copy()
        m = len(self.dist)
        n = m + n_new
        dist = np.empty((n, n))
        dist[:m, :m] = self.dist
        dist[:, m:] = INF
        dist[m:, :m] = self.dist[0]
        dist.reshape(-1)[m * (n + 1)::n + 1] = 0.0
        return dist


def probe_edges(m, edges):
    """(edges, row_only) cut after the last edge that relaxes the whole
    matrix, for a probe of a network of m events: the edges Stn.probe must
    relax and their _row_only flags.

    Each edge past the cut is row-only: it writes the row of a new event,
    never the origin row, and leaves that row's diagonal at 0, since its
    column holds nothing else. So neither the origin row nor the consistency
    check can see it, and a probe's answer is a function of n_new and the
    cut edges alone. The flags are worked out once, here."""
    row_only = _row_only(m, edges)
    cut = len(edges)
    while cut and row_only[cut - 1]:
        cut -= 1
    return edges[:cut], row_only[:cut]


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
    association, except that a row-only edge offers (b + 0.0) + dist[v, j],
    one numpy call fewer and bit for bit the same, sign of zero included.
    Its dist[u, u] is the +0.0 that _grow wrote, since no earlier edge
    enters u, and a sum is -0.0 only when both of its terms are. So neither 0.0 + (b + x) nor (b + 0.0) + x is ever -0.0, and both
    equal b + x when b is not -0.0, and 0.0 + x when it is.
    """
    n = len(dist)
    via = np.empty(n)
    through = None
    for (u, v, b), row in zip(edges, row_only):
        if row:
            source = dist[u]
            np.add(b + 0.0, dist[v], out=via)
            np.minimum(source, via, out=source)
        else:
            np.add(b, dist[v], out=via)
            if through is None:
                through = np.empty((n, n))
            np.add(dist[:, u, None], via, out=through)
            np.minimum(dist, through, out=dist)


def _consistent(dist):
    """No negative cycle: no diagonal entry below 0. Once a network is
    inconsistent its matrix means nothing; only the flag is kept exact."""
    return not np.minimum.reduce(dist.diagonal()) < 0

