"""Temporal network behavior and incremental-vs-recompute agreement.

Every test here runs under helpers.recording(), so each network it grows
carries the edge log that recompute closes."""

import math

import numpy as np
import pytest

from copeplan.stn import EPSILON_SEPARATION, Stn, probe_edges

import reference_kernels
from helpers import (ORIGIN, NamedStn, edges_of, probe, random_network, recompute,
                     recording, solve)

# Stn.extend with no recorder installed, as this module found it
UNRECORDED_EXTEND = Stn.extend


@pytest.fixture(autouse=True)
def _recorded():
    with recording():
        yield


def test_empty_network_everything_unbounded_above():
    s = Stn().add_event().add_event()
    assert solve(s) == (True, [0.0, 0.0, 0.0], [0.0, math.inf, math.inf])


def test_single_upper_bound():
    s = NamedStn().add_event("a").add_constraint(ORIGIN, "a", 5)
    assert s.tmax("a") == 5.0
    assert s.tmin("a") == 0.0


def test_chain_bounds_accumulate():
    s = (
        NamedStn()
        .add_event("a")
        .add_event("b")
        .add_constraint(ORIGIN, "a", 3)
        .add_constraint("a", "b", 2)
    )
    assert s.tmax("b") == 5.0
    assert s.tmax("a") == 3.0


def test_tighter_duplicate_wins_and_looser_is_ignored():
    s = NamedStn().add_event("a").add_constraint(ORIGIN, "a", 5)
    s = s.add_constraint(ORIGIN, "a", 3)
    assert s.tmax("a") == 3.0
    s = s.add_constraint(ORIGIN, "a", 7)
    assert s.tmax("a") == 3.0


def test_contradiction_is_a_solve_result_not_an_error():
    s = NamedStn().add_event("a")
    s = s.add_constraint(ORIGIN, "a", 1)   # t(a) <= 1
    s = s.add_constraint("a", ORIGIN, -2)  # t(a) >= 2
    assert edges_of(s.stn) == ((1, 0, 0.0), (0, 1, 1.0), (1, 0, -2.0))
    assert solve(s.stn) == recompute(s.stn) == (False, [], [])


def test_negative_cycle_between_events():
    s = NamedStn().add_event("a").add_event("b")
    s = s.add_constraint("a", "b", 2).add_constraint("b", "a", -3)
    assert s.stn.consistent is False


def test_unknown_event_raises():
    # an edge into an event the network does not have
    with pytest.raises(IndexError):
        Stn().add_constraint(0, 1, 1.0)
    # numpy would read -1 as the last event, here the one after the origin
    one = Stn().add_event()
    with pytest.raises(IndexError):
        one.add_constraint(-1, 0, -1.0)
    with pytest.raises(IndexError):
        one.extend(1, [(2, -3, 0.0)])
    assert edges_of(one) == ((1, 0, 0.0),)
    # t(1) <= t(0) - 1 contradicts every event being at or after the origin;
    # an inconsistent network relaxes no further edge, but still refuses one
    # into a position it lacks, as a consistent one does
    broken = one.add_constraint(0, 1, -1.0)
    assert not broken.consistent
    with pytest.raises(IndexError):
        broken.add_constraint(0, 7, 1.0)
    assert edges_of(broken.extend(1, [(0, 2, 1.0)]))[-1] == (0, 2, 1.0)
    assert recompute(broken) == (False, [], [])
    s = NamedStn()
    with pytest.raises(KeyError):
        s.add_constraint(ORIGIN, "ghost", 1)
    with pytest.raises(ValueError):
        s.add_event(ORIGIN)


def test_value_semantics():
    base = NamedStn().add_event("a")
    tight = base.add_constraint(ORIGIN, "a", 2)
    assert base.tmax("a") == math.inf
    assert tight.tmax("a") == 2.0
    other = base.stn.add_event()
    assert len(base.stn.dist) == 2 and len(other.dist) == 3
    assert edges_of(base.stn) == ((1, 0, 0.0),)


def test_incremental_matches_recompute_on_random_networks():
    rng = np.random.default_rng(2024)
    inconsistent = 0
    for _ in range(120):
        s = random_network(rng)
        got = solve(s)
        want = recompute(s)
        assert got[0] == want[0]
        if not got[0]:
            inconsistent += 1
            continue
        assert got[1] == want[1]
        assert got[2] == want[2]
    assert 0 < inconsistent < 120


def test_recompute_matches_incremental_on_large_networks():
    # 65 to 89 events, well past the sizes the other tests draw
    rng = np.random.default_rng(65)
    inconsistent = 0
    for _ in range(20):
        s = random_network(rng, max_events=90, min_events=65)
        got = solve(s)
        assert got == recompute(s)
        inconsistent += not got[0]
    assert 0 < inconsistent < 20


def test_tmin_never_exceeds_tmax():
    rng = np.random.default_rng(11)
    for _ in range(60):
        s = random_network(rng, max_events=12)
        consistent, tmin, tmax = solve(s)
        if consistent:
            for lo, hi in zip(tmin, tmax):
                assert lo <= hi


def test_tightening_never_increases_tmax():
    rng = np.random.default_rng(12)
    for _ in range(40):
        s = random_network(rng, max_events=10)
        if not s.consistent:
            continue
        before = solve(s)[2]
        u, v = rng.choice(len(s.dist), size=2, replace=False)
        s2 = s.add_constraint(int(u), int(v), int(rng.integers(-8, 33)) / 8.0)
        if not s2.consistent:
            continue
        after = solve(s2)[2]
        for a, b in zip(after, before):
            assert a <= b


def _random_growths(seed, trials=300):
    """(base, n_new, edges) draws: every tenth base has 65 to 89 events, and
    half the edges leave a new event, as tighten's chain edges do."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        if trial % 10 == 0:
            base = random_network(rng, max_events=90, min_events=65)
        else:
            base = random_network(rng, max_events=14)
        m = len(base.dist)
        n_new = int(rng.integers(0, 7))
        edges = []
        for _ in range(int(rng.integers(0, 3 * n_new + 4))):
            if n_new and rng.random() < 0.5:
                u = m + int(rng.integers(0, n_new))
            else:
                u = int(rng.integers(0, m + n_new))
            v = int(rng.integers(0, m + n_new - 1))
            v += v >= u
            # bounds that are not dyadic, so the order of additions shows
            edges.append((u, v, float(rng.uniform(-3.0, 12.0))))
        yield base, n_new, edges


def test_probe_matches_step_by_step_growth():
    outcomes = {True: 0, False: 0}
    for base, n_new, edges in _random_growths(31):
        before = base.dist.copy()
        got = probe(base, n_new, edges)
        want = reference_kernels.grow(base, n_new, edges)
        assert (got is None) == (not want.consistent)
        if want.consistent:
            assert np.array_equal(got, want.dist[0])
        outcomes[want.consistent] += 1
        assert np.array_equal(base.dist, before)
    assert min(outcomes.values()) > 30


def _probe_draws(seed, trials=300):
    """(base, n_new, edges, tail) draws shaped like tighten's chains: a head
    of random edges, one edge from an old event that relaxes the whole
    matrix, then a tail of `tail` row-only edges, each leaving a new event
    that no earlier edge enters. Every fourth draw is a tail alone, with no
    full relaxation."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        base = random_network(rng, max_events=14)
        m = len(base.dist)
        n_new = int(rng.integers(1, 7))
        edges = []
        if trial % 4:
            for _ in range(int(rng.integers(0, 2 * n_new + 2))):
                u = int(rng.integers(0, m + n_new))
                v = int(rng.integers(0, m + n_new - 1))
                edges.append((u, v + (v >= u), float(rng.uniform(-3.0, 12.0))))
            edges.append((int(rng.integers(0, m)), int(rng.integers(1, m + n_new)),
                          float(rng.uniform(-3.0, 12.0))))
        entered = {v for _, v, _ in edges}
        tail = 0
        for _ in range(int(rng.integers(0, 2 * n_new + 1))):
            free = [u for u in range(m, m + n_new) if u not in entered]
            if not free:
                break
            u = free[int(rng.integers(0, len(free)))]
            v = int(rng.integers(0, m + n_new - 1))
            v += v >= u
            edges.append((u, v, float(rng.uniform(-3.0, 12.0))))
            entered.add(v)
            tail += 1
        yield base, n_new, edges, tail


def test_probe_skips_the_row_only_tail_exactly():
    """probe_edges cuts exactly the row-only tail, and probe of the cut
    edges equals the origin row of the step-by-step growth of all of them
    when the cut follows the last full relaxation, when nothing relaxes the
    whole matrix and when the base network is already inconsistent."""
    seen = {"cut tail": 0, "no full edge": 0, "inconsistent base": 0,
            "consistent": 0, "inconsistent": 0}
    for base, n_new, edges, tail in _probe_draws(33):
        cut, row_only = probe_edges(len(base.dist), edges)
        assert cut == edges[:len(edges) - tail] and len(row_only) == len(cut)
        got = probe(base, n_new, edges)
        want = reference_kernels.grow(base, n_new, edges)
        assert (got is None) == (not want.consistent)
        if want.consistent:
            assert np.array_equal(got, want.dist[0])
        if not base.consistent:
            seen["inconsistent base"] += 1
        elif tail == len(edges):
            seen["no full edge"] += 1
        elif tail:
            seen["cut tail"] += 1
        seen["consistent" if want.consistent else "inconsistent"] += 1
    assert min(seen.values()) > 20, seen


def test_extend_matches_step_by_step_growth():
    outcomes = {True: 0, False: 0}
    for base, n_new, edges in _random_growths(32):
        before = base.dist.copy()
        got = base.extend(n_new, edges)
        want = reference_kernels.grow(base, n_new, edges)
        assert got.consistent == want.consistent
        assert edges_of(got) == edges_of(want)
        if want.consistent:
            assert np.array_equal(got.dist, want.dist)
        outcomes[want.consistent] += 1
        assert np.array_equal(base.dist, before)
    assert min(outcomes.values()) > 30


def test_row_only_edge_keeps_the_sign_of_zero():
    """A row-only edge with b = -0.0 into a row holding -0.0 offers +0.0, as
    dist[u, u] + (b + x) does, not the -0.0 of b + x."""
    base = Stn()
    # t1 and t2 at most 5 after the origin, t2 at or before t1
    base.dist = np.array([[0.0, 5.0, 5.0], [0.0, 0.0, -0.0], [0.0, 5.0, 0.0]])
    edges = [(3, 1, -0.0)]
    got = base.extend(1, edges)
    want = reference_kernels.grow(base, 1, edges)
    assert got.dist[3, 2] == 0.0 and not np.signbit(got.dist[3, 2])
    assert got.dist.tobytes() == want.dist.tobytes()


def test_probe_answers_without_growing_the_network():
    s = NamedStn().add_event("a").add_constraint(ORIGIN, "a", 4.5).add_constraint("a", ORIGIN, -2.0)
    s = s.stn
    edges = edges_of(s)
    assert np.array_equal(probe(s, 0, []), s.dist[0])
    # x0 >= a + 1 and x1 >= x0 + 2 leave every upper bound where it was
    row = probe(s, 2, [(2, 1, -1.0), (3, 2, -2.0)])
    assert np.array_equal(row, [0.0, 4.5, math.inf, math.inf])
    # a chain edge that relaxes the whole matrix: this network's matrix
    # stays as it was
    before = s.dist.tobytes()
    row = probe(s, 1, [(2, 1, -1.0), (0, 2, 10.0)])
    assert np.array_equal(row, [0.0, 4.5, 10.0])
    assert s.dist.tobytes() == before
    # x0 >= a + 1 >= 3 cannot also sit at or before 1
    assert probe(s, 1, [(2, 1, -1.0), (0, 2, 1.0)]) is None
    # a self-loop below 0 is a negative cycle even at the tail of the edges
    assert probe(s, 1, [(0, 1, 3.0), (2, 2, -1.0)]) is None
    assert len(s.dist) == 2 and edges_of(s) == edges


def test_the_recorder_logs_each_network_from_its_parent():
    """A network keeps only its matrix and its flag. The recorder logs a
    grown network as its parent's log, an (e, 0, 0.0) entry per new event,
    then its own edges, so siblings share their parent's log and keep their
    own edges apart."""
    assert Stn.__slots__ == ("dist", "consistent")
    assert edges_of(Stn()) == () and edges_of(Stn().extend(0, ())) == ()
    base = Stn().extend(2, [(0, 1, 3)])
    assert edges_of(base) == ((1, 0, 0.0), (2, 0, 0.0), (0, 1, 3.0))
    child = base.extend(1, [(3, 1, -1.0)])
    assert edges_of(child) == edges_of(base) + ((3, 0, 0.0), (3, 1, -1.0))
    sibling = base.add_constraint(1, 2, 4.0)
    assert edges_of(sibling) == edges_of(base) + ((1, 2, 4.0),)
    stepped = reference_kernels.grow(base, 1, [(3, 1, -1.0)])
    assert edges_of(stepped) == edges_of(child)


def test_a_network_grown_without_the_recorder_has_no_log():
    """A network grown while no recorder was installed has no log, nor has
    any network grown from it, so recompute refuses each of them rather
    than close a log that starts part way."""
    bare = UNRECORDED_EXTEND(Stn(), 1, [(0, 1, 2.0)])
    for s in (bare, bare.add_constraint(1, 0, -1.0), bare.extend(1, ()),
              reference_kernels.add_event(bare)):
        with pytest.raises(LookupError):
            recompute(s)


def test_epsilon_separation_is_small_and_positive():
    assert 0 < EPSILON_SEPARATION < 1
