"""Temporal network behavior and incremental-vs-recompute agreement."""

import math

import numpy as np
import pytest

from copeplan.stn import EPSILON_SEPARATION, ORIGIN, Stn, recompute

from helpers import random_network


def test_empty_network_everything_unbounded_above():
    s = Stn().add_event("a").add_event("b")
    consistent, tmin, tmax = s.solve()
    assert consistent
    assert tmin["a"] == 0.0 and tmin["b"] == 0.0
    assert tmax["a"] == math.inf and tmax["b"] == math.inf


def test_single_upper_bound():
    s = Stn().add_event("a").add_constraint(ORIGIN, "a", 5)
    assert s.tmax("a") == 5.0
    assert s.tmin("a") == 0.0


def test_chain_bounds_accumulate():
    s = (
        Stn()
        .add_event("a")
        .add_event("b")
        .add_constraint(ORIGIN, "a", 3)
        .add_constraint("a", "b", 2)
    )
    assert s.tmax("b") == 5.0
    assert s.tmax("a") == 3.0


def test_tighter_duplicate_wins_and_looser_is_ignored():
    s = Stn().add_event("a").add_constraint(ORIGIN, "a", 5)
    s = s.add_constraint(ORIGIN, "a", 3)
    assert s.tmax("a") == 3.0
    s = s.add_constraint(ORIGIN, "a", 7)
    assert s.tmax("a") == 3.0


def test_contradiction_is_a_solve_result_not_an_error():
    s = Stn().add_event("a")
    s = s.add_constraint(ORIGIN, "a", 1)   # t(a) <= 1
    s = s.add_constraint("a", ORIGIN, -2)  # t(a) >= 2
    assert len(s.constraints) == 3
    consistent, tmin, tmax = s.solve()
    assert not consistent and tmin == {} and tmax == {}
    rc, _, _ = recompute(s)
    assert not rc


def test_negative_cycle_between_events():
    s = Stn().add_event("a").add_event("b")
    s = s.add_constraint("a", "b", 2).add_constraint("b", "a", -3)
    assert s.solve()[0] is False


def test_unknown_event_raises():
    s = Stn()
    with pytest.raises(KeyError):
        s.add_constraint(ORIGIN, "ghost", 1)
    with pytest.raises(ValueError):
        s.add_event(ORIGIN)


def test_value_semantics():
    base = Stn().add_event("a")
    tight = base.add_constraint(ORIGIN, "a", 2)
    assert base.tmax("a") == math.inf
    assert tight.tmax("a") == 2.0
    other = base.add_event("b")
    assert "b" not in base.index and "b" in other.index


def test_incremental_matches_recompute_on_random_networks():
    rng = np.random.default_rng(2024)
    inconsistent = 0
    for _ in range(120):
        s = random_network(rng)
        got = s.solve()
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
        got = s.solve()
        assert got == recompute(s)
        inconsistent += not got[0]
    assert 0 < inconsistent < 20


def test_tmin_never_exceeds_tmax():
    rng = np.random.default_rng(11)
    for _ in range(60):
        s = random_network(rng, max_events=12)
        consistent, tmin, tmax = s.solve()
        if consistent:
            for e in s.events:
                assert tmin[e] <= tmax[e]


def test_tightening_never_increases_tmax():
    rng = np.random.default_rng(12)
    for _ in range(40):
        s = random_network(rng, max_events=10)
        if not s.consistent:
            continue
        before = s.solve()[2]
        pool = list(s.events)
        u, v = rng.choice(len(pool), size=2, replace=False)
        s2 = s.add_constraint(pool[u], pool[v], int(rng.integers(-8, 33)) / 8.0)
        if not s2.consistent:
            continue
        after = s2.solve()[2]
        for e in s.events:
            assert after[e] <= before[e]


def _grown_origin_row(base, n_new, edges):
    """Origin row after adding the events, then the edges, one call at a time."""
    s = base
    names = list(base.events)
    for k in range(n_new):
        names.append(f"x{k}")
        s = s.add_event(names[-1])
    for u, v, b in edges:
        s = s.add_constraint(names[u], names[v], b)
    return s.dist[0] if s.consistent else None


def test_probe_matches_step_by_step_growth():
    rng = np.random.default_rng(31)
    outcomes = {True: 0, False: 0}
    for trial in range(300):
        if trial % 10 == 0:
            base = random_network(rng, max_events=90, min_events=65)
        else:
            base = random_network(rng, max_events=14)
        before = base.dist.copy()
        m = len(base.events)
        n_new = int(rng.integers(0, 7))
        edges = []
        for _ in range(int(rng.integers(0, 3 * n_new + 4))):
            # half the edges leave a new event, as tighten's chain edges do
            if n_new and rng.random() < 0.5:
                u = m + int(rng.integers(0, n_new))
            else:
                u = int(rng.integers(0, m + n_new))
            v = int(rng.integers(0, m + n_new - 1))
            v += v >= u
            # bounds that are not dyadic, so the order of additions shows
            edges.append((u, v, float(rng.uniform(-3.0, 12.0))))
        got = base.probe(n_new, edges)
        want = _grown_origin_row(base, n_new, edges)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
        outcomes[want is not None] += 1
        assert np.array_equal(base.dist, before)
    assert min(outcomes.values()) > 30


def test_probe_answers_without_growing_the_network():
    s = Stn().add_event("a").add_constraint(ORIGIN, "a", 4.5).add_constraint("a", ORIGIN, -2.0)
    assert np.array_equal(s.probe(0, []), s.dist[0])
    # x0 >= a + 1 and x1 >= x0 + 2 leave every upper bound where it was
    assert np.array_equal(s.probe(2, [(2, 1, -1.0), (3, 2, -2.0)]),
                          [0.0, 4.5, math.inf, math.inf])
    # x0 >= a + 1 >= 3 cannot also sit at or before 1
    assert s.probe(1, [(2, 1, -1.0), (0, 2, 1.0)]) is None
    assert s.events == (ORIGIN, "a")


def test_epsilon_separation_is_small_and_positive():
    assert 0 < EPSILON_SEPARATION < 1
