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


def test_epsilon_separation_is_small_and_positive():
    assert 0 < EPSILON_SEPARATION < 1
