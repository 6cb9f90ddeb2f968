"""Temporal network behavior and incremental-vs-recompute agreement."""

import math

import numpy as np
import pytest

from copeplan.stn import EPSILON_SEPARATION, ORIGIN, Stn, recompute

import reference_kernels
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


def _random_growths(seed, trials=300):
    """(base, n_new, edges) draws: every tenth base has 65 to 89 events, and
    half the edges leave a new event, as tighten's chain edges do."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        if trial % 10 == 0:
            base = random_network(rng, max_events=90, min_events=65)
        else:
            base = random_network(rng, max_events=14)
        m = len(base.events)
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
        got = base.probe(n_new, edges)
        want = reference_kernels.grow(base, [f"x{k}" for k in range(n_new)], edges)
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
        m = len(base.events)
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
    """probe equals the origin row of the step-by-step growth when it stops
    at the last full relaxation, when nothing relaxes the whole matrix and
    when the base network is already inconsistent."""
    seen = {"cut tail": 0, "no full edge": 0, "inconsistent base": 0,
            "consistent": 0, "inconsistent": 0}
    for base, n_new, edges, tail in _probe_draws(33):
        got = base.probe(n_new, edges)
        want = reference_kernels.grow(base, [f"x{k}" for k in range(n_new)], edges)
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
        names = [f"x{k}" for k in range(n_new)]
        got = base.extend(names, edges)
        want = reference_kernels.grow(base, names, edges)
        assert got.consistent == want.consistent
        assert got.events == want.events and got.index == want.index
        assert got.constraints == want.constraints
        if want.consistent:
            assert np.array_equal(got.dist, want.dist)
        outcomes[want.consistent] += 1
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
    # a self-loop below 0 is a negative cycle even at the tail of the edges
    assert s.probe(1, [(0, 1, 3.0), (2, 2, -1.0)]) is None
    assert s.events == (ORIGIN, "a")


def test_epsilon_separation_is_small_and_positive():
    assert 0 < EPSILON_SEPARATION < 1
