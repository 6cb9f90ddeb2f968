import copy
import dataclasses
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from copeplan import fileio
from copeplan.dda import DdaParams, q_value
from copeplan.dist import DiscreteDistribution
from copeplan.harness import benchmark_tasks
from copeplan.planner import (
    DispatchParams,
    DurativeAction,
    PlanResult,
    Task,
    TimedLiteral,
    deadline_steps,
    discretized_lognormal,
    estimate_completion,
    expand,
    latest_start,
    make_root,
    q_known,
    run_search,
    validate_plan,
)
from copeplan.planner import engine, search
from copeplan.planner.engine import _apply_dispatch, _auto_advance
from copeplan.planner.search import SearchStats, make_child, q_tables
from copeplan.stn import Stn, probe_edges

import reference_kernels
from helpers import edges_of, logged, props_of, recompute, recording, solve


def fs(*names):
    return frozenset(names)


def micro_task(window=20.0):
    # prep then finish, both inside a window that a timed literal closes
    return Task(
        propositions=fs("free", "window", "prepped", "done"),
        actions=(
            DurativeAction(
                name="prep", duration=2.0,
                cond_start=fs("free"), cond_over=fs("window"),
                del_start=fs("free"), add_end=fs("prepped", "free"),
            ),
            DurativeAction(
                name="finish", duration=3.0,
                cond_start=fs("prepped", "free"), cond_over=fs("window"),
                del_start=fs("free"), add_end=fs("done", "free"),
            ),
        ),
        init=fs("free", "window"),
        goal=fs("done"),
        tils=(TimedLiteral(time=window, prop="window", add=False),),
    )


def pair_task():
    # two independent one-step goals, achievable in either order
    return Task(
        propositions=fs("free", "pa", "pb"),
        actions=(
            DurativeAction(name="a", duration=1.0, cond_start=fs("free"),
                           del_start=fs("free"), add_end=fs("pa", "free")),
            DurativeAction(name="b", duration=1.0, cond_start=fs("free"),
                           del_start=fs("free"), add_end=fs("pb", "free")),
        ),
        init=fs("free"),
        goal=fs("pa", "pb"),
    )


def gated_task(goals=5):
    # independent goals, but every start needs "open", which only the timed
    # literal at 0.5 adds: every open node begins with that literal
    done = [f"done{k}" for k in range(goals)]
    return Task(
        propositions=fs("free", "open", *done),
        actions=tuple(
            DurativeAction(name=f"g{k}", duration=1.0 + 0.5 * k,
                           cond_start=fs("free", "open"), del_start=fs("free"),
                           add_end=fs(done[k], "free"))
            for k in range(goals)),
        init=fs("free"),
        goal=frozenset(done),
        tils=(TimedLiteral(time=0.5, prop="open", add=True),),
    )


def test_root_expansion_prunes_dead_and_inapplicable_steps():
    task = micro_task()
    root = make_root(task)
    assert root is not None
    assert root.h == 4.0
    children = expand(task, root, tick=1)
    # finish lacks its start condition; applying the literal kills the goal
    assert [c.prefix for c in children] == [(("start", "prep"),)]


def test_chain_tightening_caps_latest_start():
    task = micro_task(window=20.0)
    root = make_root(task)
    child = make_child(task, root, ("start", "prep"), tick=1)
    assert child.h == 3.0
    # finish must start by 17 to end before the window closes, and prep
    # must precede it by the separation epsilon
    assert latest_start(child, 0) == pytest.approx(16.999)
    assert latest_start(child, 1) == math.inf


def test_child_states_match_the_set_form():
    """Every child's bitmask state holds the propositions that applying its
    step to the parent's set gives, deletions before additions, also for an
    action that deletes and adds one proposition at the same happening and
    for timed literals that add and delete."""
    task = Task(
        propositions=fs("free", "lock", "done", "window"),
        actions=(DurativeAction(name="a", duration=1.0, cond_start=fs("free"),
                                cond_over=fs("window"), del_start=fs("free", "lock"),
                                add_start=fs("lock"), del_end=fs("lock"),
                                add_end=fs("free", "lock", "done")),),
        init=fs("free"),
        goal=fs("done"),
        tils=(TimedLiteral(time=0.5, prop="window", add=True),
              TimedLiteral(time=3.0, prop="window", add=False)),
    )
    frontier = [make_root(task)]
    steps = set()
    # the window bounds the search; the cap turns a runaway into a failure
    for _ in range(200):
        if not frontier:
            break
        node = frontier.pop()
        for child in expand(task, node, tick=1):
            step = child.prefix[-1]
            want = reference_kernels.apply_step(task, props_of(task, node.props), step)
            assert props_of(task, child.props) == want
            steps.add(step[:2])
            frontier.append(child)
    assert frontier == []
    assert steps == {("til", 0), ("til", 1), ("start", "a"), ("end", "a")}


def test_latest_start_never_decreases_as_steps_commit():
    task = micro_task()
    root = make_root(task)
    frontier = [root]
    seen = 0
    for _ in range(30):
        if not frontier:
            break
        node = frontier.pop(0)
        for c in range(len(node.prefix) + 1):
            assert latest_start(node, c) <= latest_start(node, c + 1)
        seen += 1
        frontier.extend(expand(task, node, tick=seen))
    assert seen >= 10


def test_discretized_lognormal_matches_moments():
    dist = discretized_lognormal(6.0, 0.5)
    assert abs(dist.mean() - 6.0) / 6.0 < 0.05
    assert dist.probs.sum() == pytest.approx(1.0)
    assert dist.pmf(0) == 0.0
    assert discretized_lognormal(6.0, 0.0).pairs() == [(6, 1.0)]


def test_estimate_completion_uses_delay_and_dispersion():
    stats = SearchStats()
    stats.delay_sum, stats.expansions = 20.0, 10
    (est, mean, _), (done, _, _) = estimate_completion([3.0, 0.0], stats)
    assert est.pairs() == [(6, 1.0)] and mean == 6.0
    assert done.pairs() == [(0, 1.0)]


def test_deadline_steps_grid():
    assert deadline_steps(2.0, 0.0, 10.0) == 21
    assert deadline_steps(2.0, 1.95, 10.0) == 1
    assert deadline_steps(2.0, 2.5, 10.0) == 0
    assert deadline_steps(math.inf, 5.0, 10.0) >= 10**8


def test_q_known_matches_reference_scoring():
    rng = np.random.default_rng(7)
    params = DdaParams(t_u=4, gamma=0.9)
    for _ in range(60):
        size = int(rng.integers(1, 12))
        w = rng.random(size) + 1e-3
        probs = np.concatenate([[0.0], w / w.sum()])
        profile = DiscreteDistribution(probs)
        d = int(rng.integers(1, 20))
        assert q_known(profile, d, params) == pytest.approx(
            q_value(profile, d, params), abs=1e-9)


def _q_known_families(rng):
    """(profile, sorted deadlines) for point masses, a two-atom mass,
    lognormal estimates and sparse random masses, each with d <= 1, d around
    and past the support, and 10**9; the deadlines are drawn lazily, so a
    caller's own draws between profiles keep their place in rng's stream."""
    profiles = [DiscreteDistribution.delta(0), DiscreteDistribution.delta(1),
                DiscreteDistribution.delta(7),
                DiscreteDistribution.from_pairs([(0, 0.25), (3, 0.75)])]
    for _ in range(40):
        profiles.append(discretized_lognormal(float(rng.uniform(0.5, 120.0)),
                                              float(rng.uniform(0.0, 2.0))))
        size = int(rng.integers(1, 30))
        w = rng.random(size) * (rng.random(size) < 0.6)
        w[-1] += 1e-3
        profiles.append(DiscreteDistribution(w / w.sum()))
    for profile in profiles:
        support = profile.support_max
        ds = {-3, 0, 1, 2, support, support + 1, support + 5, 10**9}
        ds.update(int(x) for x in rng.integers(0, 2 * support + 12, size=6))
        yield profile, sorted(ds)


def _q_params(rng, d):
    for t_u in (1, 2, 4, 10, max(1, d), d + 3):
        if t_u >= 1:
            yield DdaParams(t_u=t_u, gamma=float(rng.choice([1.0, 0.9, 0.37])))


def test_q_known_matches_per_term_reference_exactly():
    rng = np.random.default_rng(8)
    checked = 0
    for profile, ds in _q_known_families(rng):
        for d in ds:
            for params in _q_params(rng, d):
                assert q_known(profile, d, params) == reference_kernels.q_known(
                    profile, d, params), (profile, d, params)
                checked += 1
    assert checked > 3000


def test_q_known_reads_shared_tables_exactly():
    """One profile's whole-support tables, reused for every d in ascending
    and then descending order, give the floats of tables cut at each d and
    of the per-term reference."""
    rng = np.random.default_rng(8)
    checked = 0
    for profile, ds in _q_known_families(rng):
        tables = q_tables(profile)
        for d in ds + ds[::-1]:
            for params in _q_params(rng, d):
                got = q_known(profile, d, params, tables)
                assert got == reference_kernels.q_known_cut(profile, d, params), (profile, d)
                assert got == reference_kernels.q_known(profile, d, params), (profile, d)
                checked += 1
    assert checked > 6000


def test_discretized_lognormal_matches_scalar_reference_exactly():
    rng = np.random.default_rng(9)
    cases = [(0.0, 0.5), (-2.0, 1.0), (5.0, 0.0), (5.0, 5e-10), (0.4, 1.1e-8),
             (0.3, 0.1), (1.0, 0.05), (150.0, 2.0), (1e4, 0.5), (2.5, 2.0)]
    cases += [(float(np.exp(rng.uniform(-2.0, 6.0))), float(rng.uniform(0.0, 2.0)))
              for _ in range(400)]
    caps = set()
    for mean, cv in cases:
        got = discretized_lognormal(mean, cv)
        want = reference_kernels.discretized_lognormal(mean, cv)
        assert got.probs.shape == want.probs.shape, (mean, cv)
        assert np.array_equal(got.probs, want.probs), (mean, cv)
        caps.add(got.support_max)
    # the grid clamps at both ends: two cells at least, the cap at most
    assert {2, search.ESTIMATE_SUPPORT_CAP} <= caps


def test_discretized_lognormal_without_spread_is_a_point_mass():
    # from cv = 1e-9 up to about 1.05e-8, log(1 + cv * cv) rounds to 0; the
    # scalar form divided by that zero sigma
    for mean, cv in ((0.4, 1e-9), (6.0, 5e-9), (6.3, 1e-8)):
        assert discretized_lognormal(mean, cv).pairs() == [(max(1, round(mean)), 1.0)]
        with pytest.raises(ZeroDivisionError):
            reference_kernels.discretized_lognormal(mean, cv)


def _reference_row(mean, cv):
    """The scalar reference's profile of one (mean, cv) row, a point mass
    where cv * cv vanishes next to 1, with its tables and mean."""
    if mean > 0 and cv >= 1e-9 and math.log(1.0 + cv * cv) == 0.0:
        profile = DiscreteDistribution.delta(max(1, round(mean)))
    else:
        profile = reference_kernels.discretized_lognormal(mean, cv)
    return profile, reference_kernels.q_tables(profile), profile.mean()


def _same_row(got, want):
    (profile, mean, tables), (ref, ref_tables, ref_mean) = got, want
    assert profile.probs.tobytes() == ref.probs.tobytes()
    assert profile.cum.tobytes() == ref.cum.tobytes()
    assert [t.tobytes() for t in tables] == [t.tobytes() for t in ref_tables]
    assert mean == ref_mean and math.copysign(1.0, mean) == math.copysign(1.0, ref_mean)


def test_batched_profiles_match_the_scalar_reference_row_by_row():
    """Each row of a batched pass, in any order and in batches that mix
    capped, uncapped, two-cell, point-mass, h <= 0 and cv * cv vanishing
    rows, has the reference's masses, running sums, q tables and mean bit
    for bit, and the same bytes it has alone."""
    rng = np.random.default_rng(12)
    fixed = [(0.0, 0.5), (-2.0, 1.0), (5.0, 0.0), (5.0, 5e-10), (6.3, 1e-8),
             (0.4, 1.1e-8), (0.3, 0.1), (150.0, 2.0), (1e4, 0.5), (2.5, 2.0),
             (1234.0, 0.0)]
    kinds = set()
    for _ in range(150):
        rows = [fixed[int(i)] for i in rng.integers(0, len(fixed), size=int(rng.integers(0, 4)))]
        rows += [(float(np.exp(rng.uniform(-2.0, 6.0))), float(rng.uniform(0.0, 2.0)))
                 for _ in range(int(rng.integers(1, 40)))]
        rows = [rows[int(i)] for i in rng.permutation(len(rows))]
        got = search._profile_rows(rows)
        assert len(got) == len(rows)
        for row, out in zip(rows, got):
            _same_row(out, _reference_row(*row))
            alone = search._profile_rows([row])[0]
            assert out[0].probs.tobytes() == alone[0].probs.tobytes()
            assert out[1] == alone[1]
            kinds.add(out[0].support_max)
    assert {0, 2, search.ESTIMATE_SUPPORT_CAP, 1234} <= kinds


def test_estimate_completion_matches_the_reference_per_h():
    """estimate_completion over the distinct h of a batch, under drawn
    search statistics, gives each h the reference's profile, tables and
    mean; h <= 0 is a point mass at 0."""
    rng = np.random.default_rng(13)
    for _ in range(60):
        stats = SearchStats()
        for _ in range(int(rng.integers(0, 30))):
            stats.note_expansion(int(rng.integers(0, 5)))
            stats.note_h_step(float(rng.integers(0, 30)), float(rng.integers(0, 30)))
        hs = list(dict.fromkeys(float(h) for h in rng.integers(-2, 40, size=12)))
        for h, got in zip(hs, estimate_completion(hs, stats)):
            ref = reference_kernels.estimate_completion(h, stats)
            _same_row(got, (ref, reference_kernels.q_tables(ref), ref.mean()))


def _check_tighten_against_reference(monkeypatch, verdicts):
    """Check every tighten call against the reference from now on, and
    append (verdict, whether the memo answered it) to `verdicts`. A memo
    hit, which probes nothing, is checked as a miss is. A node tighten
    accepts takes the reference's start tmaxes as `start_tmaxes`, which the
    reference scoring reads; a refused node keeps its network and everything
    else."""
    real = search.tighten

    def checked(task, node, base, memo):
        ref = copy.copy(node)
        want = reference_kernels.tighten(task, ref, base)
        before = copy.copy(node)
        # a miss stores its answer, a hit adds nothing
        known = len(memo)
        got = real(task, node, base, memo)
        assert got == want
        if got:
            assert node.stn is base
            # suffix minima against the list form, also past the prefix
            cs = range(len(node.prefix) + 3)
            assert node.latest == [reference_kernels.latest_start(ref, c)
                                   for c in cs[:len(node.latest)]]
            assert [latest_start(node, c) for c in cs] == [
                reference_kernels.latest_start(ref, c) for c in cs]
            node.start_tmaxes = ref.start_tmaxes
        else:
            # every field as it was; Stn compares by identity, so the
            # network is the same object
            assert vars(node) == vars(before)
        verdicts.append((got, len(memo) == known))
        return got

    monkeypatch.setattr(search, "tighten", checked)
    monkeypatch.setattr(engine, "tighten", checked)


def _tighten_verdicts_against_reference(monkeypatch, tasks, dispatch_params,
                                        max_expansions):
    """Plan each task in both modes at speeds 6 and 100, checking every
    tighten call against the reference, memo hits among them; returns the
    (verdict, memo hit) of each call."""
    verdicts = []
    _check_tighten_against_reference(monkeypatch, verdicts)
    for task in tasks:
        for mode in ("disp", "nodisp"):
            for speed in (6.0, 100.0):
                run_search(task, mode=mode, speed=speed, dispatch_params=dispatch_params,
                           max_expansions=max_expansions)
    return verdicts


def test_tighten_matches_persistent_network_reference(monkeypatch):
    """Every tighten call on shipped tasks, in both modes and at two speeds,
    gives the reference's verdict, network and suffix minima of its start
    tmaxes bit for bit, those the probe memo answers among them."""
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    verdicts = _tighten_verdicts_against_reference(
        monkeypatch, benchmark_tasks(cfg)[:10], cfg.dispatch_params(), cfg.max_expansions)
    # accepted and refused, each probed and answered by the memo
    assert set(verdicts) == {(True, False), (True, True), (False, False), (False, True)}


_EPS = search.EPSILON_SEPARATION


@pytest.mark.parametrize("conds,goal,tils,latest", [
    # a start-only condition must hold until just before the deletion
    ({"cond_start": fs("c")}, fs("done"), [(10.0, False)], 10.0 - 2 * _EPS),
    # the earliest of two deletions bounds it
    ({"cond_start": fs("c")}, fs("done"), [(10.0, False), (12.0, False)], 10.0 - 2 * _EPS),
    # an over-all or end condition must hold until the action ends
    ({"cond_over": fs("c")}, fs("done"), [(10.0, False)], 8.0 - _EPS),
    ({"cond_end": fs("c")}, fs("done"), [(10.0, False)], 8.0 - _EPS),
    # a goal must hold when the chain is done
    ({}, fs("done", "c"), [(10.0, False)], 8.0 - 2 * _EPS),
    # an adding literal bounds nothing; only the start's own edge remains
    ({"cond_start": fs("c"), "cond_over": fs("c")}, fs("done", "c"), [(10.0, True)],
     10.0 - _EPS),
], ids=["start-only", "start-only-twice", "over-all", "end-only", "goal", "adding"])
def test_tighten_bounds_the_chain_by_each_kind_of_timed_deletion(conds, goal, tils, latest):
    """After `w` starts, the relaxed chain is action `a` (duration 2), which
    timed literals on `c` bound according to where `a` needs `c`; the bound
    reaches `w`'s latest start through the chain. tighten gives the
    reference's verdict, network and start tmaxes bit for bit."""
    task = Task(
        propositions=fs("c", "done"),
        actions=(DurativeAction("w", 1.0),
                 DurativeAction("a", 2.0, add_end=fs("done"), **conds)),
        init=fs("c"),
        goal=goal,
        tils=tuple(TimedLiteral(time, "c", add) for time, add in tils),
    )
    node = make_child(task, make_root(task), ("start", "w"), 1)
    assert [a.name for a in node.chain] == ["a"]
    ref = copy.copy(node)
    assert search.tighten(task, node, node.stn, {}) is True
    assert reference_kernels.tighten(task, ref, node.stn) is True
    assert node.stn.dist.tobytes() == ref.stn.dist.tobytes()
    assert node.latest == [reference_kernels.latest_start(ref, c) for c in (0, 1)]
    assert node.latest[0] == pytest.approx(latest, abs=1e-12)


def _exact_least_cycle(stn):
    """The least diagonal entry of the Floyd-Warshall closure of the
    network's recorded edge log in exact rational arithmetic."""
    n = len(stn.dist)
    dist = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for u, v, b in edges_of(stn):
        if dist[u][v] is None or Fraction(b) < dist[u][v]:
            dist[u][v] = Fraction(b)
    for k in range(n):
        for row in dist:
            if row[k] is None:
                continue
            for j, via in enumerate(dist[k]):
                if via is not None and (row[j] is None or row[k] + via < row[j]):
                    row[j] = row[k] + via
    return min(dist[i][i] for i in range(n))


def test_extend_matches_step_by_step_growth_while_planning(monkeypatch):
    """Every network the planner builds on shipped tasks, in both modes and
    at two speeds, is built by extend and equals the reference that adds one
    event or edge at a time: a child's (shared by start siblings), a pinned
    one and _try_finish's. Each also agrees with the Floyd-Warshall closure
    of its edge log, recorded as extend runs: the same flag, and bounds
    within 1e-9, as that closure sums paths in another order; the flags
    differ only on a cycle of weight exactly 0 in rational arithmetic, which
    each order may round to either side. Every child's network also equals the one grown eagerly by event
    name, in edge log, dist and flag."""
    real_extend, real_make_child = Stn.extend, search.make_child
    seen = {"child": 0, "pin or finish": 0, "inconsistent": 0, "named child": 0}

    def checked_extend(self, n_new, edges):
        got = real_extend(self, n_new, edges)
        got = logged(self, n_new, edges, got.dist, got.consistent)
        want = reference_kernels.grow(self, n_new, edges)
        assert got.consistent == want.consistent
        assert edges_of(got) == edges_of(want)
        if want.consistent:
            # equal values and equal signs of zero
            assert got.dist.tobytes() == want.dist.tobytes()
        consistent, tmin, tmax = recompute(got)
        if consistent != got.consistent:
            # rounding decides a cycle that weighs exactly 0, as an end's
            # +-duration edges or a pin at a time read off another node's
            # matrix close
            assert _exact_least_cycle(got) == 0
        elif consistent:
            _, got_min, got_max = solve(got)
            assert np.allclose(got_min, tmin, rtol=0.0, atol=1e-9)
            assert np.allclose(got_max, tmax, rtol=0.0, atol=1e-9)
        seen["child" if n_new else "pin or finish"] += 1
        seen["inconsistent"] += not got.consistent
        return got

    def checked_make_child(task, parent, step, tick, grow=None):
        child = real_make_child(task, parent, step, tick, grow)
        if child is not None:
            want = reference_kernels.child_network(task, parent.stn, len(parent.prefix),
                                                   step, child.til_count)
            got = child.stn
            assert (edges_of(got), got.consistent) == (edges_of(want), want.consistent)
            assert got.dist.tobytes() == want.dist.tobytes()
            seen["named child"] += 1
        return child

    monkeypatch.setattr(Stn, "extend", checked_extend)
    monkeypatch.setattr(search, "make_child", checked_make_child)
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    for task in benchmark_tasks(cfg)[:10]:
        for mode in ("disp", "nodisp"):
            for speed in (6.0, 100.0):
                run_search(task, mode=mode, speed=speed,
                           dispatch_params=cfg.dispatch_params(),
                           max_expansions=cfg.max_expansions)
    assert min(seen.values()) > 0, seen


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the
    list whose length is the count."""
    real = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _late_task():
    """Action `a` lasts 10 and must start before two timed literals at 5,
    so it cannot end before the first of them, and the second cannot
    follow the first at the same time."""
    return Task(
        propositions=fs("x", "y", "g"),
        actions=(DurativeAction("a", 10.0, add_end=fs("g")),),
        init=fs(),
        goal=fs("g"),
        tils=(TimedLiteral(5.0, "x", True), TimedLiteral(5.0, "y", True)),
    )


@pytest.mark.parametrize("steps", [
    (("start", "a"), ("end", "a", 0)),
    (("til", 0), ("til", 1)),
], ids=["end", "til"])
def test_child_with_inconsistent_own_edges_never_reaches_relaxed_plan(monkeypatch, steps):
    """A child whose own edges break its network is refused before
    relaxed_plan or tighten runs: the end of `a` cannot precede the timed
    literal at 5, and a timed literal cannot sit eps after another at the
    same time."""
    task = _late_task()
    parent = make_child(task, make_root(task), steps[0], 1)
    assert parent is not None
    planned = _counting(monkeypatch, search, "relaxed_plan")
    tightened = _counting(monkeypatch, search, "tighten")
    assert make_child(task, parent, steps[1], 2) is None
    assert planned == [] and tightened == []


def test_pin_that_breaks_the_network_never_reaches_tighten(monkeypatch):
    """A pin that breaks the node's network is refused before tighten runs
    and leaves the node as it was: `a` must start before 5."""
    task = _late_task()
    node = make_child(task, make_root(task), ("start", "a"), 1)
    before = copy.copy(node)
    tightened = _counting(monkeypatch, engine, "tighten")
    late = search.pin_edges([(("start", "a"), 7.0)])
    early = search.pin_edges([(("start", "a"), 1.0)])
    assert engine._pin(task, node, late, {}) is None
    assert tightened == [] and vars(node) == vars(before)
    assert engine._pin(task, node, early, {}) is node and len(tightened) == 1


def test_end_child_refused_when_its_end_condition_fails():
    """`a` needs p at its end, which only `b` adds: ending `a` right after
    starting it fails the end condition."""
    task = Task(
        propositions=fs("p", "g"),
        actions=(DurativeAction("a", 1.0, cond_end=fs("p"), add_end=fs("g")),
                 DurativeAction("b", 1.0, add_end=fs("p"))),
        init=fs(),
        goal=fs("g"),
    )
    started = make_child(task, make_root(task), ("start", "a"), 1)
    assert started is not None
    assert make_child(task, started, ("end", "a", 0), 2) is None


def test_start_siblings_share_one_network_never_written(monkeypatch):
    """While planning shipped tasks in both modes, every start child of one
    expansion holds the same network object, and no network that
    search.grown builds changes from then to the end of the run: pins, reads
    and later probes never write it in place. A pin that a node accepts
    gives it a pinned network, and the nodes one commit pins on the same
    network share one pinned network; a refused pin leaves the node's
    network the same object."""
    real_expand, real_pin, real_grown = engine.expand, engine._pin, search.grown
    # every network grown, with its matrix as built; and the networks that
    # grown handed out more than once
    built = []
    shared = set()
    seen = {"expansions": 0, "siblings": 0, "pins on a shared network": 0,
            "refused pins": 0, "pinned together": 0}
    # the grow dict of the current commit, and the pinned network that each
    # network got in it
    commit = {"grow": None, "pinned": {}}

    def checked_grown(grow, network, n_new, edges):
        hit = (network, n_new, edges) in grow
        stn, memo = real_grown(grow, network, n_new, edges)
        if hit:
            shared.add(stn)
        else:
            built.append((stn, stn.dist.tobytes()))
        return stn, memo

    def checked_pin(task, node, edges, grow):
        stn = node.stn
        seen["pins on a shared network"] += stn in shared
        if grow is not commit["grow"]:
            commit["grow"], commit["pinned"] = grow, {}
        out = real_pin(task, node, edges, grow)
        if out is None:
            assert node.stn is stn
            seen["refused pins"] += 1
            return out
        assert node.stn is not stn
        pinned = commit["pinned"]
        if stn in pinned:
            assert node.stn is pinned[stn]
            seen["pinned together"] += 1
        else:
            pinned[stn] = node.stn
        return out

    def checked_expand(task, node, tick):
        children = real_expand(task, node, tick)
        starts = [c for c in children if c.prefix[-1][0] == "start"]
        if starts:
            stn = starts[0].stn
            assert all(c.stn is stn for c in starts)
            assert stn is not node.stn
            seen["expansions"] += 1
            seen["siblings"] += len(starts) > 1
        return children

    monkeypatch.setattr(search, "grown", checked_grown)
    monkeypatch.setattr(engine, "grown", checked_grown)
    monkeypatch.setattr(engine, "expand", checked_expand)
    monkeypatch.setattr(engine, "_pin", checked_pin)
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    for task in benchmark_tasks(cfg)[:10]:
        for mode in ("disp", "nodisp"):
            built.clear()
            shared.clear()
            run_search(task, mode=mode, speed=cfg.speeds[0],
                       dispatch_params=cfg.dispatch_params(),
                       max_expansions=cfg.max_expansions)
            assert all(stn.dist.tobytes() == before for stn, before in built)
    assert min(seen.values()) > 0, seen


def _goal_cut_task(tils=()):
    """`a`, `b` and `c` each add `g` at their end and last 2, 3 and 2; `d`
    adds `done`. A timed literal deletes `g` at 10, so every chain ends by
    its goal cut, and the cut comes after the edge of each open interval."""
    return Task(
        propositions=fs("g", "done"),
        actions=(DurativeAction("a", 2.0, add_end=fs("g")),
                 DurativeAction("b", 3.0, add_end=fs("g")),
                 DurativeAction("c", 2.0, add_end=fs("g")),
                 DurativeAction("d", 1.0, add_end=fs("done"))),
        init=fs(),
        goal=fs("g", "done"),
        tils=(TimedLiteral(10.0, "g", False),) + tils,
    )


def test_probe_memo_tells_apart_siblings_whose_own_edges_differ():
    """The start siblings `a`, `b` and `c` have the same chain, `d`, and the
    same new events; the goal cut keeps each one's open interval in its
    probe's edges. `b`, which lasts longer, gets latest starts of its own,
    while `a` and `c`, whose probe edges agree, share one list object. Each
    equals the reference, which probes every sibling afresh."""
    task = _goal_cut_task()
    root = make_root(task)
    children = {c.prefix[-1][1]: c for c in expand(task, root, 1)}
    a, b, c = children["a"], children["b"], children["c"]
    assert a.chain == b.chain == c.chain and [x.name for x in a.chain] == ["d"]
    assert a.stn is b.stn is c.stn
    for child in (a, b, c):
        ref = copy.copy(child)
        assert reference_kernels.tighten(task, ref, child.stn) is True
        assert child.latest == [reference_kernels.latest_start(ref, k) for k in (0, 1)]
    # the goal cut less each one's own duration
    assert a.latest[0] == pytest.approx(10.0 - _EPS - 2.0, abs=1e-12)
    assert b.latest[0] == pytest.approx(10.0 - _EPS - 3.0, abs=1e-12)
    assert a.latest is c.latest


def test_tighten_bounds_are_never_negative_zero(monkeypatch):
    """The probe memo's key compares bounds with ==, which does not tell 0.0
    from -0.0; no bound tighten emits is -0.0, even where one comes out
    exactly 0: a timed literal at the duration of an action whose over-all
    condition it deletes, one at eps deleting a start condition or a goal
    fact, and one at -0.0."""
    task = Task(
        propositions=fs("p", "r", "s", "k", "done", "g", "h"),
        actions=(DurativeAction("d", 1.0, cond_over=fs("p"), add_end=fs("done")),
                 DurativeAction("e", 1.0, cond_start=fs("r"), add_end=fs("g")),
                 DurativeAction("f", 2.0, cond_start=fs("s"), add_end=fs("h"))),
        init=fs("p", "r", "s", "k"),
        goal=fs("done", "g", "h", "k"),
        tils=(TimedLiteral(-0.0, "s", False), TimedLiteral(_EPS, "r", False),
              TimedLiteral(_EPS, "k", False), TimedLiteral(1.0, "p", False)),
    )
    bounds = []
    real = Stn.probe

    def noted(self, n_new, edges, row_only):
        bounds.extend(b for _, _, b in edges)
        return real(self, n_new, edges, row_only)

    monkeypatch.setattr(Stn, "probe", noted)
    chain = search.relaxed_plan(task, task.mask(task.init), (), 0)
    node = search.SearchNode((), task.mask(task.init), (), 0, 0.0, tuple(chain), 0)
    # the chain cannot start before its bounds of 0, so tighten refuses it
    assert search.tighten(task, node, Stn(), {}) is False
    # three bounds of 0, and the 0 that joins the chain's end to the goal
    assert bounds.count(0.0) == 4
    assert not any(b == 0.0 and math.copysign(1.0, b) < 0 for b in bounds)


def test_each_shared_network_is_probed_and_pinned_once(monkeypatch):
    """Planning the first 10 shipped tasks in both modes at speeds 6 and 100
    makes the same tighten, make_child and expand calls as probing every
    node afresh did (6,021, 7,586 and 1,653), but within one expansion or
    one commit no network is probed twice with the same new events and cut
    edges, and within one commit no network is extended twice."""
    real_expand, real_commit = engine.expand, engine._commit
    real_probe, real_extend = Stn.probe, Stn.extend
    calls = {"tighten": 0, "make_child": 0, "expand": 0}
    seen = {"expansion probes": 0, "commit probes": 0, "pins": 0}
    scope = {"name": None, "probed": set(), "extended": set()}

    def scoped(name, real):
        def run(*args):
            scope.update(name=name, probed=set(), extended=set())
            try:
                return real(*args)
            finally:
                scope["name"] = None
        return run

    def counted(name, real):
        def run(*args):
            calls[name] += 1
            return real(*args)
        return run

    def probe(self, n_new, edges, row_only):
        if scope["name"]:
            key = (self, n_new, tuple(probe_edges(len(self.dist), edges)[0]))
            assert key not in scope["probed"]
            scope["probed"].add(key)
            seen[scope["name"] + " probes"] += 1
        return real_probe(self, n_new, edges, row_only)

    def extend(self, n_new, edges):
        if scope["name"] == "commit":
            assert self not in scope["extended"]
            scope["extended"].add(self)
            seen["pins"] += 1
        return real_extend(self, n_new, edges)

    monkeypatch.setattr(engine, "expand", counted("expand", scoped("expansion", real_expand)))
    monkeypatch.setattr(engine, "_commit", scoped("commit", real_commit))
    monkeypatch.setattr(search, "make_child", counted("make_child", search.make_child))
    monkeypatch.setattr(search, "tighten", counted("tighten", search.tighten))
    monkeypatch.setattr(engine, "tighten", counted("tighten", engine.tighten))
    monkeypatch.setattr(Stn, "probe", probe)
    monkeypatch.setattr(Stn, "extend", extend)
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    for task in benchmark_tasks(cfg)[:10]:
        for mode in ("disp", "nodisp"):
            for speed in (6.0, 100.0):
                run_search(task, mode=mode, speed=speed,
                           dispatch_params=cfg.dispatch_params(),
                           max_expansions=cfg.max_expansions)
    assert calls == {"tighten": 6021, "make_child": 7586, "expand": 1653}
    assert min(seen.values()) > 0, seen


def _relay_task(scale=1.0):
    """Five actions and eight timed literals, at times multiplied by
    `scale`. `load` needs `gate` at its start, `haul` needs `power` over its
    interval and `lamp` needs `light` at its end, and a literal deletes each
    of them; `light` and `aux` are added first; `g3`, a goal fact, is
    deleted at 14; two literals, an add and a delete, share time 20, past
    every plan. Shipped tasks have one timed literal each."""
    return Task(
        propositions=fs("free", "gate", "power", "light", "aux", "p1", "g1", "g2", "g3"),
        actions=(
            DurativeAction("load", 1.0, cond_start=fs("free", "gate"), del_start=fs("free"),
                           add_end=fs("free", "p1")),
            DurativeAction("haul", 2.0, cond_start=fs("free", "p1"), cond_over=fs("power"),
                           del_start=fs("free"), add_end=fs("free", "g1")),
            DurativeAction("lamp", 1.5, cond_start=fs("free"), cond_end=fs("light"),
                           del_start=fs("free"), add_end=fs("free", "g2")),
            DurativeAction("tag", 0.5, cond_start=fs("free", "aux"), del_start=fs("free"),
                           add_end=fs("free", "g3")),
            DurativeAction("relight", 1.0, cond_start=fs("free"), del_start=fs("free"),
                           add_end=fs("free", "light")),
        ),
        init=fs("free", "gate", "power"),
        goal=fs("g1", "g2", "g3"),
        tils=tuple(TimedLiteral(time * scale, prop, add) for time, prop, add in (
            (0.5, "light", True), (1.0, "aux", True), (4.0, "gate", False),
            (9.0, "power", False), (12.0, "light", False), (14.0, "g3", False),
            (20.0, "gate", True), (20.0, "aux", False))),
    )


def _relay_tasks():
    return [_relay_task(1.0), _relay_task(0.5)]


def _shipped_tasks():
    """The first 10 shipped tasks."""
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    return benchmark_tasks(cfg)[:10]


def test_compiled_chain_bounds_equal_the_deletion_rescan():
    """For every count c of applied timed literals, Task.chain_bounds holds
    each action's (bound, duration) and the goal cut that rescanning the
    timed deletions at index c or later gives, bit for bit, on the relay
    tasks and on shipped ones. At c = 0 the relay task bounds `load` and
    `tag` by their start conditions, `haul` by its over-all one, `lamp` by
    its end one and the goal by `g3`."""
    for task in _relay_tasks() + _shipped_tasks():
        assert len(task.chain_bounds) == len(task.tils) + 1
        for c, (bounds, goal_cut) in enumerate(task.chain_bounds):
            assert list(bounds) == [a.name for a in task.actions]
            for a in task.actions:
                want = (reference_kernels.deadline_bound(task, a, c), a.duration)
                assert repr(bounds[a.name]) == repr(want), (c, a.name)
            assert repr(goal_cut) == repr(reference_kernels.goal_cut(task, c)), c
    bounds, goal_cut = _relay_task().chain_bounds[0]
    assert {name: bound for name, (bound, _) in bounds.items()} == {
        "load": 4.0 - _EPS, "haul": 7.0, "lamp": 10.5, "tag": 20.0 - _EPS,
        "relight": math.inf}
    assert goal_cut == 14.0 - _EPS


def test_tighten_and_relaxed_plan_match_references_with_several_timed_literals(monkeypatch):
    """While the relay tasks plan in both modes at speeds 6 and 100, every
    tighten call gives the reference's verdict and start tmaxes, memo hits
    among them, and every relaxed plan is the chain the reference builds
    from the actions' own sets."""
    real = search.relaxed_plan
    chains = []

    def checked(task, props, opens, til_count):
        got = real(task, props, opens, til_count)
        assert got == reference_kernels.relaxed_plan(task, props_of(task, props), opens,
                                                     til_count)
        chains.append(got)
        return got

    monkeypatch.setattr(search, "relaxed_plan", checked)
    verdicts = _tighten_verdicts_against_reference(
        monkeypatch, _relay_tasks(), DispatchParams(), 400)
    assert {(True, False), (True, True), (False, False)} <= set(verdicts)
    assert len(chains) > 100


def _twin_task():
    """Start siblings whose chains give the probe memo's key its hard cases.
    `x1`, `x2` and `y` need `s` at their start, which a literal deletes at
    50, so each is bounded by 50 - eps; `x1` and `x2` also share a duration,
    `y` lasts longer. `u`, `v` and `w` are unbounded, and `w` adds both
    goals that `u` and `v` add one each. At the root, starting `x1` or `x2`
    leaves chains that differ only in names, starting `y` one whose last
    bounded action is shorter than theirs, and starting `w` one whose cut
    edges equal those of starting `u` but with one action fewer."""
    goals = ("gx1", "gx2", "gy", "gu", "gv")
    return Task(
        propositions=fs("s", *goals),
        actions=(
            DurativeAction("x1", 1.0, cond_start=fs("s"), add_end=fs("gx1")),
            DurativeAction("x2", 1.0, cond_start=fs("s"), add_end=fs("gx2")),
            DurativeAction("y", 2.0, cond_start=fs("s"), add_end=fs("gy")),
            DurativeAction("u", 1.0, add_end=fs("gu")),
            DurativeAction("v", 1.0, add_end=fs("gv")),
            DurativeAction("w", 1.0, add_end=fs("gu", "gv")),
        ),
        init=fs("s"),
        goal=frozenset(goals),
        tils=(TimedLiteral(50.0, "s", False),),
    )


class _KeyLog(dict):
    """A probe memo that notes the key of its last lookup."""

    def get(self, key, default=None):
        self.last = key
        return super().get(key, default)


def test_probe_memo_key_groups_calls_as_their_cut_edges_do(monkeypatch):
    """Within each probe memo, two tighten calls share a key exactly when
    the chains they lay out give stn.probe_edges the same n_new and cut
    edges, on which the probe's answer depends: a coarser key would hand one
    node another's latest starts, a finer one would probe again. Checked
    over the first 10 shipped tasks, the relay tasks and the twin task, both
    modes, speeds 6 and 100; memos shared by several calls, and memos that
    hold several keys, both occur."""
    real = search.tighten
    # id(memo) -> (memo, the _KeyLog tighten reads in its place, (key, cut)
    # of each call); holding the memo keeps its id from being reused
    logs = {}

    def noted(task, node, base, memo):
        _, log, pairs = logs.setdefault(id(memo), (memo, _KeyLog(), []))
        assert len(base.dist) == len(node.prefix) + 1
        n_new, edges = reference_kernels.chain_edges(task, node)
        cut = (n_new, tuple(probe_edges(len(base.dist), edges)[0]))
        got = real(task, node, base, log)
        pairs.append((log.last, cut))
        return got

    monkeypatch.setattr(search, "tighten", noted)
    monkeypatch.setattr(engine, "tighten", noted)
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    for task in _shipped_tasks() + _relay_tasks() + [_twin_task()]:
        for mode in ("disp", "nodisp"):
            for speed in (6.0, 100.0):
                run_search(task, mode=mode, speed=speed,
                           dispatch_params=cfg.dispatch_params(),
                           max_expansions=cfg.max_expansions)
    seen = {"calls answered by a shared key": 0, "memos with several keys": 0}
    for _, _, pairs in logs.values():
        by_key, by_cut = {}, {}
        for key, cut in pairs:
            assert by_key.setdefault(key, cut) == cut
            assert by_cut.setdefault(cut, key) == key
        seen["calls answered by a shared key"] += len(pairs) - len(by_key)
        seen["memos with several keys"] += len(by_key) > 1
    assert min(seen.values()) > 0, seen


def test_decisions_match_per_node_references(monkeypatch):
    """Every _argmax_q, _chain_log_failure and _decide call while planning
    shipped tasks in both modes at speeds 6 and 100 returns what the
    references return, which rebuild every profile, table, suffix minimum
    and lpf value per node and per call from the reference's start tmaxes."""
    argmax, chain, decide = engine._argmax_q, engine._chain_log_failure, engine._decide
    _check_tighten_against_reference(monkeypatch, [])
    seen = {"argmax": 0, "chain": 0, "dispatch": 0, "focus": 0, None: 0}
    # the statistics of the _decide call that runs each chain
    deciding = {}

    def checked_argmax(pool, m, t_now, speed, stats, profiles):
        got = argmax(pool, m, t_now, speed, stats, profiles)
        assert got is reference_kernels.argmax_q(pool, m, t_now, speed, stats,
                                                 engine.DDA_PARAMS)
        seen["argmax"] += 1
        return got

    def checked_chain(nodes, c, t_b, t_now, speed, profiles):
        got = chain(nodes, c, t_b, t_now, speed, profiles)
        assert got == reference_kernels.chain_log_failure(nodes, c, t_b, t_now, speed,
                                                          deciding["stats"])
        seen["chain"] += 1
        return got

    def checked_decide(open_list, m, t_now, speed, stats, dparams, counts, profiles):
        deciding["stats"] = stats
        got = decide(open_list, m, t_now, speed, stats, dparams, counts, profiles)
        assert got == reference_kernels.decide(open_list, m, t_now, speed, stats,
                                               dparams, counts)
        seen[got[0]] += 1
        return got

    monkeypatch.setattr(engine, "_argmax_q", checked_argmax)
    monkeypatch.setattr(engine, "_chain_log_failure", checked_chain)
    monkeypatch.setattr(engine, "_decide", checked_decide)
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    for task in benchmark_tasks(cfg)[:10]:
        for mode in ("disp", "nodisp"):
            for speed in (6.0, 100.0):
                run_search(task, mode=mode, speed=speed,
                           dispatch_params=cfg.dispatch_params(),
                           max_expansions=cfg.max_expansions)
    assert min(seen.values()) > 0


def test_planning_prints_nothing(capfd):
    """Planning the demo task in either mode writes nothing to stdout or
    stderr and raises no warning."""
    task = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                    "configs", "demo_task.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in engine.MODES:
            for speed in (6.0, 100.0):
                run_search(task, mode=mode, speed=speed)
    assert capfd.readouterr() == ("", "")


def test_relaxed_plan_matches_set_expression_reference(monkeypatch):
    """Every relaxed plan on shipped tasks and on one self-supplying action,
    in both modes, is the chain the reference builds from the action's own
    sets."""
    real = search.relaxed_plan
    seen = {"chain": 0, "dead end": 0}

    def checked(task, props, opens, til_count):
        got = real(task, props, opens, til_count)
        assert got == reference_kernels.relaxed_plan(task, props_of(task, props), opens,
                                                     til_count)
        seen["dead end" if got is None else "chain"] += 1
        return got

    monkeypatch.setattr(search, "relaxed_plan", checked)
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    # no shipped action supplies its own over-all or end condition at its
    # start, so only this one reaches that part of the precondition
    grip = Task(
        propositions=fs("free", "held", "gripped"),
        actions=(DurativeAction(name="grip", duration=1.0, cond_start=fs("free"),
                                cond_over=fs("held"), cond_end=fs("held"),
                                add_start=fs("held"), add_end=fs("gripped")),),
        init=fs("free"),
        goal=fs("gripped"),
    )
    for task in benchmark_tasks(cfg)[:10] + [grip]:
        for mode in ("disp", "nodisp"):
            run_search(task, mode=mode, speed=cfg.speeds[0],
                       dispatch_params=cfg.dispatch_params(),
                       max_expansions=cfg.max_expansions)
    assert min(seen.values()) > 0


def test_tighten_matches_reference_when_the_goal_expires(monkeypatch):
    # no shipped task deletes a goal fact, so the chain's goal cut is only
    # reached here: "done" is lost at `expiry`, some of them too early
    tasks = []
    for expiry in (4.0, 5.2, 9.5, 30.0):
        task = micro_task()
        tils = (TimedLiteral(time=expiry, prop="done", add=False),) + task.tils
        tasks.append(Task(propositions=task.propositions, actions=task.actions,
                          init=task.init, goal=task.goal,
                          tils=tuple(sorted(tils, key=lambda lit: lit.time))))
    verdicts = _tighten_verdicts_against_reference(
        monkeypatch, tasks, DispatchParams(), 400)
    assert {got for got, _ in verdicts} == {True, False}


def test_nodisp_solves_micro_and_validates():
    task = micro_task()
    res = run_search(task, mode="nodisp", speed=100.0)
    assert res.solved
    ok, msg = validate_plan(task, res.happenings)
    assert ok, msg
    for decided, _, scheduled in res.records:
        assert decided <= scheduled + 1e-9
    assert res.completion_time < 20.0
    assert res.dispatches == 0


def test_unreachable_goal_ends_before_any_expansion():
    task = micro_task()
    task = Task(propositions=task.propositions | {"never"}, actions=task.actions,
                init=task.init, goal=task.goal | {"never"}, tils=task.tils)
    for mode in engine.MODES:
        res = run_search(task, mode=mode, speed=10.0)
        assert (res.solved, res.expansions, res.dispatches, res.records,
                res.reason) == (False, 0, 0, [], "goal unreachable")


@pytest.mark.parametrize("run,match", [
    (lambda: DispatchParams(min_subtree_expansions=0), "exploration minimums"),
    (lambda: DispatchParams(min_sim_open=0), "exploration minimums"),
    (lambda: DispatchParams(t_wait=0), "t_wait must be at least 1"),
    (lambda: run_search(micro_task(), mode="bogus"), "unknown mode 'bogus'"),
], ids=["min-subtree", "min-open", "t-wait", "mode"])
def test_search_settings_are_validated(run, match):
    with pytest.raises(ValueError, match=match):
        run()


def test_nodisp_is_deterministic():
    a = run_search(micro_task(), mode="nodisp", speed=100.0)
    b = run_search(micro_task(), mode="nodisp", speed=100.0)
    assert a.records == b.records
    assert a.expansions == b.expansions
    assert a.happenings == b.happenings


def test_nodisp_fails_when_search_time_eats_the_window():
    task = micro_task(window=7.0)
    res = run_search(task, mode="nodisp", speed=2.0, max_expansions=500)
    assert not res.solved


def test_disp_commits_early_and_beats_nodisp():
    # same window and speed the pure searcher just failed under
    task = micro_task(window=7.0)
    params = DispatchParams(dt=0.05, min_subtree_expansions=1, min_sim_open=1,
                            t_wait=2)
    res = run_search(task, mode="disp", speed=2.0, dispatch_params=params,
                     max_expansions=500)
    assert res.solved
    assert res.dispatches >= 1
    ok, msg = validate_plan(task, res.happenings)
    assert ok, msg
    for decided, _, scheduled in res.records:
        assert decided <= scheduled + 1e-9


def test_disp_records_decision_before_start():
    task = micro_task(window=8.0)
    params = DispatchParams(dt=0.05, min_subtree_expansions=2, min_sim_open=1)
    res = run_search(task, mode="disp", speed=4.0, dispatch_params=params,
                     max_expansions=2000)
    assert res.solved
    assert res.first_dispatch_time == min(t for t, k, _ in res.happenings if k == "start")


# what nodisp made of gated_task at speed 100 before it ran auto-advance
GATED_NODISP_AT_100 = PlanResult(
    solved=True, expansions=157, dispatches=0, first_dispatch_time=1.57,
    completion_time=11.574,
    records=[(1.57, "g3", 1.57), (1.57, "g0", 4.071), (1.57, "g1", 5.072),
             (1.57, "g4", 6.573), (1.57, "g2", 9.574)],
    happenings=[(1.57, "start", "g3"), (4.07, "end", "g3"),
                (4.071, "start", "g0"), (5.071, "end", "g0"),
                (5.072, "start", "g1"), (6.572, "end", "g1"),
                (6.573, "start", "g4"), (9.573, "end", "g4"),
                (9.574, "start", "g2"), (11.574, "end", "g2")],
    reason="goal")


def test_disp_that_cannot_commit_equals_nodisp(monkeypatch):
    # p_d <= 1 <= p_nd + 1, so with dt = sft = 1 disp never dispatches or
    # focuses and must reproduce nodisp run for run
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    never = DispatchParams(dt=1.0, sft=1.0, t_wait=cfg.t_wait)
    shipped = cfg.dispatch_params()
    fields = ("solved", "expansions", "dispatches", "first_dispatch_time",
              "completion_time", "happenings", "records")
    absorbed = []
    advance = engine._auto_advance

    def counting_advance(task, executed, open_list, t_now):
        before = len(executed)
        advance(task, executed, open_list, t_now)
        absorbed.append(len(executed) - before)

    monkeypatch.setattr(engine, "_auto_advance", counting_advance)
    gated = gated_task()
    for idx, task in enumerate(benchmark_tasks(cfg)[:10] + [gated]):
        for speed in (6.0, 100.0):
            disp = run_search(task, mode="disp", speed=speed, dispatch_params=never,
                              max_expansions=cfg.max_expansions)
            absorbed.clear()
            nodisp = run_search(task, mode="nodisp", speed=speed,
                                dispatch_params=shipped,
                                max_expansions=cfg.max_expansions)
            for name in fields:
                assert getattr(disp, name) == getattr(nodisp, name), (idx, speed, name)
            if task is gated:
                # nodisp absorbs the literal and still plans as it did
                # before it ran auto-advance
                assert sum(absorbed) >= 1, speed
                if speed == 100.0:
                    assert nodisp == GATED_NODISP_AT_100


def test_decision_cycle_builds_each_profile_once(monkeypatch):
    """Between two bursts the search statistics stand still, and the
    profile memo builds each h once, in one estimate_completion call per
    scoring: _decide's p_nd chain and every candidate group's chain read
    the profiles of its one call, and the next _argmax_q builds only what
    that call did not. A _decide with no pending start builds nothing."""
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    built = []
    seen = {"builds": 0, "decides": 0, "idle decides": 0}
    estimate, burst, decide = engine.estimate_completion, engine._burst, engine._decide

    def counting_estimate(hs, stats):
        assert len(set(hs)) == len(hs)
        assert not set(hs) & set(built)
        built.extend(hs)
        seen["builds"] += 1
        return estimate(hs, stats)

    def clearing_burst(*args):
        out = burst(*args)
        built.clear()
        return out

    def checked_decide(open_list, m, *args):
        builds = seen["builds"]
        out = decide(open_list, m, *args)
        assert seen["builds"] - builds <= 1
        pending = any(len(nd.prefix) > m and nd.prefix[m][0] == "start" for nd in open_list)
        if not pending:
            assert out == (None, None) and seen["builds"] == builds
            seen["idle decides"] += 1
        seen["decides"] += 1
        return out

    monkeypatch.setattr(engine, "estimate_completion", counting_estimate)
    monkeypatch.setattr(engine, "_burst", clearing_burst)
    monkeypatch.setattr(engine, "_decide", checked_decide)
    for task in benchmark_tasks(cfg)[:3]:
        run_search(task, mode="disp", speed=6.0,
                   dispatch_params=cfg.dispatch_params(),
                   max_expansions=cfg.max_expansions)
    assert min(seen.values()) > 0, seen


def test_decide_without_a_pending_start_scores_nothing(monkeypatch):
    """With no start pending at position m, _decide answers (None, None)
    before it builds a profile or runs a chain, and leaves the memo empty."""
    def refuse(*_):
        raise AssertionError("scored without a pending start")

    monkeypatch.setattr(engine, "_chain_log_failure", refuse)
    monkeypatch.setattr(engine, "estimate_completion", refuse)
    task = micro_task()
    root = make_root(task)
    children = expand(task, root, tick=1)
    assert any(nd.prefix[0][0] == "start" for nd in children)
    profiles = {}
    # the root has no step at 0; neither it nor the children have one at 1
    for open_list, m in (([root], 0), ([root] + children, 1)):
        assert engine._decide(open_list, m, 0.0, 10.0, SearchStats(), DispatchParams(),
                              {}, profiles) == (None, None)
    assert profiles == {}


def _drive_to_closures(task):
    """Expand a;b-then-ends and b;a-then-ends orders by hand, b-first owning
    the shared memo entry so the a-first closure lands in pruned_dups."""
    root = make_root(task)
    memo = {root.key(): root.prefix}
    pruned = {}
    order_b = root
    for step in (("start", "b"), ("end", "b", 0), ("start", "a"), ("end", "a", 2)):
        order_b = make_child(task, order_b, step, tick=1)
        memo[order_b.key()] = order_b.prefix
    order_a = root
    for step in (("start", "a"), ("end", "a", 0), ("start", "b")):
        order_a = make_child(task, order_a, step, tick=1)
        memo.setdefault(order_a.key(), order_a.prefix)
    closure_a = make_child(task, order_a, ("end", "b", 2), tick=1)
    assert closure_a.key() in memo
    assert memo[closure_a.key()] == order_b.prefix
    pruned.setdefault(closure_a.key(), []).append(closure_a)
    return memo, pruned, [order_b, order_a], closure_a


def test_apply_dispatch_revives_pruned_duplicate():
    task = pair_task()
    memo, pruned, open_list, closure_a = _drive_to_closures(task)
    executed, records = [], []
    _apply_dispatch(task, ("start", "a"), executed, open_list, memo, pruned,
                    t_now=0.0, records=records)
    assert executed[0][0] == ("start", "a")
    assert records == [(0.0, "a", 0.0)]
    # the b-first branch is gone and the a-first closure is searchable again
    assert all(nd.prefix[0] == ("start", "a") for nd in open_list)
    assert any(nd.prefix == closure_a.prefix for nd in open_list)
    assert memo[closure_a.key()] == closure_a.prefix


def window_task():
    # a and b in either order, then c, which needs the window that closes
    # at 5 throughout its 2 units: c must start by 3
    return Task(
        propositions=fs("window", "pa", "pb", "pc"),
        actions=(
            DurativeAction(name="a", duration=1.0, add_end=fs("pa")),
            DurativeAction(name="b", duration=1.0, add_end=fs("pb")),
            DurativeAction(name="c", duration=2.0, cond_over=fs("window"),
                           add_end=fs("pc")),
        ),
        init=fs("window"),
        goal=fs("pa", "pb", "pc"),
        tils=(TimedLiteral(time=5.0, prop="window", add=False),),
    )


_A_THEN_B = (("start", "a"), ("end", "a", 0), ("start", "b"), ("end", "b", 2))
_B_THEN_A = (("start", "b"), ("end", "b", 0), ("start", "a"), ("end", "a", 2))
_A_WITH_B = (("start", "a"), ("start", "b"), ("end", "a", 0), ("end", "b", 1))


def _dispatch_against_a_pruned_duplicate(task, dispatches, owner_steps, dup_steps):
    """Dispatch each (step, t_now) of `dispatches` in turn over one open
    node whose prefix is the dispatched steps, with the `dup_steps` closure
    pruned against the `owner_steps` closure, whose memo entry the last
    dispatch frees. Returns the duplicate, its network before the
    dispatches, and everything the dispatches touched."""
    root = make_root(task)
    memo = {root.key(): root.prefix}
    owner = root
    for step in owner_steps:
        owner = make_child(task, owner, step, tick=1)
        memo.setdefault(owner.key(), owner.prefix)
    dup = root
    for step in dup_steps:
        dup = make_child(task, dup, step, tick=1)
    assert memo[dup.key()] == owner.prefix
    pruned = {dup.key(): [dup]}
    before = (dup.stn, edges_of(dup.stn), dup.stn.dist.tobytes())
    node = root
    for step, _ in dispatches:
        node = make_child(task, node, step, tick=1)
    memo[node.key()] = node.prefix
    open_list, executed, records = [node], [], []
    for step, t_now in dispatches:
        _apply_dispatch(task, step, executed, open_list, memo, pruned,
                        t_now=t_now, records=records)
    return dup, before, open_list, executed, records, memo, pruned


@pytest.mark.parametrize("dispatches, owner_steps, dup_steps, dup_network", [
    (((("start", "a"), 0.0),), _B_THEN_A, _A_THEN_B, "revived"),
    # the pinned network holds, but c can no longer start by 3
    (((("start", "a"), 1.0),), _B_THEN_A, _A_THEN_B, "consistent"),
    # b cannot even end before the window closes
    (((("start", "a"), 4.0),), _B_THEN_A, _A_THEN_B, "inconsistent"),
    # two commits: the duplicate is revived with both pins
    (((("start", "a"), 0.0), (("start", "b"), 0.5)), _A_THEN_B, _A_WITH_B, "revived"),
    # two commits: the duplicate's pin of a holds, and that of b cannot
    # end before the window closes
    (((("start", "a"), 0.0), (("start", "b"), 4.5)), _A_THEN_B, _A_WITH_B,
     "inconsistent"),
], ids=["0.0-revived", "1.0-consistent", "4.0-inconsistent", "0.0,0.5-revived",
        "0.0,4.5-inconsistent"])
def test_pins_in_a_dispatch_match_the_grown_and_checked_reference(
        monkeypatch, dispatches, owner_steps, dup_steps, dup_network):
    """_apply_dispatch, with _commit's pins and the revival's, leaves what
    it leaves when each pin grows and checks the pinned network before
    tighten (reference_kernels.pin): the same verdicts, the same networks
    and suffix minima of start tmaxes on every node, the same open list,
    records, memo and kept duplicates. The dispatch times revive the
    duplicate, refuse it because its chain no longer fits after a consistent
    pin, and refuse it because the pin breaks its network; the last two
    keep it unrevived. After two commits the duplicate is revived with both
    pins, or kept unrevived when its pin of the first commit holds and that
    of the second breaks its network. A revived duplicate's network is its
    own grown alone with every executed happening's pin, and a refused one
    keeps the network it had before the dispatches."""
    task = window_task()
    runs = {}
    for label, pin in (("engine", engine._pin), ("reference", reference_kernels.pin)):
        verdicts = []

        def noting(task, node, edges, grow, pin=pin, verdicts=verdicts):
            out = pin(task, node, edges, grow)
            verdicts.append((node.prefix, edges, out is not None))
            return out

        monkeypatch.setattr(engine, "_pin", noting)
        with recording():
            dup, before, open_list, executed, records, memo, pruned = (
                _dispatch_against_a_pruned_duplicate(task, dispatches, owner_steps,
                                                     dup_steps))
        if label == "engine" and dup_network != "revived":
            # a refused pin leaves the duplicate's network as it was
            after = dup.stn
            assert after is before[0]
            assert (after, edges_of(after), after.dist.tobytes()) == before
        nodes = [dup] + open_list
        runs[label] = (
            verdicts,
            [(nd.prefix, edges_of(nd.stn), nd.stn.dist.tobytes(), list(nd.latest))
             for nd in nodes],
            [nd.prefix for nd in open_list],
            executed, records, memo,
            {key: [nd.prefix for nd in dups] for key, dups in pruned.items()},
        )
    assert runs["engine"] == runs["reference"]
    verdicts, networks, opened, executed, records, memo, kept = runs["engine"]
    assert executed == list(dispatches)
    assert records == [(t_now, step[1], t_now) for step, t_now in dispatches]
    dup_verdicts = [v for prefix, _, v in verdicts if prefix == dup_steps]
    assert dup_verdicts == [dup_network == "revived"]
    # the duplicate's network pinned with every executed happening, alone
    dup = make_root(task)
    for step in dup_steps:
        dup = make_child(task, dup, step, tick=1)
    edges = [e for pos, (_, when) in enumerate(executed)
             for e in ((0, pos + 1, when), (pos + 1, 0, -when))]
    pinned = reference_kernels.grow(dup.stn, 0, edges)
    if dup_network == "revived":
        assert dup_steps in opened and kept == {}
        assert pinned.consistent and networks[0][2] == pinned.dist.tobytes()
    else:
        assert dup_steps not in opened
        assert list(kept.values()) == [[dup_steps]]
        # which refusal it was: the pinned network alone
        assert pinned.consistent == (dup_network == "consistent")


def test_auto_advance_absorbs_committed_end():
    task = pair_task()
    root = make_root(task)
    child = make_child(task, root, ("start", "a"), tick=1)
    open_list = [child]
    executed, records = [], []
    memo = {child.key(): child.prefix}
    _apply_dispatch(task, ("start", "a"), executed, open_list, memo, {},
                    t_now=0.0, records=records)
    grand = make_child(task, open_list[0], ("end", "a", 0), tick=2)
    open_list = [grand]
    _auto_advance(task, executed, open_list, t_now=0.5)
    assert len(executed) == 1  # end at t=1.0 has not happened yet
    _auto_advance(task, executed, open_list, t_now=2.0)
    assert [s for s, _ in executed] == [("start", "a"), ("end", "a", 0)]
    assert executed[1][1] == pytest.approx(1.0)


def test_validator_rejects_broken_plans():
    task = micro_task()
    good = [(0.0, "start", "prep"), (2.0, "end", "prep"),
            (2.5, "start", "finish"), (5.5, "end", "finish")]
    assert validate_plan(task, good)[0]
    missing_end = good[:3]
    assert not validate_plan(task, missing_end)[0]
    too_late = [(t + 16.0, k, n) for t, k, n in good]
    assert not validate_plan(task, too_late)[0]
    unseparated = [(0.0, "start", "prep"), (2.0, "end", "prep"),
                   (2.0, "start", "finish"), (5.0, "end", "finish")]
    assert not validate_plan(task, unseparated)[0]


def test_validator_applies_an_adding_timed_literal():
    # g0 needs "open", which only the timed literal at 0.5 adds
    task = gated_task(goals=1)
    assert validate_plan(task, [(1.0, "start", "g0"), (2.0, "end", "g0")]) == (True, "ok")
    assert validate_plan(task, [(0.2, "start", "g0"), (1.2, "end", "g0")]) == (
        False, "start g0 at 0.2: missing ['open']")


def _ending_on_done(task):
    """The task with prep's end needing "done", which nothing holds then."""
    prep, finish = task.actions
    return dataclasses.replace(
        task, actions=(dataclasses.replace(prep, cond_end=fs("done")), finish))


# one broken plan per rejection of validate_plan, on micro_task(window)
# or a variant of it, and the message that names the rule
BROKEN_PLANS = {
    "unknown kind": (20.0, None, [(0.0, "pause", "prep")],
                     "unknown happening kind 'pause'"),
    "unknown action": (20.0, None, [(0.0, "start", "nap")], "unknown action 'nap'"),
    "unseparated": (20.0, None, [(0.0, "start", "prep"), (0.0, "start", "prep")],
                    "happenings at 0.0 and 0.0 are not separated"),
    "start missing a condition": (20.0, None, [(0.0, "start", "finish")],
                                  "start finish at 0.0: missing ['prepped']"),
    "end with no open interval": (20.0, None, [(0.0, "start", "prep"), (3.0, "end", "prep")],
                                  "end prep at 3.0 matches no open interval"),
    "end missing a condition": (20.0, _ending_on_done,
                                [(0.0, "start", "prep"), (2.0, "end", "prep")],
                                "end prep at 2.0: missing ['done']"),
    "broken invariant": (1.0, None, [(0.0, "start", "prep"), (2.0, "end", "prep")],
                         "invariant of prep broken at 1.0"),
    "unfinished action": (20.0, None, [(0.0, "start", "prep")],
                          "unfinished actions: ['prep']"),
    "unreached goal": (20.0, None, [(0.0, "start", "prep"), (2.0, "end", "prep")],
                       "goal not reached, missing ['done']"),
}


@pytest.mark.parametrize("rule", BROKEN_PLANS)
def test_validator_names_each_broken_rule(rule):
    window, variant, plan, message = BROKEN_PLANS[rule]
    task = micro_task(window)
    if variant is not None:
        task = variant(task)
    assert validate_plan(task, plan) == (False, message)
