import copy
import math
import os

import numpy as np
import pytest

from copeplan import fileio
from copeplan.dda import DdaParams, q_value
from copeplan.dist import DiscreteDistribution
from copeplan.harness import benchmark_tasks
from copeplan.planner import (
    DispatchParams,
    DurativeAction,
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
from copeplan.planner.search import SearchStats, make_child
from copeplan.stn import Stn

import reference_kernels


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
    stats.delay_sum, stats.delay_count = 20.0, 10
    root = make_root(micro_task())
    root.h = 3.0
    est = estimate_completion(root, stats)
    assert est.pairs() == [(6, 1.0)]
    root.h = 0.0
    assert estimate_completion(root, stats).pairs() == [(0, 1.0)]


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


def test_q_known_matches_per_term_reference_exactly():
    rng = np.random.default_rng(8)
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
    checked = 0
    for profile in profiles:
        support = profile.support_max
        ds = {-3, 0, 1, 2, support, support + 1, support + 5, 10**9}
        ds.update(int(x) for x in rng.integers(0, 2 * support + 12, size=6))
        for d in sorted(ds):
            for t_u in (1, 2, 4, 10, max(1, d), d + 3):
                if t_u < 1:
                    continue
                params = DdaParams(t_u=t_u, gamma=float(rng.choice([1.0, 0.9, 0.37])))
                assert q_known(profile, d, params) == reference_kernels.q_known(
                    profile, d, params), (profile, d, params)
                checked += 1
    assert checked > 3000


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


def _tighten_verdicts_against_reference(monkeypatch, tasks, dispatch_params,
                                        max_expansions):
    """Plan each task in both modes at speeds 6 and 100, checking every
    tighten call against the reference; returns the verdicts seen."""
    real = search.tighten
    verdicts = []

    def checked(task, node):
        ref = copy.copy(node)
        want = reference_kernels.tighten(task, ref)
        got = real(task, node)
        assert got == want
        assert node.start_tmaxes == ref.start_tmaxes
        verdicts.append(got)
        return got

    monkeypatch.setattr(search, "tighten", checked)
    monkeypatch.setattr(engine, "tighten", checked)
    for task in tasks:
        for mode in ("disp", "nodisp"):
            for speed in (6.0, 100.0):
                run_search(task, mode=mode, speed=speed, dispatch_params=dispatch_params,
                           max_expansions=max_expansions)
    return verdicts


def test_tighten_matches_persistent_network_reference(monkeypatch):
    """Every tighten call on shipped tasks, in both modes and at two speeds,
    gives the reference's verdict and start tmaxes bit for bit."""
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    verdicts = _tighten_verdicts_against_reference(
        monkeypatch, benchmark_tasks(cfg)[:10], cfg.dispatch_params(), cfg.max_expansions)
    assert True in verdicts and False in verdicts


def test_extend_matches_step_by_step_growth_while_planning(monkeypatch):
    """Every network the planner grows on shipped tasks, in both modes and at
    two speeds, equals the reference that adds one event or edge at a time."""
    real = Stn.extend
    seen = {"child": 0, "pin": 0, "inconsistent": 0}

    def checked(self, names, edges):
        got = real(self, names, edges)
        want = reference_kernels.grow(self, names, edges)
        assert got.consistent == want.consistent
        assert got.events == want.events
        assert got.constraints == want.constraints
        if want.consistent:
            assert np.array_equal(got.dist, want.dist)
        seen["child" if names else "pin"] += 1
        seen["inconsistent"] += not got.consistent
        return got

    monkeypatch.setattr(Stn, "extend", checked)
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    for task in benchmark_tasks(cfg)[:10]:
        for mode in ("disp", "nodisp"):
            for speed in (6.0, 100.0):
                run_search(task, mode=mode, speed=speed,
                           dispatch_params=cfg.dispatch_params(),
                           max_expansions=cfg.max_expansions)
    assert min(seen.values()) > 0


def test_relaxed_plan_matches_set_expression_reference(monkeypatch):
    """Every relaxed plan on shipped tasks and on one self-supplying action,
    in both modes, is the chain the reference builds from the action's own
    sets."""
    real = search.relaxed_plan
    seen = {"chain": 0, "dead end": 0}

    def checked(task, props, opens, til_count):
        got = real(task, props, opens, til_count)
        assert got == reference_kernels.relaxed_plan(task, props, opens, til_count)
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
    assert True in verdicts and False in verdicts


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


def test_disp_that_cannot_commit_equals_nodisp():
    # p_d <= 1 <= p_nd + 1, so with dt = sft = 1 disp never dispatches or
    # focuses and must reproduce nodisp run for run
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    never = DispatchParams(dt=1.0, sft=1.0, t_wait=cfg.t_wait)
    shipped = cfg.dispatch_params()
    fields = ("solved", "expansions", "dispatches", "first_dispatch_time",
              "completion_time", "happenings", "records")
    for idx, task in enumerate(benchmark_tasks(cfg)[:10]):
        for speed in (6.0, 100.0):
            disp = run_search(task, mode="disp", speed=speed, dispatch_params=never,
                              max_expansions=cfg.max_expansions)
            nodisp = run_search(task, mode="nodisp", speed=speed,
                                dispatch_params=shipped,
                                max_expansions=cfg.max_expansions)
            for name in fields:
                assert getattr(disp, name) == getattr(nodisp, name), (idx, speed, name)


def test_decision_cycle_builds_each_profile_once(monkeypatch):
    """Inside one _decide, p_nd's chain and every candidate group's chain
    read one profile memo, so no h has its profile built twice."""
    cfg = fileio.load(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "bench.json"))
    built = []
    repeats = []
    cycles = 0
    estimate, decide = engine.estimate_completion, engine._decide

    def counting_estimate(nd, stats):
        built.append(nd.h)
        return estimate(nd, stats)

    def checked_decide(*args, **kwargs):
        nonlocal cycles
        built.clear()
        out = decide(*args, **kwargs)
        cycles += 1
        repeats.extend(h for h in set(built) if built.count(h) > 1)
        return out

    monkeypatch.setattr(engine, "estimate_completion", counting_estimate)
    monkeypatch.setattr(engine, "_decide", checked_decide)
    for task in benchmark_tasks(cfg)[:3]:
        run_search(task, mode="disp", speed=6.0,
                   dispatch_params=cfg.dispatch_params(),
                   max_expansions=cfg.max_expansions)
    assert cycles > 0
    assert repeats == []


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
