import numpy as np
import pytest

from copeplan.dist import DiscreteDistribution
from copeplan.kds import (
    Block,
    KdsInstance,
    KdsProcess,
    brute_force_kds,
    eval_schedule,
    solve_kds_dp,
    success_prob,
)
from copeplan.planner import discretized_lognormal

from helpers import random_kds_instance, random_pmf


def test_success_prob_worked_values():
    m = DiscreteDistribution.uniform([1, 2])
    assert success_prob(m, 2, t=2, t_b=0) == pytest.approx(0.5)
    assert success_prob(m, 2, t=2, t_b=1) == pytest.approx(0.0)
    assert success_prob(DiscreteDistribution.delta(0), 5, 0, 0) == 1.0


def test_success_prob_monotone_in_t():
    rng = np.random.default_rng(3)
    for _ in range(30):
        inst = random_kds_instance(rng)
        p = inst.processes[0]
        prev = 0.0
        for t in range(0, inst.horizon + 1):
            s = success_prob(p.profile, p.deadline, t, 0)
            assert s >= prev - 1e-12
            prev = s


def test_success_prob_flat_beyond_deadline_window():
    # allocation past d - 1 - t_b adds nothing
    m = DiscreteDistribution.uniform([1, 2, 3])
    d = 3
    assert success_prob(m, d, 2, 0) == pytest.approx(success_prob(m, d, 3, 0))


def _sequential_success(probs, d, t, t_b):
    # the definition, summed term by term in index order
    total = 0.0
    for tp, m in enumerate(probs):
        if tp <= t and tp <= d - 1 - t_b:
            total += float(m)
    return total


def test_success_prob_equals_sequential_sum_exactly():
    # exact, not approximate: planner decisions compare these floats
    rng = np.random.default_rng(31)
    profiles = [discretized_lognormal(mean, cv)
                for mean in (0.4, 1.0, 2.6, 9.5, 47.0, 180.0)
                for cv in (0.0, 0.03, 0.5, 1.3, 2.0)]
    profiles += [discretized_lognormal(float(rng.uniform(0.5, 150.0)),
                                       float(rng.uniform(0.0, 2.0)))
                 for _ in range(40)]
    profiles += [random_pmf(rng, int(rng.integers(0, 30)), max_atoms=12)
                 for _ in range(40)]
    for profile in profiles:
        top = profile.support_max + 5
        for _ in range(100):
            t = int(rng.integers(0, top))
            t_b = int(rng.integers(0, top))
            d = int(rng.integers(-3, 2 * top))
            assert success_prob(profile, d, t, t_b) == _sequential_success(
                profile.probs, d, t, t_b), (profile, d, t, t_b)


def test_dp_single_process_delta():
    inst = KdsInstance([KdsProcess(DiscreteDistribution.delta(2), 2)], 4)
    assert solve_kds_dp(inst).value == pytest.approx(0.0)
    inst = KdsInstance([KdsProcess(DiscreteDistribution.delta(2), 3)], 4)
    assert solve_kds_dp(inst).value == pytest.approx(1.0)


def test_dp_worked_two_process_instance():
    p1 = KdsProcess(DiscreteDistribution.from_pairs([(1, 0.5), (3, 0.5)]), 2)
    p2 = KdsProcess(DiscreteDistribution.delta(2), 3)
    sol = solve_kds_dp(KdsInstance([p1, p2], 4))
    assert sol.value == pytest.approx(1.0)
    assert sol.blocks == [Block(1, 0, 2)]


def test_dp_value_matches_eval_schedule():
    rng = np.random.default_rng(11)
    for _ in range(100):
        inst = random_kds_instance(rng)
        sol = solve_kds_dp(inst)
        assert eval_schedule(inst, sol.blocks) == pytest.approx(sol.value, abs=1e-12)


def test_dp_blocks_are_disjoint_and_ordered():
    rng = np.random.default_rng(12)
    for _ in range(100):
        inst = random_kds_instance(rng)
        sol = solve_kds_dp(inst)
        end = 0
        for b in sol.blocks:
            assert b.start >= end
            assert b.length >= 0
            end = b.start + b.length
        assert end <= inst.horizon


def test_eval_schedule_empty_is_zero():
    inst = KdsInstance([KdsProcess(DiscreteDistribution.delta(1), 2)], 3)
    assert eval_schedule(inst, []) == 0.0


def test_eval_schedule_rejects_duplicates():
    inst = KdsInstance([KdsProcess(DiscreteDistribution.delta(1), 2)], 3)
    with pytest.raises(ValueError):
        eval_schedule(inst, [Block(0, 0, 1), Block(0, 1, 1)])


def test_brute_force_guard():
    procs = [KdsProcess(DiscreteDistribution.delta(1), 2) for _ in range(5)]
    with pytest.raises(ValueError):
        brute_force_kds(KdsInstance(procs, 3))


def test_brute_force_simple_values():
    # one process, needs 2 units, deadline 3: schedule both slots early
    inst = KdsInstance([KdsProcess(DiscreteDistribution.delta(2), 3)], 4)
    assert brute_force_kds(inst) == pytest.approx(1.0)
    inst = KdsInstance([KdsProcess(DiscreteDistribution.delta(2), 2)], 4)
    assert brute_force_kds(inst) == pytest.approx(0.0)


def test_dp_equals_brute_force_quick():
    # the acceptance suite runs the full 200-instance version
    rng = np.random.default_rng(20)
    for _ in range(40):
        inst = random_kds_instance(rng)
        assert solve_kds_dp(inst).value == pytest.approx(
            brute_force_kds(inst), abs=1e-9
        )


def test_dp_with_start_time_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(40):
        inst = random_kds_instance(rng)
        start = int(rng.integers(0, inst.horizon + 1))
        assert solve_kds_dp(inst, start).value == pytest.approx(
            brute_force_kds(inst, start), abs=1e-9
        )
