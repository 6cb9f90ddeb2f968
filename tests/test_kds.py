import tracemalloc
from unittest import mock

import numpy as np
import pytest

from copeplan import kds
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

import reference_kernels
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


def test_out_of_range_input_is_refused():
    one = DiscreteDistribution.delta(1)
    with pytest.raises(ValueError, match="horizon"):
        KdsInstance([], -1)
    with pytest.raises(ValueError, match="outside"):
        KdsInstance([KdsProcess(one, 4)], 3)
    with pytest.raises(ValueError, match=">= 0"):
        success_prob(one, 2, -1, 0)
    inst = KdsInstance([KdsProcess(one, 2)], 3)
    with pytest.raises(ValueError, match="outside"):
        eval_schedule(inst, [Block(0, 2, 2)])
    with pytest.raises(ValueError, match="start_time"):
        solve_kds_dp(inst, -1)
    with pytest.raises(ValueError, match="prefix"):
        brute_force_kds(inst, 1, (0, 0))


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


def test_dp_memo_computes_each_shared_layer_once():
    tail = [KdsProcess(DiscreteDistribution.uniform([2, 5]), 8),
            KdsProcess(DiscreteDistribution.uniform([1, 9]), 10)]
    a = KdsInstance([KdsProcess(DiscreteDistribution.uniform([1, 3]), 4)] + tail, 10)
    # a measured first process: only its own layer differs
    b = KdsInstance([KdsProcess(DiscreteDistribution.delta(2), 4)] + tail, 10)
    memo = {}
    with mock.patch.object(kds, "_Layer", wraps=kds._Layer) as layer:
        first = solve_kds_dp(a, memo=memo)
        assert layer.call_count == 3
        solve_kds_dp(b, memo=memo)
        assert layer.call_count == 4
        again = solve_kds_dp(a, memo=memo)
        assert layer.call_count == 4
        later = solve_kds_dp(a, 2, memo=memo)
        assert layer.call_count == 4
    assert len(memo) == 4
    alone = solve_kds_dp(a, 2)
    assert (again.value, again.blocks) == (first.value, first.blocks)
    assert (later.value, later.blocks) == (alone.value, alone.blocks)


def test_dp_solves_chains_deeper_than_the_interpreter_stack():
    """A read recurses one frame a layer, so a chain of 1,200 layers solves
    its rows before the first read, and still equals the loop reference."""
    inst = KdsInstance([KdsProcess(DiscreteDistribution.uniform([1, 30]), 2 + k % 9)
                        for k in range(1200)], 12)
    sol = solve_kds_dp(inst, 1)
    ref = reference_kernels.solve_kds_dp(inst, 1)
    assert 0.0 < sol.value < 1.0
    assert (sol.value, sol.blocks) == (ref.value, ref.blocks)


def _scratch_bytes(inst):
    """Peak bytes a solve allocates beyond its (n + 1) x (T + 1) tables."""
    n, T = len(inst.processes), inst.horizon
    tracemalloc.start()
    try:
        solve_kds_dp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - (2 * n + 1) * (T + 1) * 8


def test_dp_scratch_stays_within_one_row_block():
    """A layer holds at most one row block of _CHUNK cells and a few
    vectors of the horizon's length: sparse profiles at T = 20,000 are
    scanned by slices, dense ones at T = 2,000 by blocks of many rows."""
    T = 20_000
    sparse = KdsInstance([
        KdsProcess(DiscreteDistribution.from_pairs([(3, 0.5), (9_000, 0.3), (T, 0.2)]), T // 2),
        KdsProcess(DiscreteDistribution.from_pairs([(1, 0.2), (15_000, 0.3), (T, 0.5)]), T),
    ], T)
    T = 2_000
    weights = np.random.default_rng(1).random(T + 1) + 0.1
    dense = KdsInstance([KdsProcess(DiscreteDistribution(weights / weights.sum()), d)
                         for d in (T // 2, T)], T)
    for inst in (sparse, dense):
        assert _scratch_bytes(inst) <= 8 * kds._CHUNK + 32 * 8 * (inst.horizon + 1)
