import math

import numpy as np
import pytest

from copeplan.dda import DdaParams, dda_rank, effective_time, lpf, q_value
from copeplan.dist import DiscreteDistribution

from helpers import random_kds_instance


def test_params_validation():
    with pytest.raises(ValueError):
        DdaParams(t_u=0)
    with pytest.raises(ValueError):
        DdaParams(gamma=0.0)
    assert DdaParams().t_u == 10
    assert DdaParams().gamma == 1.0


@pytest.mark.parametrize("score,match", [
    (lambda p: lpf(p, 3, 0, 0), "t must be >= 1"),
    (lambda p: effective_time(p, 3, -1), "t_b must be >= 0"),
], ids=["lpf-length", "effective-time-offset"])
def test_scores_refuse_out_of_range_arguments(score, match):
    with pytest.raises(ValueError, match=match):
        score(DiscreteDistribution.delta(1))


def test_lpf_values():
    # deterministic failure: s = 0, log 1 = 0
    assert lpf(DiscreteDistribution.delta(5), 2, 3, 0) == 0.0
    m = DiscreteDistribution.uniform([1, 2])
    assert lpf(m, 2, 2, 0) == pytest.approx(math.log(0.5))
    # certain success clamps at log(1e-12)
    assert lpf(DiscreteDistribution.delta(0), 5, 1, 0) == pytest.approx(
        math.log(1e-12)
    )


def test_lpf_nonincreasing_in_t():
    rng = np.random.default_rng(5)
    for _ in range(30):
        inst = random_kds_instance(rng)
        p = inst.processes[0]
        prev = 0.0
        for t in range(1, p.profile.support_max + 2):
            v = lpf(p.profile, p.deadline, t, 0)
            assert v <= prev + 1e-12
            prev = v


def test_effective_time_examples():
    assert effective_time(DiscreteDistribution.delta(2), 4, 0) == 2
    # deterministic failure: all ratios 0, tie broken to smallest
    assert effective_time(DiscreteDistribution.delta(5), 2, 0) == 1
    m = DiscreteDistribution.uniform([1, 3])
    assert effective_time(m, 3, 0) == 1


def test_effective_time_empty_window():
    # t_b at or past the support bound: nothing to allocate
    assert effective_time(DiscreteDistribution.delta(2), 4, 5) == 1


def test_q_value_examples():
    params = DdaParams(t_u=1, gamma=1.0)
    # urgent: certain success now, certain failure if delayed one unit
    q = q_value(DiscreteDistribution.delta(1), 2, params)
    assert q == pytest.approx(-math.log(1e-12), rel=1e-6)
    # deterministic failure: all LPFs 0
    assert q_value(DiscreteDistribution.delta(9), 2, params) == 0.0


def test_q_zero_when_deadline_far():
    # deadline beyond support + t_u: delay costs nothing at gamma = 1
    params = DdaParams(t_u=3, gamma=1.0)
    m = DiscreteDistribution.uniform([1, 2])
    assert q_value(m, 20, params) == pytest.approx(0.0)


def test_rank_urgent_first():
    params = DdaParams(t_u=1, gamma=1.0)
    procs = [
        (DiscreteDistribution.delta(9), 2),  # infeasible
        (DiscreteDistribution.delta(1), 2),  # urgent
        (DiscreteDistribution.delta(1), 20),  # relaxed
    ]
    assert dda_rank(procs, params)[0] == 1


def test_rank_stable_on_ties():
    params = DdaParams()
    p = (DiscreteDistribution.delta(1), 3)
    assert dda_rank([p, p, p], params) == [0, 1, 2]
    with pytest.raises(ValueError):
        dda_rank([], params)


def test_rank_permutation_invariance():
    # permuting input order never changes the multiset of (Q, identity) pairs
    rng = np.random.default_rng(8)
    params = DdaParams(t_u=2)
    for _ in range(20):
        inst = random_kds_instance(rng)
        procs = [(p.profile, p.deadline) for p in inst.processes]
        base = sorted(
            (q_value(p, d, params), i) for i, (p, d) in enumerate(procs)
        )
        perm = list(rng.permutation(len(procs)))
        permuted = [procs[j] for j in perm]
        back = sorted(
            (q_value(p, d, params), perm[i]) for i, (p, d) in enumerate(permuted)
        )
        assert np.allclose([q for q, _ in base], [q for q, _ in back])
        assert [i for _, i in base] == [i for _, i in back]
