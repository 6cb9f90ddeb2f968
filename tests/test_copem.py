"""Dispatch-and-measure solvers against the exhaustive policy-tree oracle."""

from pathlib import Path

import numpy as np
import pytest

import reference_kernels
from copeplan import copem, fileio
from copeplan.cope import CopeInstance, CopeProcess, PrefixAction, reduce_to_kds, solve_kidcope
from copeplan.copem import (
    CopemInstance,
    MetaPolicy,
    Observation,
    expectimax_oracle,
    solve00,
    solve01,
    solve11,
)
from copeplan.dist import DiscreteDistribution
from copeplan.kds import KdsInstance, KdsProcess, solve_kds_dp

from helpers import abstract_instances, random_cope_instance, random_copem_instance, random_pmf

delta = DiscreteDistribution.delta
WORKED = Path(__file__).resolve().parent.parent / "configs" / "copem_worked.json"


def two_process_relaxation_instance(dispatch_budget=0, observation_budget=0):
    # dispatching the first process's action is the only route to value 1
    procs = [
        CopeProcess(delta(2), (PrefixAction("a", 2),), 4),
        CopeProcess(delta(3), (PrefixAction("b", 1),), 3),
    ]
    return CopemInstance(procs, dispatch_budget, observation_budget)


def test_instance_validation():
    procs = [CopeProcess(delta(1), (PrefixAction("a", 1),), 3)]
    with pytest.raises(ValueError):
        CopemInstance(procs, dispatch_budget=2)
    with pytest.raises(ValueError):
        CopemInstance(procs, observation_budget=-1)
    with pytest.raises(ValueError):
        CopemInstance(procs, measurement_model="noisy")
    with pytest.raises(ValueError):
        CopemInstance(procs, horizon=2)
    two = (PrefixAction("a", 1), PrefixAction("b", 1))
    with pytest.raises(ValueError):
        CopemInstance([CopeProcess(delta(1), two, 5)])
    with pytest.raises(ValueError):
        Observation(-1, 0)
    with pytest.raises(ValueError):
        Observation(0, -1)
    with pytest.raises(ValueError):
        MetaPolicy(1.5, ("compute", 0), None, {})


def test_solve00_worked_instance():
    inst = two_process_relaxation_instance()
    value, decision = solve00(inst)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert decision == 0
    assert expectimax_oracle(inst) == pytest.approx(1.0, abs=1e-12)


def test_solve00_matches_exhaustive_prefix_search():
    # restricting candidate starts to {0} makes both searches scan the same set
    inst = two_process_relaxation_instance()
    plain = CopeInstance(inst.processes, inst.horizon)
    v, _, _ = solve_kidcope(plain, candidate_times=[0])
    assert v == pytest.approx(solve00(inst)[0], abs=1e-12)


def test_solve00_no_prefixes_degenerates():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        horizon = int(rng.integers(2, 9))
        procs = [
            CopeProcess(random_pmf(rng, horizon), (), int(rng.integers(0, horizon + 1)))
            for _ in range(n)
        ]
        inst = CopemInstance(procs, horizon=horizon)
        value, decision = solve00(inst)
        kds = KdsInstance(
            [KdsProcess(p.profile, p.induced_deadline) for p in procs], horizon
        )
        assert decision is None
        assert value == pytest.approx(solve_kds_dp(kds).value, abs=1e-12)
        assert value == pytest.approx(expectimax_oracle(inst), abs=1e-9)


def test_solve00_certain_failure_prefers_no_dispatch():
    inst = CopemInstance([CopeProcess(delta(6), (PrefixAction("a", 1),), 3)])
    assert solve00(inst) == (0.0, None)


def test_solve01_point_mass_observation_is_free_progress():
    inst = CopemInstance([CopeProcess(delta(2), (PrefixAction("a", 1),), 4)])
    value, j = solve01(inst, dispatched=0)
    assert j == 0
    direct = solve_kds_dp(KdsInstance([KdsProcess(delta(2), 4)], 4)).value
    assert value == pytest.approx(direct, abs=1e-12)
    # same without any dispatch: deadline tightens by the pending duration
    value_nd, _ = solve01(inst, dispatched=None)
    direct_nd = solve_kds_dp(KdsInstance([KdsProcess(delta(2), 3)], 4)).value
    assert value_nd == pytest.approx(direct_nd, abs=1e-12)


def split_world_instance(dispatch_budget, observation_budget):
    # each process needs 2 units by an effective deadline of 4 once its own
    # action is dispatched; half the time it instead needs 6 and is hopeless
    pmf = DiscreteDistribution.from_pairs([(2, 0.5), (6, 0.5)])
    procs = [
        CopeProcess(pmf, (PrefixAction("a", 1),), 4),
        CopeProcess(pmf, (PrefixAction("b", 1),), 4),
    ]
    return CopemInstance(procs, dispatch_budget, observation_budget)


def test_solve01_separating_observation():
    # both plans start with the same action, so the dispatch commits neither;
    # measuring one process decides whether to keep working on it (then
    # certain) or fall back to the other (half as good)
    pmf = DiscreteDistribution.from_pairs([(2, 0.5), (6, 0.5)])
    procs = [
        CopeProcess(pmf, (PrefixAction("go", 1),), 4),
        CopeProcess(pmf, (PrefixAction("go", 1),), 4),
    ]
    inst = CopemInstance(procs, 0, 1)
    value, j = solve01(inst, dispatched=0)
    assert j == 0
    assert value == pytest.approx(0.75, abs=1e-12)
    # open loop can hedge only one of the two worlds
    assert solve00(inst)[0] == pytest.approx(0.5, abs=1e-12)


def test_solve11_measure_first_beats_committing():
    inst = split_world_instance(1, 1)
    policy = solve11(inst)
    assert policy.first_step == ("compute", 0)
    assert policy.value == pytest.approx(0.75, abs=1e-12)
    assert policy.value == pytest.approx(expectimax_oracle(inst), abs=1e-9)
    # committing first wastes the other process's option value
    assert policy.branch_values[("dispatch", 0)] == pytest.approx(0.5, abs=1e-12)


def test_solve11_forced_immediate_dispatch():
    # a 2-unit action against a deadline of 2 cannot wait for a measurement
    inst = CopemInstance(
        [CopeProcess(delta(1), (PrefixAction("a", 2),), 2)],
        dispatch_budget=1,
        observation_budget=1,
    )
    policy = solve11(inst)
    assert policy.first_step == ("dispatch", 0)
    assert policy.compute_after_dispatch == 0
    assert policy.value == pytest.approx(1.0, abs=1e-12)
    assert expectimax_oracle(inst) == pytest.approx(1.0, abs=1e-9)


def test_solve11_point_mass_profiles_match_immediate_decision():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        horizon = int(rng.integers(2, 9))
        procs = []
        for k in range(n):
            t = int(rng.integers(1, horizon + 1))
            prefix = (
                (PrefixAction("abc"[k], int(rng.integers(0, 3))),)
                if rng.random() < 0.7
                else ()
            )
            procs.append(CopeProcess(delta(t), prefix, int(rng.integers(0, horizon + 1))))
        inst = CopemInstance(procs, 1, 1, horizon=horizon)
        assert solve11(inst).value == pytest.approx(solve00(inst)[0], abs=1e-9)


def test_solvers_match_oracle_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(40):
        inst = random_copem_instance(rng, 0, 0)
        assert solve00(inst)[0] == pytest.approx(expectimax_oracle(inst), abs=1e-9)
        inst = random_copem_instance(rng, 1, 1)
        assert solve11(inst).value == pytest.approx(expectimax_oracle(inst), abs=1e-9)


def test_larger_budgets_never_hurt():
    rng = np.random.default_rng(5)
    for _ in range(25):
        base = random_copem_instance(rng, 0, 0)
        v = {}
        for kk in (0, 1):
            for ll in (0, 1):
                inst = CopemInstance(base.processes, kk, ll, horizon=base.horizon)
                v[kk, ll] = expectimax_oracle(inst)
        assert v[1, 1] >= v[1, 0] - 1e-9
        assert v[1, 1] >= v[0, 1] - 1e-9
        assert v[1, 0] >= v[0, 0] - 1e-9
        assert v[0, 1] >= v[0, 0] - 1e-9


def test_branch_values_are_expectation_consistent():
    rng = np.random.default_rng(31)
    forced = CopemInstance(
        [CopeProcess(delta(1), (PrefixAction("a", 2),), 2)], 1, 1
    )
    instances = [forced] + [random_copem_instance(rng, 1, 1) for _ in range(30)]
    seen_dispatch = 0
    for inst in instances:
        policy = solve11(inst)
        kind, idx = policy.first_step
        measured = idx if kind == "compute" else policy.compute_after_dispatch
        profile = inst.processes[measured].profile
        total = sum(po * policy.second_step[o].value for o, po in profile.pairs())
        assert total == pytest.approx(policy.branch_values[policy.first_step], abs=1e-12)
        assert max(policy.branch_values.values()) == pytest.approx(
            policy.value, abs=1e-12
        )
        if kind == "dispatch":
            seen_dispatch += 1
            best_compute = max(
                val for key, val in policy.branch_values.items() if key[0] == "compute"
            )
            # dispatching first is chosen only on strict improvement
            assert policy.branch_values[policy.first_step] > best_compute
    assert seen_dispatch > 0


def test_decision_count_scales_quadratically():
    """solve11 values its branches with one DP per (dispatch option,
    measured process), however many observations the measured profile has,
    then makes one DP per observation of the winner's measured process for
    its schedules."""
    calls = {"n": 0}
    real = copem.solve_kds_dp

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    def instance(n, support, deadline):
        return CopemInstance([
            CopeProcess(
                DiscreteDistribution.uniform(range(1, support + 1)),
                (PrefixAction("abc"[k], 1),),
                deadline,
            )
            for k in range(n)
        ], 1, 1)

    copem.solve_kds_dp = counting
    try:
        for n in (1, 2, 3):
            calls["n"] = 0
            solve11(instance(n, 4, 6))
            assert calls["n"] <= 3 * (n + 1) ** 2 * 4
            # at deadline 4 the longest observation of every process leaves
            # it no time, so every (option, measured process) needs its DP
            valued = {}
            for support in (4, 8):
                calls["n"] = 0
                policy = solve11(instance(n, support, 4))
                assert len(policy.second_step) == support
                valued[support] = calls["n"] - support
            # n + 1 options after a first-slot measurement, n dispatches
            # before one, n processes to measure in each
            assert valued[4] == valued[8] == n * (2 * n + 1)
    finally:
        copem.solve_kds_dp = real


def test_oracle_size_guards():
    rng = np.random.default_rng(3)
    big = [CopeProcess(random_pmf(rng, 4, min_time=1), (), 4) for _ in range(4)]
    with pytest.raises(ValueError):
        expectimax_oracle(CopemInstance(big))
    wide = [CopeProcess(DiscreteDistribution.uniform(range(1, 11)), (), 8)]
    with pytest.raises(ValueError):
        expectimax_oracle(CopemInstance(wide, horizon=8))
    ok = CopemInstance([CopeProcess(delta(1), (), 2)], 1, 1)
    with pytest.raises(ValueError):
        expectimax_oracle(ok, max_depth=1)


def _outcome(solver, *args):
    """repr of what solver(*args) returns or raises."""
    try:
        return repr(solver(*args))
    except Exception as exc:  # any error: the reference must raise the same
        return "raised " + repr(exc)


def test_copem_solvers_match_the_per_observation_references():
    """solve11, solve01 (every dispatch, valid or not) and solve00 (start
    times 0, 1 and 2) print exactly what the references print, which solve
    one DP per observation: on the benchmark's seed-1 kidcope and copem
    instances (two-action prefixes raise) and on random instances, with
    and without mass at time 0."""
    cases = [inst for kind, _, inst in abstract_instances(1) if kind in ("kidcope", "copem")]
    assert len(cases) == 48
    rng = np.random.default_rng(17)
    cases += [random_copem_instance(rng, 1, 1) for _ in range(30)]
    cases += [random_cope_instance(rng, max_prefix=1) for _ in range(30)]
    raised = 0
    for inst in cases:
        got = _outcome(solve11, inst)
        assert got == _outcome(reference_kernels.solve11, inst)
        raised += got.startswith("raised ")
        for dispatched in [None, *range(len(inst.processes))]:
            assert (_outcome(solve01, inst, dispatched)
                    == _outcome(reference_kernels.solve01, inst, dispatched))
        for start in (0, 1, 2):
            assert _outcome(solve00, inst, start) == _outcome(reference_kernels.solve00, inst, start)
    assert 0 < raised < len(cases) // 2


def test_abstract_solvers_print_nothing(capfd):
    """The benchmark's last stdout line is its result: no solver writes to
    stdout or stderr."""
    inst = fileio.load(WORKED)
    kinst = reduce_to_kds(inst, copem._dispatch_f(inst, None, 0))
    solve_kds_dp(kinst)
    solve_kidcope(CopeInstance(inst.processes, inst.horizon))
    solve00(inst)
    solve01(inst, None)
    solve01(inst, 0)
    solve11(inst)
    assert capfd.readouterr() == ("", "")
