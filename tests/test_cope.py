import numpy as np
import pytest

from copeplan.cope import (
    CopeInstance,
    CopeProcess,
    InitiationFunction,
    PrefixAction,
    brute_force_cope,
    effective_deadlines,
    enumerate_initiation_functions,
    reduce_to_kds,
    simulate_completion_cutoff,
    solve_kidcope,
)
from copeplan.copem import CopemInstance
from copeplan.dist import DiscreteDistribution
from copeplan.kds import solve_kds_dp

from helpers import random_cope_instance


def proc(profile, prefix, induced):
    return CopeProcess(profile, tuple(prefix), induced)


def test_enumeration_skips_functions_that_validate_refuses():
    # the times are in order and finish inside ID = 4, but validate
    # refuses a negative start and a prefix with repeated action ids
    inst = CopeInstance([proc(DiscreteDistribution.delta(1), [PrefixAction("a", 1)], 4)])
    with pytest.raises(ValueError, match=">= 0"):
        InitiationFunction(0, {"a": -1}).validate(inst)
    fs = list(enumerate_initiation_functions(inst, candidate_times=[-1, 0, 2]))
    assert [(f.chosen_process, f.start_times) for f in fs] == [
        (None, {}), (0, {"a": 0}), (0, {"a": 2})]
    twice = CopeInstance([proc(DiscreteDistribution.delta(1),
                               [PrefixAction("a", 1), PrefixAction("a", 1)], 4)])
    with pytest.raises(ValueError, match="duplicate"):
        InitiationFunction(0, {"a": 0}).validate(twice)
    assert [f.chosen_process for f in enumerate_initiation_functions(twice, [0, 1])] == [None]


def test_effective_deadlines_no_dispatch():
    inst = CopeInstance(
        [
            proc(DiscreteDistribution.delta(1), [PrefixAction("a", 2)], 5),
            proc(DiscreteDistribution.delta(1), [], 4),
        ]
    )
    eff = effective_deadlines(inst, InitiationFunction.empty())
    assert eff == [3, 4]  # ID minus undispatched prefix duration


def test_effective_deadlines_own_dispatch_relaxes():
    inst = CopeInstance(
        [proc(DiscreteDistribution.delta(1), [PrefixAction("a", 2)], 5)]
    )
    f = InitiationFunction(0, {"a": 0})
    assert effective_deadlines(inst, f) == [5]


def test_effective_deadlines_inconsistent_dispatch_caps():
    inst = CopeInstance(
        [
            proc(DiscreteDistribution.delta(1), [PrefixAction("a", 1)], 8),
            proc(DiscreteDistribution.delta(1), [PrefixAction("b", 2)], 8),
        ]
    )
    f = InitiationFunction(0, {"a": 3})
    eff = effective_deadlines(inst, f)
    assert eff[0] == 8
    assert eff[1] == min(8 - 2, 3)


def test_effective_deadlines_infeasible_chain_collapses():
    # the single prefix action cannot finish by ID if dispatched at 4
    inst = CopeInstance(
        [proc(DiscreteDistribution.delta(1), [PrefixAction("a", 3)], 5)]
    )
    f = InitiationFunction(0, {"a": 4})
    assert effective_deadlines(inst, f) == [0]


def test_shared_first_action_not_invalidated():
    shared = PrefixAction("a", 2)
    inst = CopeInstance(
        [
            proc(DiscreteDistribution.delta(1), [shared], 6),
            proc(DiscreteDistribution.delta(1), [shared, PrefixAction("b", 1)], 6),
        ]
    )
    f = InitiationFunction(0, {"a": 0})
    eff = effective_deadlines(inst, f)
    assert eff[0] == 6       # fully dispatched
    assert eff[1] == 6 - 1   # b still pending, a no longer counted


def test_initiation_function_validation():
    inst = CopeInstance(
        [proc(DiscreteDistribution.delta(1), [PrefixAction("a", 2), PrefixAction("b", 1)], 9)]
    )
    InitiationFunction(0, {"a": 0, "b": 2}).validate(inst)
    with pytest.raises(ValueError):
        InitiationFunction(0, {"a": 0, "b": 1}).validate(inst)  # overlap
    with pytest.raises(ValueError):
        InitiationFunction(0, {"a": 0}).validate(inst)  # missing action
    with pytest.raises(ValueError):
        InitiationFunction(None, {"a": 0}).validate(inst)
    assert InitiationFunction.empty().validate(inst) is None


@pytest.mark.parametrize("build,match", [
    (lambda: PrefixAction("a", -1), "duration must be >= 0"),
    (lambda: proc(DiscreteDistribution.delta(1), [], -1), "induced deadline must be >= 0"),
], ids=["prefix-duration", "induced-deadline"])
def test_processes_refuse_negative_times(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("horizon,expect", [
    (-5, "horizon must be >= 0"), (-1, "horizon must be >= 0"),
    (0, 4), (3, "horizon below an induced deadline"), (4, 4), (6, 6),
])
@pytest.mark.parametrize("model", [CopeInstance, CopemInstance])
def test_cope_and_copem_share_one_horizon_rule(model, horizon, expect):
    """0 means the largest induced deadline; a negative horizon, or one
    below an induced deadline, is refused."""
    procs = [proc(DiscreteDistribution.delta(1), [PrefixAction("a", 1)], 4),
             proc(DiscreteDistribution.delta(2), [], 2)]
    if isinstance(expect, str):
        with pytest.raises(ValueError, match=expect):
            model(procs, horizon=horizon)
    else:
        assert model(procs, horizon=horizon).horizon == expect


def test_reduce_empty_prefix_passthrough():
    p = proc(DiscreteDistribution.uniform([1, 2]), [], 4)
    inst = CopeInstance([p], horizon=6)
    kinst = reduce_to_kds(inst, InitiationFunction.empty())
    assert kinst.processes[0].deadline == 4
    assert kinst.processes[0].profile == p.profile
    assert kinst.horizon == 6


def test_simulation_cutoff_matches_formula():
    rng = np.random.default_rng(31)
    for _ in range(150):
        inst = random_cope_instance(rng)
        for f in enumerate_initiation_functions(inst):
            eff = effective_deadlines(inst, f)
            executed = f.dispatch_sequence(inst)
            sim = [simulate_completion_cutoff(p, executed) for p in inst.processes]
            assert sim == eff, (inst, f)


def test_appending_inconsistent_dispatch_never_raises_deadlines():
    # one more executed action can only cap or preserve every cutoff
    rng = np.random.default_rng(32)
    for _ in range(80):
        inst = random_cope_instance(rng)
        for f in enumerate_initiation_functions(inst):
            executed = f.dispatch_sequence(inst)
            last = executed[-1][1] if executed else 0
            s = int(rng.integers(last, last + 4))
            extended = executed + [("zzz-foreign", s)]
            for p in inst.processes:
                assert simulate_completion_cutoff(p, extended) <= (
                    simulate_completion_cutoff(p, executed)
                )


def test_reduction_equals_restricted_brute_force():
    # per-f equality of the reduction value and the simulation-based oracle;
    # acceptance runs the full-width version of this
    rng = np.random.default_rng(33)
    for _ in range(40):
        inst = random_cope_instance(rng)
        for f in enumerate_initiation_functions(inst):
            lhs = solve_kds_dp(reduce_to_kds(inst, f)).value
            rhs = brute_force_cope(inst, f)
            assert lhs == pytest.approx(rhs, abs=1e-9), (inst, f)


def test_kidcope_degenerates_without_prefixes():
    rng = np.random.default_rng(34)
    for _ in range(25):
        inst = random_cope_instance(rng, max_prefix=0)
        v, f, _ = solve_kidcope(inst)
        assert f.chosen_process is None
        direct = solve_kds_dp(reduce_to_kds(inst, InitiationFunction.empty())).value
        assert v == pytest.approx(direct, abs=1e-12)


def test_kidcope_never_below_empty_function():
    rng = np.random.default_rng(35)
    for _ in range(40):
        inst = random_cope_instance(rng)
        v, _, _ = solve_kidcope(inst)
        empty = solve_kds_dp(reduce_to_kds(inst, InitiationFunction.empty())).value
        assert v >= empty - 1e-12


def test_kidcope_prefers_empty_on_ties():
    # dispatching cannot help a process with no deadline pressure
    inst = CopeInstance(
        [proc(DiscreteDistribution.delta(1), [PrefixAction("a", 1)], 8)], horizon=8
    )
    v, f, _ = solve_kidcope(inst)
    assert v == pytest.approx(1.0)
    assert f.chosen_process is None


def test_enumeration_cap():
    inst = CopeInstance(
        [
            proc(
                DiscreteDistribution.delta(1),
                [PrefixAction("a", 1), PrefixAction("b", 1)],
                9,
            )
        ]
    )
    with pytest.raises(ValueError):
        list(enumerate_initiation_functions(inst, candidate_times=range(9), cap=10))
