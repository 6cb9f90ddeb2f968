import math

import numpy as np
import pytest

from copeplan import fileio
from copeplan.cope import CopeProcess, PrefixAction, solve_kidcope
from copeplan.copem import CopemInstance, MetaPolicy, solve00, solve11
from copeplan.dist import DiscreteDistribution
from copeplan.harness import (
    BenchmarkConfig,
    GeneratorParams,
    benchmark_tasks,
    generate_instance,
    plot_svg,
    rows_to_csv,
    rows_to_jsonl,
    run_benchmark,
    simulate_policy,
    solved_counts,
    witness_plan,
)
from copeplan.kds import Block, KdsInstance, KdsProcess, solve_kds_dp
from copeplan.planner import validate_plan

from helpers import (
    abstract_instances,
    random_cope_instance,
    random_copem_instance,
    random_kds_instance,
)


def test_simulate_worked_instance_is_certain():
    p1 = KdsProcess(DiscreteDistribution.from_pairs([(1, 0.5), (3, 0.5)]), 2)
    p2 = KdsProcess(DiscreteDistribution.delta(2), 3)
    inst = KdsInstance([p1, p2], 4)
    sol = solve_kds_dp(inst)
    assert sol.value == pytest.approx(1.0)
    assert simulate_policy(inst, sol, 10**4, seed=3) == 1.0


def test_simulate_half_value_instance_within_3_sigma():
    inst = KdsInstance([KdsProcess(DiscreteDistribution.from_pairs(
        [(1, 0.5), (5, 0.5)]), 3)], 6)
    sol = solve_kds_dp(inst)
    assert sol.value == pytest.approx(0.5)
    n = 10**4
    rate = simulate_policy(inst, sol, n, seed=9)
    assert abs(rate - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_simulate_matches_dp_on_random_instances():
    rng = np.random.default_rng(21)
    n = 20000
    for k in range(12):
        inst = random_kds_instance(rng)
        sol = solve_kds_dp(inst)
        rate = simulate_policy(inst, sol, n, seed=100 + k)
        sigma = math.sqrt(max(sol.value * (1 - sol.value), 1e-12) / n)
        assert abs(rate - sol.value) <= max(3 * sigma, 1e-9)


def test_simulate_initiation_function_route():
    rng = np.random.default_rng(33)
    n = 20000
    for k in range(8):
        inst = random_cope_instance(rng)
        value, f, _ = solve_kidcope(inst)
        rate = simulate_policy(inst, f, n, seed=200 + k)
        sigma = math.sqrt(max(value * (1 - value), 1e-12) / n)
        assert abs(rate - value) <= max(3 * sigma, 1e-9)


def test_simulate_meta_policy_within_3_sigma():
    rng = np.random.default_rng(55)
    n = 20000
    for k in range(8):
        inst = random_copem_instance(rng, 1, 1)
        policy = solve11(inst)
        rate = simulate_policy(inst, policy, n, seed=300 + k)
        sigma = math.sqrt(max(policy.value * (1 - policy.value), 1e-12) / n)
        assert abs(rate - policy.value) <= max(3 * sigma, 1e-9)


def test_solve11_policies_name_their_measured_process():
    """Every solve11 policy measures a process, compute-first or after its
    dispatch, so only a hand-built policy reaches _simulate_meta's branch
    for a policy that measures nothing."""
    rng = np.random.default_rng(56)
    forced = CopemInstance([CopeProcess(DiscreteDistribution.delta(1), (PrefixAction("a", 2),), 2)],
                           1, 1)
    instances = [forced] + [random_copem_instance(rng, 1, 1) for _ in range(40)]
    instances += [inst for kind, _, inst in abstract_instances(1) if kind == "copem"]
    kinds = set()
    for inst in instances:
        policy = solve11(inst)
        kind, idx = policy.first_step
        measured = idx if kind == "compute" else policy.compute_after_dispatch
        assert measured is not None
        assert sorted(policy.second_step) == [o for o, _ in inst.processes[measured].profile.pairs()]
        kinds.add(kind)
    assert kinds == {"compute", "dispatch"}


def test_simulate_meta_policy_without_a_measurement_within_3_sigma():
    """A dispatch-first policy that measures nothing replays the dispatched
    reduction's schedule: its rate matches solve00's value."""
    rng = np.random.default_rng(57)
    n = 20000
    checked = 0
    while checked < 6:
        inst = random_copem_instance(rng, 1, 1)
        value, dispatched = solve00(inst)
        if dispatched is None or not 0.0 < value < 1.0:
            continue
        policy = MetaPolicy(value, ("dispatch", dispatched), None, {})
        rate = simulate_policy(inst, policy, n, seed=400 + checked)
        sigma = math.sqrt(value * (1 - value) / n)
        assert abs(rate - value) <= 3 * sigma
        checked += 1


def test_simulate_rejects_mismatched_policy():
    inst = KdsInstance([KdsProcess(DiscreteDistribution.delta(1), 2)], 3)
    with pytest.raises(TypeError):
        simulate_policy(inst, object(), 10, seed=0)
    with pytest.raises(ValueError):
        simulate_policy(inst, solve_kds_dp(inst), 0, seed=0)


def test_generator_is_deterministic_and_validated():
    params = GeneratorParams(goals=2, tau=1.5, width=1, seed=42)
    a = generate_instance(params)
    b = generate_instance(params)
    assert a == b
    with pytest.raises(ValueError):
        GeneratorParams(tau=0.0)
    with pytest.raises(ValueError):
        GeneratorParams(goals=0)


def test_witness_plan_validates_with_slack_and_tight():
    slack = generate_instance(GeneratorParams(goals=3, tau=2.0, width=2, seed=5))
    ok, msg = validate_plan(slack, witness_plan(slack))
    assert ok, msg
    tight = generate_instance(GeneratorParams(goals=3, tau=1.0, width=2, seed=5))
    ok, msg = validate_plan(tight, witness_plan(tight))
    assert ok, msg
    # at tau 1.0 the window closes right behind the final happening
    last = max(t for t, _, _ in witness_plan(tight))
    assert tight.tils[0].time - last < 0.01


def test_benchmark_rows_shape_and_determinism():
    cfg = BenchmarkConfig(speeds=(8.0, 50.0), instances=3, seed=7,
                          generator=GeneratorParams(goals=2, width=1, tau=1.2))
    rows = run_benchmark(cfg)
    assert len(rows) == 2 * 2 * 3
    assert rows_to_csv(rows) == rows_to_csv(run_benchmark(cfg))
    header = rows_to_csv(rows).splitlines()[0]
    assert header == ("speed,mode,dt,instance_id,solved,expansions,"
                      "dispatches,first_dispatch_time,completion_time")
    assert len(rows_to_jsonl(rows).splitlines()) == len(rows)


def test_benchmark_config_round_trips():
    cfg = BenchmarkConfig(speeds=(4.0, 9.0), instances=5, dt=0.25, seed=3,
                          frontier_min_1=True,
                          generator=GeneratorParams(goals=4, tau=1.1, width=3))
    doc = cfg.to_dict()
    again = fileio.from_dict(doc)
    assert again.to_dict() == doc
    assert len(benchmark_tasks(cfg)) == 5
    bare = fileio.from_dict({"format": "bench", "version": 1, "speeds": [4.0]})
    assert bare.generator == GeneratorParams() and bare.modes == ("disp", "nodisp")


def test_solved_count_nondecreasing_in_speed_for_nodisp():
    cfg = BenchmarkConfig(speeds=(8.0, 20.0, 80.0), instances=8, seed=2,
                          generator=GeneratorParams(goals=2, width=2, tau=1.2))
    counts = solved_counts(run_benchmark(cfg))
    seq = [counts[(s, "nodisp")] for s in sorted(cfg.speeds)]
    assert seq == sorted(seq)


def test_plot_svg_has_one_series_per_mode():
    cfg = BenchmarkConfig(speeds=(8.0, 50.0), instances=2, seed=1,
                          generator=GeneratorParams(goals=2, width=1, tau=1.3))
    svg = plot_svg(run_benchmark(cfg))
    assert svg.count("<polyline") == 2
    assert "disp" in svg and "nodisp" in svg
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_ablation_flags_set_dispatch_params():
    cfg = BenchmarkConfig(speeds=(10.0,), dt=0.2, sft=0.05,
                          frontier_min_1=True, sft_1=True)
    params = cfg.dispatch_params()
    assert (params.min_subtree_expansions, params.min_sim_open) == (1, 1)
    assert params.sft == 1.0
    plain = BenchmarkConfig(speeds=(10.0,)).dispatch_params()
    assert (plain.min_subtree_expansions, plain.min_sim_open) == (10, 10)
    assert plain.sft == pytest.approx(0.05)
