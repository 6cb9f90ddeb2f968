"""Acceptance suite for the shipped artifact, one test per criterion.

Covers solver optimality against brute force, depth-2 decision quality,
budget monotonicity, the deadline-reduction equivalence, Monte Carlo
calibration, temporal-network agreement, plan validity, benchmark
determinism and its pinned golden table, and the two speed-trend studies.
Run with -v to get one pass/fail line per criterion; each test also prints
its measured numbers.
"""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from copeplan import fileio
from copeplan.cli import main as cli_main
from copeplan.cope import (
    brute_force_cope,
    enumerate_initiation_functions,
    reduce_to_kds,
    solve_kidcope,
)
from copeplan.copem import CopemInstance, expectimax_oracle, solve00, solve11
from copeplan.dist import DiscreteDistribution
from copeplan.harness import (
    benchmark_runs,
    rows_to_csv,
    run_benchmark,
    simulate_policy,
    solved_counts,
)
from copeplan.kds import Block, KdsInstance, KdsProcess, brute_force_kds, solve_kds_dp
from copeplan.planner import validate_plan

from helpers import (
    random_cope_instance,
    random_copem_instance,
    random_kds_instance,
    random_network,
    recompute,
    recording,
    solve,
)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# sha256 of `copeplan bench configs/bench.json` output (config echo + CSV)
GOLDEN_BENCH_SHA256 = "d1e2ab847b4be70c2a6d3503be46bcd4816f9c8c561b3c3291a54da00c7c65fd"
# sha256 of repr(PlanResult) of every shipped bench run, one line each in
# benchmark_runs order; it sees records, happenings, reasons and unrounded
# times, which the CSV drops or rounds
GOLDEN_RESULTS_SHA256 = "b2cfee0ce34792f68451188dc2d64574880877fa9c8224ef8163c4e57d5d8d02"


def config_path(name):
    return os.path.join(CONFIGS, name)


@pytest.fixture(scope="module")
def shipped_bench():
    """Every (row, task, PlanResult) run of the shipped benchmark config."""
    cfg = fileio.load(config_path("bench.json"))
    return cfg, list(benchmark_runs(cfg))


def test_c01_dp_matches_brute_force():
    worked = fileio.load(config_path("kds_worked.json"))
    sol = solve_kds_dp(worked)
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert sol.blocks == [Block(1, 0, 2)]
    assert abs(sol.value - brute_force_kds(worked)) <= 1e-9
    hopeless = KdsInstance([KdsProcess(DiscreteDistribution.delta(5), 2)], 6)
    assert solve_kds_dp(hopeless).value == pytest.approx(0.0, abs=1e-12)
    assert brute_force_kds(hopeless) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(101)
    for _ in range(200):
        inst = random_kds_instance(rng)
        assert abs(solve_kds_dp(inst).value - brute_force_kds(inst)) <= 1e-9
    print("PASS dp optimality: 200 random + worked instances within 1e-9")


def test_c02_depth2_solvers_match_expectimax():
    worked = fileio.load(config_path("copem_worked.json"))
    value, decision = solve00(worked)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert decision == 0  # reported as "dispatch process 1"
    assert solve11(worked).value == pytest.approx(
        expectimax_oracle(worked), abs=1e-9)
    rng = np.random.default_rng(202)
    for _ in range(110):
        inst = random_copem_instance(rng, 0, 0)
        assert abs(solve00(inst)[0] - expectimax_oracle(inst)) <= 1e-9
        inst = random_copem_instance(rng, 1, 1)
        assert abs(solve11(inst).value - expectimax_oracle(inst)) <= 1e-9
    print("PASS expectimax agreement: 220 random + worked instances within 1e-9")


def test_c03_larger_budgets_never_hurt():
    rng = np.random.default_rng(303)
    for _ in range(50):
        base = random_copem_instance(rng, 0, 0)
        full = CopemInstance(base.processes, 1, 1, horizon=base.horizon)
        v11 = solve11(full).value
        for kk in (0, 1):
            for ll in (0, 1):
                sub = CopemInstance(base.processes, kk, ll, horizon=base.horizon)
                assert v11 >= expectimax_oracle(sub) - 1e-9
    print("PASS budget monotonicity: full budget dominates all sub-budgets")


def test_c04_reduction_matches_restricted_brute_force():
    rng = np.random.default_rng(404)
    pairs = 0
    for _ in range(120):
        inst = random_cope_instance(rng)
        for f in enumerate_initiation_functions(inst):
            got = solve_kds_dp(reduce_to_kds(inst, f)).value
            assert abs(got - brute_force_cope(inst, f)) <= 1e-9
            pairs += 1
    print(f"PASS deadline reduction: {pairs} (instance, commitment) pairs within 1e-9")


def test_c05_monte_carlo_calibration():
    rng = np.random.default_rng(505)
    n = 10**5
    checked = 0

    def check(inst, policy, value, seed):
        p = min(max(value, 0.0), 1.0)
        rate = simulate_policy(inst, policy, n, seed)
        tol = max(3 * math.sqrt(p * (1 - p) / n), 1e-9)
        assert abs(rate - p) <= tol, (rate, p, tol)

    for k in range(30):
        inst = random_kds_instance(rng)
        sol = solve_kds_dp(inst)
        check(inst, sol, sol.value, 1000 + k)
        checked += 1
    for k in range(10):
        inst = random_cope_instance(rng)
        value, f, _ = solve_kidcope(inst)
        check(inst, f, value, 2000 + k)
        checked += 1
    for k in range(10):
        inst = random_copem_instance(rng, 1, 1)
        policy = solve11(inst)
        check(inst, policy, policy.value, 3000 + k)
        checked += 1
    assert checked >= 50
    print(f"PASS calibration: {checked} policies within 3 sigma at n={n}")


def test_c06_stn_incremental_matches_recompute():
    """tmin and tmax by position, incremental against Floyd-Warshall over
    the recorded edges."""
    rng = np.random.default_rng(606)
    inconsistent = 0
    for _ in range(500):
        with recording():
            s = random_network(rng)
        got = solve(s)
        want = recompute(s)
        assert got[0] == want[0]
        if not got[0]:
            inconsistent += 1
            continue
        assert got[1] == want[1]
        assert got[2] == want[2]
    assert 0 < inconsistent < 500
    print(f"PASS stn agreement: 500 networks exact ({inconsistent} inconsistent)")


def test_c07_all_emitted_plans_validate(shipped_bench):
    _, runs = shipped_bench
    solved = 0
    for row, task, res in runs:
        where = (row["speed"], row["mode"], row["instance_id"])
        for decided, _, scheduled in res.records:
            assert decided <= scheduled + 1e-12, where
        if res.solved:
            ok, msg = validate_plan(task, res.happenings)
            assert ok, f"{where}: {msg}"
            solved += 1
    assert solved > 0
    print(f"PASS plan validity: {solved}/{len(runs)} solved runs all validate, "
          "no decision after its start")


def _plan_mutants(task, plan):
    """(mutation, plan, leading words the validator may answer with) for
    one valid plan: each happening dropped; each end moved earlier, half way
    to the happening or timed literal before it; the times of each two
    successive starts of different actions swapped; each happening renamed
    to an unknown action. A validator rejects a plan at its first broken
    rule, so a mutant may fail before the changed happening, but only by a
    rule the change can break."""
    plan = sorted(plan)
    for i, (t, kind, name) in enumerate(plan):
        rest = plan[:i] + plan[i + 1:]
        if i == len(plan) - 1:
            # the last happening is an end: the rest replays as before
            assert kind == "end"
            yield "drop last", rest, {"unfinished"}
        else:
            words = {"start", "end", "invariant"} | ({"unfinished"} if kind == "end" else set())
            yield "drop", rest, words
        yield "rename", plan[:i] + [(t, kind, "no-such-action")] + plan[i + 1:], {"unknown"}
        if kind == "end":
            times = [u for u, _, _ in plan[:i]] + [lit.time for lit in task.tils]
            before = max(u for u in times if u < t)
            assert t - before > 4e-6
            moved = (before + t) / 2.0
            yield "move end", plan[:i] + [(moved, kind, name)] + plan[i + 1:], {"end"}
    starts = [i for i, (_, kind, _) in enumerate(plan) if kind == "start"]
    for i, j in zip(starts, starts[1:]):
        (ti, _, a), (tj, _, b) = plan[i], plan[j]
        if a != b:
            swapped = list(plan)
            swapped[i], swapped[j] = (tj, "start", a), (ti, "start", b)
            yield "swap starts", swapped, {"start", "end", "invariant"}


def test_c07_mutated_plans_are_rejected(shipped_bench):
    """Every solved plan at the fastest shipped speed, in both modes, stops
    validating under each single mutation, with a message that names a rule
    the mutation can break."""
    cfg, runs = shipped_bench
    speed = max(cfg.speeds)
    seen = {}
    modes = set()
    for row, task, res in runs:
        if row["speed"] != speed or not res.solved:
            continue
        modes.add(row["mode"])
        assert validate_plan(task, res.happenings) == (True, "ok")
        for mutation, plan, words in _plan_mutants(task, res.happenings):
            ok, msg = validate_plan(task, plan)
            where = (row["mode"], row["instance_id"], mutation, msg)
            assert not ok, where
            assert msg.split()[0] in words, where
            if mutation == "rename":
                assert msg == "unknown action 'no-such-action'", where
            elif mutation == "move end":
                assert msg.endswith("matches no open interval"), where
            seen[mutation] = seen.get(mutation, 0) + 1
    assert modes == set(cfg.modes)
    assert set(seen) == {"drop", "drop last", "rename", "move end", "swap starts"}, seen
    print(f"PASS metamorphic validation: {sum(seen.values())} mutants of the "
          f"speed-{speed:g} plans all rejected ({seen})")


def test_c08_benchmark_csv_byte_deterministic(tmp_path):
    argv = ["bench", config_path("bench.json"), "--instances", "8",
            "--speeds", "6,100"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--csv", str(out_a)]) == 0
    assert cli_main(argv + ["--csv", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print("PASS determinism: repeated bench runs byte-identical")


def test_c08_shipped_bench_matches_golden_digest(shipped_bench):
    cfg, runs = shipped_bench
    text = ("# config " + json.dumps(fileio.to_dict(cfg), sort_keys=True) + "\n"
            + rows_to_csv([row for row, _, _ in runs]))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_BENCH_SHA256
    print("PASS golden digest: shipped benchmark table unchanged")


def test_c08_shipped_plan_results_match_golden_digest(shipped_bench):
    _, runs = shipped_bench
    text = "".join(repr(res) + "\n" for _, _, res in runs)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_RESULTS_SHA256
    print(f"PASS golden digest: all {len(runs)} shipped plan results unchanged")


def test_c09_dispatch_advantage_trend(shipped_bench):
    cfg, runs = shipped_bench
    counts = {}
    for row, _, res in runs:
        key = (row["speed"], row["mode"])
        counts[key] = counts.get(key, 0) + int(res.solved)
    lo, hi = min(cfg.speeds), max(cfg.speeds)
    assert counts[lo, "disp"] >= 1.25 * counts[lo, "nodisp"]
    assert abs(counts[hi, "disp"] - counts[hi, "nodisp"]) <= 0.10 * cfg.instances
    table = {s: (counts[s, "disp"], counts[s, "nodisp"])
             for s in sorted(cfg.speeds)}
    print(f"PASS speed trend: (disp, nodisp) solved by speed {table}")


def test_c10_frontier_ablation_restores_nodisp():
    cfg = fileio.load(config_path("ablation_frontier.json"))
    counts = solved_counts(run_benchmark(cfg))
    hi = max(cfg.speeds)
    assert counts[hi, "nodisp"] >= counts[hi, "disp"]
    print(f"PASS frontier ablation: at speed {hi} nodisp {counts[hi, 'nodisp']} "
          f">= disp {counts[hi, 'disp']}")
