"""Property tests at the oracles' guard limits.

The unit suites sample these invariants with fixed seeds; here hypothesis
searches for counterexamples: the KDS dynamic program against the
brute-force oracle at its largest admitted sizes and against its loop form
bit for bit, also when families of instances share one layer memo; one DP
layer against its dense form on any next row, lazy layers against it at
every time on either side of their cell budget, and the order of the rows
that lets a layer scan only change points; the point-mass shortcut for a
measured process against the DP with that process swapped in; and the
incremental temporal network (both its persistent growth and probe)
against the from-scratch Floyd-Warshall recompute.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels
from helpers import abstract_instances
from copeplan import cope, copem, kds
from copeplan.dist import DiscreteDistribution
from copeplan.kds import (
    BRUTE_FORCE_MAX_N,
    BRUTE_FORCE_MAX_T,
    KdsInstance,
    KdsProcess,
    brute_force_kds,
    eval_schedule,
    solve_kds_dp,
)
from copeplan.stn import ORIGIN, Stn, recompute

# derandomized and without an example database, so every run draws the
# same examples and writes nothing
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _up_to(hi):
    """Any of 0..hi, with hi itself drawn about half the time."""
    return st.one_of(st.just(hi), st.integers(0, hi))


@st.composite
def kds_instances(draw):
    horizon = draw(_up_to(BRUTE_FORCE_MAX_T))
    processes = []
    for _ in range(max(1, draw(_up_to(BRUTE_FORCE_MAX_N)))):
        atoms = draw(st.dictionaries(st.integers(0, horizon), st.integers(1, 20),
                                     min_size=1, max_size=4))
        total = sum(atoms.values())
        profile = DiscreteDistribution.from_pairs((t, w / total) for t, w in atoms.items())
        processes.append(KdsProcess(profile, draw(_up_to(horizon))))
    return KdsInstance(processes, horizon), draw(st.integers(0, horizon))


@SETTINGS
@given(kds_instances())
def test_dp_matches_brute_force_at_the_guard_limits(case):
    inst, start = case
    sol = solve_kds_dp(inst, start)
    assert sol.value == pytest.approx(brute_force_kds(inst, start), abs=1e-9)
    if start == 0:
        assert eval_schedule(inst, sol.blocks) == pytest.approx(sol.value, abs=1e-9)


# the running sum of these masses ends one rounding step above 1
ABOVE_ONE = DiscreteDistribution.from_pairs([(1, 9 / 28), (2, 18 / 28), (3, 1 / 28)])
DP_MAX_T = 60


@st.composite
def dp_profiles(draw, horizon):
    """Point masses at 0 or anywhere up to past the horizon, the above-one
    sum, dense profiles (every cell positive), sums that reach exactly 1.0
    before the support ends, or up to five atoms with integer weights, some
    of them past the horizon (and so the deadline)."""
    kind = draw(st.sampled_from(("atoms", "atoms", "atoms", "zero", "above_one", "delta",
                                 "dense", "early_one")))
    if kind == "zero":
        return DiscreteDistribution.delta(0)
    if kind == "above_one":
        return ABOVE_ONE
    if kind == "delta":
        return DiscreteDistribution.delta(draw(st.integers(0, horizon + 5)))
    if kind == "dense":
        weights = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=horizon + 6))
        return DiscreteDistribution([w / sum(weights) for w in weights])
    if kind == "early_one":
        # dyadic masses sum to 1.0 exactly at b; zero cells follow up to c
        a = draw(st.integers(0, horizon + 3))
        b = draw(st.integers(a + 1, horizon + 4))
        c = draw(st.integers(b + 1, horizon + 5))
        k = draw(st.integers(1, 7))
        return DiscreteDistribution.from_pairs([(a, k / 8), (b, 1 - k / 8), (c, 0.0)])
    atoms = draw(st.dictionaries(st.integers(0, horizon + 5), st.integers(1, 1000),
                                 min_size=1, max_size=5))
    total = sum(atoms.values())
    return DiscreteDistribution.from_pairs((t, w / total) for t, w in atoms.items())


@st.composite
def dp_cases(draw):
    """(instance, start_time, row-block size); small blocks cut a layer's
    times into several row blocks."""
    horizon = draw(_up_to(DP_MAX_T))
    processes = [
        KdsProcess(draw(dp_profiles(horizon)), draw(st.one_of(st.just(0), _up_to(horizon))))
        for _ in range(draw(st.integers(0, BRUTE_FORCE_MAX_N)))
    ]
    start = draw(st.integers(0, horizon + 2))
    chunk = draw(st.one_of(st.just(kds._CHUNK), st.integers(1, 4 * (horizon + 1))))
    return KdsInstance(processes, horizon), start, chunk


SEAM_CASE = (
    KdsInstance([KdsProcess(ABOVE_ONE, 40), KdsProcess(DiscreteDistribution.delta(0), 0),
                 KdsProcess(DiscreteDistribution.uniform([2, 7, 50, 61]), DP_MAX_T)], DP_MAX_T),
    1,
    3 * (DP_MAX_T + 1),
)


def _assert_same_solution(sol, ref):
    assert sol.value == ref.value
    assert math.copysign(1.0, sol.value) == math.copysign(1.0, ref.value)
    assert sol.blocks == ref.blocks


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dp_cases())
@example(SEAM_CASE)
@pytest.mark.filterwarnings("error")
def test_dp_layers_match_the_loop_reference_bit_for_bit(case):
    assert ABOVE_ONE.cum[-1] > 1.0
    inst, start, chunk = case
    with mock.patch.object(kds, "_CHUNK", chunk):
        sol = solve_kds_dp(inst, start)
    _assert_same_solution(sol, reference_kernels.solve_kds_dp(inst, start))


@SETTINGS
@given(dp_cases())
def test_every_dp_layer_row_is_non_decreasing(case):
    """What lets a layer scan only the change points: each row the DP
    computes never decreases in time. With no budget for reads at single
    times, every layer solves its whole row."""
    inst, start, chunk = case
    with mock.patch.object(kds, "_CHUNK", chunk), mock.patch.object(kds, "_POINT_BUDGET", 0), \
            mock.patch.object(kds, "_solve_layer", wraps=kds._solve_layer) as layer:
        solve_kds_dp(inst, start)
    assert layer.call_count == len(inst.processes)
    for call in layer.call_args_list:
        out = call.args[2]
        assert (out[1:] >= out[:-1]).all()


@st.composite
def layer_cases(draw):
    """(cum, d, row, row-block size): a profile and deadline, and a next
    row that is sorted, as a layer's is, or arbitrary, so that every column
    is scanned. Rows hold -inf, both zeros and negative floats."""
    horizon = draw(_up_to(40))
    d = draw(_up_to(horizon))
    profile = draw(dp_profiles(horizon))
    cell = st.sampled_from((-math.inf, -0.0, 0.0)) | st.floats(-50.0, 0.0)
    row = np.array(draw(st.lists(cell, min_size=horizon + 1, max_size=horizon + 1)))
    if draw(st.booleans()):
        row = np.sort(row)
    chunk = draw(st.one_of(st.just(kds._CHUNK), st.integers(1, 4 * (horizon + 1))))
    return profile.cum, d, row, chunk


def _layer_case(profile, d, row):
    return profile.cum, d, np.array(row, dtype=float), kds._CHUNK


DENSE_30 = DiscreteDistribution([1 / 30] * 30)


LAYER_EXAMPLES = (
    _layer_case(DENSE_30, 0, [0.0, -1.0, -0.0]),
    _layer_case(DiscreteDistribution.delta(0), 1, [-1.0, -2.0, 0.0]),
    _layer_case(DiscreteDistribution.uniform([1, 2]), 1, [-0.0, -3.0, -1.0]),
    # support shorter than d; the last column wins on this falling row
    _layer_case(DiscreteDistribution.delta(2), 6, [0.0, -0.0, -1.0, 0.0, -0.0, -2.0, -9.0, 0.0]),
    # support longer than d, on a sorted row and on a falling one
    _layer_case(DENSE_30, 5, [-4.0, -3.0, -3.0, -1.0, -0.0, 0.0, 0.0]),
    _layer_case(DENSE_30, 5, [0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0]),
    _layer_case(ABOVE_ONE, 6, [-1.0, -math.inf, 0.0, -2.0, -0.0, -1.0, -math.inf, 0.0]),
    # mass short of 1 and support shorter than d: past its end the running
    # sum holds its last value, which the last column reads on this row
    _layer_case(DiscreteDistribution([0.1, 0.2, 0.7 - 1e-12]), 6,
                [0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -9.0]),
)


def _with_layer_examples(test):
    for case in LAYER_EXAMPLES:
        test = example(case)(test)
    return test


def _layer_over(cum, d, row):
    """A layer over the fixed row `row`, licensed when the row is sorted."""
    return kds._Layer(cum, d, kds._Row(row, bool((row[1:] >= row[:-1]).all())))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(layer_cases())
@_with_layer_examples
@pytest.mark.filterwarnings("error")
def test_layer_matches_the_dense_reference_on_any_row(case):
    cum, d, row, chunk = case
    got = np.zeros(len(row)), np.zeros(len(row), dtype=int)
    want = np.zeros(len(row)), np.zeros(len(row), dtype=int)
    with mock.patch.object(kds, "_CHUNK", chunk):
        kds._solve_layer(_layer_over(cum, d, row), row, *got)
    reference_kernels.solve_layer_dense(cum, d, row, *want)
    assert got[0].tolist() == want[0].tolist()
    assert np.signbit(got[0]).tolist() == np.signbit(want[0]).tolist()
    assert got[1].tolist() == want[1].tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(layer_cases())
@_with_layer_examples
@pytest.mark.filterwarnings("error")
def test_layer_reads_match_the_dense_reference_on_any_row(case):
    """A layer read one time at a time, never past its budget, over any
    fixed row: every column and the last one where the row is unsorted."""
    cum, d, row, _ = case
    want = np.zeros(len(row)), np.zeros(len(row), dtype=int)
    reference_kernels.solve_layer_dense(cum, d, row, *want)
    layer = _layer_over(cum, d, row)
    with mock.patch.object(kds, "_POINT_BUDGET", 1 << 20):
        got = [layer.at(time) for time in range(len(row))]
    assert layer._out is None
    assert got == want[0].tolist()
    assert np.signbit(got).tolist() == np.signbit(want[0]).tolist()
    assert [layer.choice(time) for time in range(len(row))] == want[1].tolist()


LAZY_EXAMPLES = (
    (KdsInstance([], 5), 0, kds._CHUNK),
    # start_time past the horizon
    (KdsInstance([KdsProcess(DiscreteDistribution.uniform([1, 3]), 4)], 6), 9, kds._CHUNK),
    # a deadline of 0 under and over other layers
    (KdsInstance([KdsProcess(DiscreteDistribution.delta(0), 0),
                  KdsProcess(DiscreteDistribution.uniform([2, 5]), 7),
                  KdsProcess(DENSE_30, 0)], 8), 0, kds._CHUNK),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dp_cases(), st.sampled_from((0, 1, 1 << 20)), st.booleans(), st.booleans(),
       st.sampled_from((0, 1 << 20)))
@example(LAZY_EXAMPLES[0], 1, True, True, 0)
@example(LAZY_EXAMPLES[1], 1, False, False, 1 << 20)
@example(LAZY_EXAMPLES[2], 1 << 20, False, True, 0)
@example(LAZY_EXAMPLES[2], 1, True, False, 1 << 20)
@pytest.mark.filterwarnings("error")
def test_lazy_layers_match_the_dense_layer_at_every_time(case, budget, licensed, descending,
                                                         short):
    """Each layer a solve leaves in its memo answers at(time) and
    choice(time) as the dense layer does at every time, read after the
    solve in ascending or descending time, top layer first. A budget of 0
    solves every row, 1 switches each layer to its row after about one
    read, and a large one never does. Unlicensed, the lf-order check fails
    on the deepest layer that makes it, and every layer above that one
    scans all its columns. Running sums are read with numpy or, every
    window being short, in the interpreter."""
    inst, start, chunk = case
    n, T = len(inst.processes), inst.horizon
    memo = {}
    check = (contextlib.nullcontext() if licensed else
             mock.patch.object(kds, "_non_increasing", side_effect=[False] + [True] * n))
    with mock.patch.object(kds, "_POINT_BUDGET", budget), mock.patch.object(kds, "_CHUNK", chunk), \
            mock.patch.object(kds, "_SHORT_WINDOW", short), check, \
            mock.patch.object(kds, "_solve_layer", wraps=kds._solve_layer) as rows:
        sol = solve_kds_dp(inst, start, memo=memo)
        assert rows.call_count == {0: n, 1 << 20: 0}.get(budget, rows.call_count)
        _assert_same_solution(sol, reference_kernels.solve_kds_dp(inst, start))
        # the solve adds the layers deepest first
        order = sorted(range(n), key=lambda i: (inst.processes[i].deadline, i))
        layers = list(memo.values())
        assert len(layers) == n
        # a failed check marks every layer above one that checked lf
        checked = False
        for layer in layers:
            assert layer.full == (checked and not licensed)
            checked = checked or layer.d > 0
        wanted = []
        row = np.zeros(T + 1)
        for k, layer in zip(reversed(order), layers):
            proc = inst.processes[k]
            out, best = np.zeros(T + 1), np.zeros(T + 1, dtype=int)
            reference_kernels.solve_layer_dense(proc.profile.cum, proc.deadline, row, out, best)
            wanted.append((layer, out, best))
            row = out
        times = range(T, -1, -1) if descending else range(T + 1)
        for layer, out, best in reversed(wanted):
            for time in times:
                got = layer.at(time)
                assert got == out[time]
                assert math.copysign(1.0, got) == math.copysign(1.0, out[time])
                assert layer.choice(time) == best[time]


@st.composite
def dp_families(draw):
    """([(instance, start_time)], row-block size): a first instance, then
    variants of earlier members that keep most (deadline, index) suffixes.
    A variant swaps one profile for a point mass, as a measurement does,
    moves one deadline, as a commitment does, repeats a member, or widens
    the horizon by one, which must share no layer."""
    first, _, chunk = draw(dp_cases())
    family = [first]
    for _ in range(draw(st.integers(1, 5))):
        base = draw(st.sampled_from(family))
        procs = list(base.processes)
        horizon = base.horizon
        kind = draw(st.sampled_from(("delta", "deadline", "repeat", "horizon")))
        if procs and kind in ("delta", "deadline"):
            j = draw(st.integers(0, len(procs) - 1))
            if kind == "delta":
                procs[j] = KdsProcess(DiscreteDistribution.delta(draw(st.integers(0, horizon + 2))),
                                      procs[j].deadline)
            else:
                procs[j] = KdsProcess(procs[j].profile,
                                      draw(st.one_of(st.just(0), _up_to(horizon))))
        elif kind == "horizon":
            horizon += 1
        family.append(KdsInstance(procs, horizon))
    return [(inst, draw(st.integers(0, inst.horizon + 2))) for inst in family], chunk


MEMO_SEAM_FAMILY = (
    [(SEAM_CASE[0], 1),
     (KdsInstance([KdsProcess(DiscreteDistribution.delta(2), 40)] + SEAM_CASE[0].processes[1:],
                  DP_MAX_T), 0),
     (SEAM_CASE[0], 3)],
    SEAM_CASE[2],
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dp_families())
@example(MEMO_SEAM_FAMILY)
@pytest.mark.filterwarnings("error")
def test_dp_layers_shared_through_one_memo_match_the_loop_reference(family):
    cases, chunk = family
    memo = {}
    with mock.patch.object(kds, "_CHUNK", chunk):
        for inst, start in cases:
            sol = solve_kds_dp(inst, start, memo=memo)
            _assert_same_solution(sol, reference_kernels.solve_kds_dp(inst, start))


def test_abstract_solvers_print_the_same_with_and_without_the_memo():
    def memoless(instance, start_time=0, *, memo=None):
        return kds.solve_kds_dp(instance, start_time)

    solvers = {"kidcope": cope.solve_kidcope, "copem": copem.solve11}
    cases = [(kind, inst) for kind, _, inst in abstract_instances(1) if kind in solvers]
    assert len(cases) == 48
    shared = [repr(solvers[kind](inst)) for kind, inst in cases]
    with mock.patch.object(cope, "solve_kds_dp", memoless), \
            mock.patch.object(copem, "solve_kds_dp", memoless):
        alone = [repr(solvers[kind](inst)) for kind, inst in cases]
    assert shared == alone


@st.composite
def point_mass_cases(draw):
    """(instance, j, remainings, start_time): process j anywhere in the
    deadline order, deadlines from a small pool so that they tie, start
    times up to past the horizon, and remaining times that include 0 and
    d - s, where j's success turns from sure to impossible."""
    horizon = draw(_up_to(DP_MAX_T))
    pool = sorted({d for d in (0, 1, 2, horizon) if d <= horizon}
                  | set(draw(st.lists(st.integers(0, horizon), max_size=2))))
    processes = [KdsProcess(draw(dp_profiles(horizon)), draw(st.sampled_from(pool)))
                 for _ in range(draw(st.integers(1, BRUTE_FORCE_MAX_N)))]
    j = draw(st.integers(0, len(processes) - 1))
    start = draw(st.integers(0, horizon + 2))
    edge = max(processes[j].deadline - min(start, horizon), 0)
    remainings = draw(st.lists(st.one_of(st.just(0), st.just(edge), st.integers(0, horizon + 3)),
                               min_size=1, max_size=4))
    return KdsInstance(processes, horizon), j, remainings, start


def _point_mass_case(deadlines, j, remainings, start, horizon):
    profiles = [DiscreteDistribution.uniform([1, 2 + k]) for k in range(len(deadlines))]
    return (KdsInstance([KdsProcess(p, d) for p, d in zip(profiles, deadlines)], horizon),
            j, remainings, start)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(point_mass_cases(), st.booleans())
# n = 1 with d = 0: every remaining time leaves j out
@example(_point_mass_case([0], 0, [0, 3], 0, 4), True)
# j between equal deadlines, licence off: s + r == d and past it fall back
@example(_point_mass_case([5, 5, 5], 1, [0, 4, 5], 1, 6), False)
@example(_point_mass_case([5, 5, 5], 1, [0, 4, 5], 1, 6), True)
# d in {1, 2}, j last in the order, start past the horizon
@example(_point_mass_case([1, 2], 1, [0, 1, 2], 9, 6), False)
@example(_point_mass_case([2, 1], 0, [0, 1, 2], 1, 3), True)
@pytest.mark.filterwarnings("error")
def test_point_mass_values_match_the_dp(case, licensed):
    """kds.point_mass_values equals solve_kds_dp on the instance with j's
    profile swapped for delta(r), bit for bit: 1.0 while s + r < d, else
    one solve without j for every such r, or, where the lf-order check is
    forced to fail below j, one solve with j per such r."""
    inst, j, remainings, start = case
    n, T = len(inst.processes), inst.horizon
    solved = []

    def solve(instance, start_time, *, memo):
        solved.append(len(instance.processes))
        return solve_kds_dp(instance, start_time, memo=memo)

    check = (contextlib.nullcontext() if licensed else
             mock.patch.object(kds, "_non_increasing", return_value=False))
    with check:
        got = kds.point_mass_values(inst, j, remainings, start, memo={}, solve=solve)
    s = min(start, T)
    d = inst.processes[j].deadline
    for r, value in zip(remainings, got, strict=True):
        procs = list(inst.processes)
        procs[j] = KdsProcess(DiscreteDistribution.delta(r), d)
        want = solve_kds_dp(KdsInstance(procs, T), start).value
        assert value == want
        assert math.copysign(1.0, value) == math.copysign(1.0, want)
        if s + r < d:
            assert value == 1.0
    late = sum(s + r >= d for r in remainings)
    # only a layer with a deadline checks its lf order
    below = [p for i, p in enumerate(inst.processes) if (p.deadline, i) > (d, j)]
    if not licensed and any(p.deadline > 0 for p in below):
        assert solved == [n] * late
    else:
        assert solved == [n - 1] * min(late, 1)


def test_point_mass_values_refuse_a_negative_start():
    inst = KdsInstance([KdsProcess(DiscreteDistribution.delta(1), 2)], 3)
    with pytest.raises(ValueError):
        kds.point_mass_values(inst, 0, [0], -1, memo={}, solve=solve_kds_dp)


@st.composite
def networks(draw):
    """Events e0.. and constraints between any two of them and the origin;
    dyadic bounds keep every path sum exact, so results compare with ==."""
    names = [f"e{k}" for k in range(draw(st.integers(1, 12)))]
    pool = [ORIGIN] + names
    bound = st.integers(-16, 64).map(lambda k: k / 8.0)
    edges = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool), bound)
        .filter(lambda e: e[0] != e[1]),
        max_size=3 * len(names)))
    return names, edges


@SETTINGS
@given(networks())
def test_incremental_network_matches_recompute(net):
    names, edges = net
    s = Stn()
    for name in names:
        s = s.add_event(name)
    for u, v, b in edges:
        s = s.add_constraint(u, v, b)
        assert s.solve() == recompute(s)


@SETTINGS
@given(networks(), st.integers(0, 4), st.data())
def test_probe_matches_recompute_of_the_grown_network(net, n_new, data):
    names, edges = net
    base = Stn()
    for name in names:
        base = base.add_event(name)
    for u, v, b in edges:
        base = base.add_constraint(u, v, b)
    n = len(base.events) + n_new
    index = st.integers(0, n - 1)
    extra = data.draw(st.lists(
        st.tuples(index, index, st.integers(-16, 64).map(lambda k: k / 8.0))
        .filter(lambda e: e[0] != e[1]),
        max_size=8))
    grown = base
    for k in range(n_new):
        grown = grown.add_event(f"x{k}")
    for u, v, b in extra:
        grown = grown.add_constraint(grown.events[u], grown.events[v], b)
    consistent, _, tmax = recompute(grown)
    row = base.probe(n_new, extra)
    assert (row is not None) == consistent
    if consistent:
        assert row.tolist() == [tmax[e] for e in grown.events]


@SETTINGS
@given(networks(), st.integers(0, 4), st.data())
def test_one_call_probe_matches_extend_then_probe(net, n_chain, data):
    """Probing a network with a child's edges (over its events and the
    child's) and then a chain's, in one call, equals growing the child's
    network and probing that with the chain, bit for bit."""
    names, edges = net
    base = Stn()
    for name in names:
        base = base.add_event(name)
    for u, v, b in edges:
        base = base.add_constraint(u, v, b)
    n = len(base.events)

    def edge_lists(hi, max_size):
        index = st.integers(0, hi)
        return st.lists(
            st.tuples(index, index, st.integers(-16, 64).map(lambda k: k / 8.0))
            .filter(lambda e: e[0] != e[1]),
            max_size=max_size)

    child = data.draw(edge_lists(n, 4))
    chain = data.draw(edge_lists(n + n_chain, 8))
    got = base.probe(1 + n_chain, child + chain)
    want = reference_kernels.extend_then_probe(base, "child", child, n_chain, chain)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.tobytes() == want.tobytes()
