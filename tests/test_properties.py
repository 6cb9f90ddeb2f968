"""Property tests at the oracles' guard limits.

The unit suites sample these invariants with fixed seeds; here hypothesis
searches for counterexamples: the KDS dynamic program against the
brute-force oracle at its largest admitted sizes and against its loop form
bit for bit, also when families of instances share one layer memo, and the
incremental temporal network (both its persistent growth and probe) against
the from-scratch Floyd-Warshall recompute.
"""

import importlib.util
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels
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
    """Point masses at 0, the above-one sum, or up to five atoms with
    integer weights, some of them past the horizon (and so the deadline)."""
    kind = draw(st.sampled_from(("atoms", "atoms", "atoms", "zero", "above_one")))
    if kind == "zero":
        return DiscreteDistribution.delta(0)
    if kind == "above_one":
        return ABOVE_ONE
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


def _abstract_instances(seed):
    """The benchmark's seeded solve_abstract instances, [(kind, index, instance)]."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "abstract.py"
    spec = importlib.util.spec_from_file_location("perfbench_abstract", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_instances(seed)


def test_abstract_solvers_print_the_same_with_and_without_the_memo():
    def memoless(instance, start_time=0, *, memo=None):
        return kds.solve_kds_dp(instance, start_time)

    solvers = {"kidcope": cope.solve_kidcope, "copem": copem.solve11}
    cases = [(kind, inst) for kind, _, inst in _abstract_instances(1) if kind in solvers]
    assert len(cases) == 48
    shared = [repr(solvers[kind](inst)) for kind, inst in cases]
    with mock.patch.object(cope, "solve_kds_dp", memoless), \
            mock.patch.object(copem, "solve_kds_dp", memoless):
        alone = [repr(solvers[kind](inst)) for kind, inst in cases]
    assert shared == alone


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
