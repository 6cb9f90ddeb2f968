"""Property tests at the oracles' guard limits.

The unit suites sample these invariants with fixed seeds; here hypothesis
searches for counterexamples: the KDS dynamic program against the
brute-force oracle at its largest admitted sizes, and the incremental
temporal network (both its persistent growth and probe) against the
from-scratch Floyd-Warshall recompute.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
