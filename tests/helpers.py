"""Shared random-instance builders for the test suite.

Every builder takes an explicit numpy Generator so suites stay reproducible
from a single seed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from copeplan.cope import CopeInstance, CopeProcess, PrefixAction
from copeplan.copem import CopemInstance
from copeplan.dist import DiscreteDistribution
from copeplan.kds import KdsInstance, KdsProcess
from copeplan.stn import ORIGIN, Stn


def random_pmf(
    rng: np.random.Generator,
    tmax: int,
    max_atoms: int = 4,
    min_time: int = 0,
) -> DiscreteDistribution:
    """Random sparse pmf with support inside [min_time, tmax]."""
    hi = max(tmax, min_time)
    k = int(rng.integers(1, max_atoms + 1))
    times = rng.choice(np.arange(min_time, hi + 1), size=min(k, hi - min_time + 1), replace=False)
    weights = rng.random(len(times)) + 0.05
    weights /= weights.sum()
    return DiscreteDistribution.from_pairs(zip(times.tolist(), weights.tolist()))


def random_kds_instance(
    rng: np.random.Generator,
    max_n: int = 3,
    max_t: int = 10,
    min_time: int = 0,
) -> KdsInstance:
    n = int(rng.integers(1, max_n + 1))
    horizon = int(rng.integers(1, max_t + 1))
    procs = []
    for _ in range(n):
        profile = random_pmf(rng, horizon, min_time=min(min_time, horizon))
        deadline = int(rng.integers(0, horizon + 1))
        procs.append(KdsProcess(profile, deadline))
    return KdsInstance(procs, horizon)


ACTION_POOL = ["a", "b", "c", "d"]


def random_cope_instance(
    rng: np.random.Generator,
    max_n: int = 3,
    max_t: int = 8,
    max_prefix: int = 2,
    min_time: int = 0,
) -> CopeInstance:
    """Random prefixed-process instance; action ids overlap across processes."""
    n = int(rng.integers(1, max_n + 1))
    horizon = int(rng.integers(2, max_t + 1))
    procs = []
    for _ in range(n):
        plen = int(rng.integers(0, max_prefix + 1))
        ids = rng.choice(ACTION_POOL, size=plen, replace=False)
        prefix = tuple(
            PrefixAction(str(aid), int(rng.integers(0, 4))) for aid in ids
        )
        induced = int(rng.integers(0, horizon + 1))
        profile = random_pmf(rng, horizon, min_time=min(min_time, horizon))
        procs.append(CopeProcess(profile, prefix, induced))
    return CopeInstance(procs, horizon)


def random_network(rng: np.random.Generator, max_events: int = 30,
                   min_events: int = 2) -> Stn:
    s = Stn()
    names = [f"e{k}" for k in range(int(rng.integers(min_events, max_events)))]
    for name in names:
        s = s.add_event(name)
    pool = [ORIGIN] + names
    for _ in range(int(rng.integers(1, 4 * len(names)))):
        u, v = rng.choice(len(pool), size=2, replace=False)
        # dyadic bounds keep every path sum exact in float64
        bound = int(rng.integers(-8, 33)) / 8.0
        s = s.add_constraint(pool[u], pool[v], bound)
    return s


def random_copem_instance(
    rng: np.random.Generator,
    dispatch_budget: int,
    observation_budget: int,
    max_n: int = 3,
    max_t: int = 8,
) -> CopemInstance:
    """Random measured instance: one-action prefixes, no mass at time 0.

    Mass at 0 is excluded because measuring a process charges one unit
    against it; free time-0 completions would make extra budget look harmful.
    """
    base = random_cope_instance(rng, max_n=max_n, max_t=max_t, max_prefix=1, min_time=1)
    return CopemInstance(
        base.processes,
        dispatch_budget=dispatch_budget,
        observation_budget=observation_budget,
        horizon=base.horizon,
    )


def abstract_instances(seed: int) -> list:
    """The benchmark's seeded solve_abstract instances, [(kind, index, instance)]."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "abstract.py"
    spec = importlib.util.spec_from_file_location("perfbench_abstract", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_instances(seed)
