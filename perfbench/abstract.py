"""Seeded abstract-solver instances and independent checks of solver output.

Three kinds of op, each one solver call:

- ``kds``: ``kds.solve_kds_dp`` on a fixed-deadline instance. Horizons are
  spread evenly over 50..300 so the dynamic program's T^2 growth shows.
- ``kidcope``: ``cope.solve_kidcope``, enumeration over dispatch commitments,
  one dynamic program per commitment.
- ``copem``: ``copem.solve11``, depth-2 dispatch-and-measure policy.

Every profile puts part of its mass at its process's deadline, so no
process can finish surely in time and the optimum stays below 1. Draws
without that tail land at exactly 1.0 nearly every time, where a solver
shortcut would look like a gain that real instances lack.

Everything but the profiles follows fixed ladders: horizon, process count,
deadlines, prefix actions and durations, and the number of atoms in each
profile. The seed draws where the atoms lie below the deadline and their
weights. So every seed asks for about the same work: when the seed also
drew deadlines and prefix actions, the time of a KIDCoPE op varied by 0.29
of its mean (coefficient of variation) over seeds 1 to 5, against 0.05
between runs of one seed, and the median op time spread 0.13 of its median.

Checks do not rerun a solver: each returned value is recomputed with
``kds.eval_schedule`` on the returned blocks, after ``cope.reduce_to_kds``
for the kinds with dispatch commitments.
"""

import json
from pathlib import Path

import numpy as np

from copeplan import cope, copem, kds
from copeplan.cope import (
    CopeInstance,
    CopeProcess,
    InitiationFunction,
    PrefixAction,
    reduce_to_kds,
)
from copeplan.copem import CopemInstance
from copeplan.dist import DiscreteDistribution
from copeplan.kds import KdsInstance, KdsProcess, eval_schedule

# ops per pass by kind; a pass has at least 100 ops so op_ms_p90 has ten
# samples beyond it
COUNTS = {"kds": 72, "kidcope": 32, "copem": 16}
VALUE_TOL = 1e-9
ACTION_POOL = ("a", "b", "c", "d")


def _profile(rng, reach, deadline, atoms):
    """Distinct atoms in 1..reach-1 plus one at the deadline (the failing tail)."""
    top = max(reach - 1, 1)
    low = rng.choice(np.arange(1, top + 1), size=min(atoms - 1, top), replace=False)
    weights = rng.random(len(low) + 1) + 0.1
    weights /= weights.sum()
    return DiscreteDistribution.from_pairs(
        zip([int(t) for t in low] + [deadline], weights.tolist()))


def _ladder(i, count, lo, hi):
    """The i-th of `count` sizes spread evenly over lo..hi."""
    return lo + int((hi - lo) * (i + 0.5) / count)


def _deadlines(n, horizon, low_frac):
    """The middles of n strata of low_frac*horizon..horizon."""
    span = 1.0 - low_frac
    return [int(round(horizon * (low_frac + span * (k + 0.5) / n))) for k in range(n)]


def kds_instance(rng, i, count):
    horizon = _ladder(i, count, 50, 300)
    n = 2 + i % 3
    procs = [KdsProcess(_profile(rng, d, d, 2 + (i + k) % 3), d)
             for k, d in enumerate(_deadlines(n, horizon, 0.25))]
    return KdsInstance(procs, horizon)


def _cope_processes(rng, i, horizon, n, max_prefix):
    procs = []
    for k, induced in enumerate(_deadlines(n, horizon, 1 / 3)):
        ids = [ACTION_POOL[(i + k + j) % len(ACTION_POOL)]
               for j in range((i + k) % (max_prefix + 1))]
        prefix = tuple(PrefixAction(a, 1 + (i + k + j) % 3) for j, a in enumerate(ids))
        bound = max(1, induced - sum(a.duration for a in prefix))
        procs.append(CopeProcess(_profile(rng, bound, induced, 2 + (i + k) % 2),
                                 prefix, induced))
    return procs


def kidcope_instance(rng, i, count):
    horizon = _ladder(i, count, 30, 80)
    return CopeInstance(_cope_processes(rng, i, horizon, 2 + i % 2, 2), horizon)


def copem_instance(rng, i, count):
    horizon = _ladder(i, count, 12, 30)
    procs = _cope_processes(rng, i, horizon, 2 + i % 2, 1)
    return CopemInstance(procs, dispatch_budget=1, observation_budget=1, horizon=horizon)


MAKERS = {"kds": kds_instance, "kidcope": kidcope_instance, "copem": copem_instance}


def make_instances(seed):
    """[(kind, index, instance)]: the same seed gives the same list."""
    rng = np.random.default_rng([seed, 0xC0FE])
    out = []
    for kind, count in COUNTS.items():
        for i in range(count):
            out.append((kind, i, MAKERS[kind](rng, i, count)))
    return out


# -- checks -------------------------------------------------------------------

def _measured_instance(inst, j, o):
    """inst after measuring process j at o: one unit spent, o - 1 remain."""
    procs = list(inst.processes)
    p = procs[j]
    procs[j] = CopeProcess(DiscreteDistribution.delta(max(o - 1, 0)), p.prefix,
                           p.induced_deadline)
    return CopemInstance(procs, horizon=inst.horizon)


def _dispatch(inst, i, time):
    if i is None:
        return InitiationFunction.empty()
    (action,) = inst.processes[i].prefix
    return InitiationFunction(i, {action.action_id: time})


def _schedule_gap(inst, schedule, value):
    return abs(eval_schedule(inst, schedule.blocks) - value)


def check_value(kind, inst, out):
    """(value, problem): the solver's value, and why it is wrong or None."""
    if kind == "kds":
        value = out.value
        gap = _schedule_gap(inst, out, value)
    elif kind == "kidcope":
        value, f, sol = out
        gap = _schedule_gap(reduce_to_kds(inst, f), sol, value)
    else:
        value = out.value
        first, k = out.first_step
        measured = k if first == "compute" else out.compute_after_dispatch
        expected = 0.0
        gap = 0.0
        for o, po in inst.processes[measured].profile.pairs():
            branch = out.second_step[o]
            f = _dispatch(inst, branch.dispatch, 1) if first == "compute" else _dispatch(inst, k, 0)
            reduced = reduce_to_kds(_measured_instance(inst, measured, o), f)
            got = eval_schedule(reduced, branch.schedule.blocks)
            gap = max(gap, abs(got - branch.value))
            expected += po * got
        gap = max(gap, abs(expected - value))
    if not 0.0 <= value <= 1.0:
        return value, f"value {value!r} outside [0, 1]"
    if gap > VALUE_TOL:
        return value, f"value {value!r} is off its own schedule by {gap:.3g}"
    return value, None


# -- workload -----------------------------------------------------------------

PINNED = Path(__file__).with_name("pinned_seed1.json")
PINNED_SEED = 1
SOLVERS = {
    "kds": lambda inst: kds.solve_kds_dp(inst),
    "kidcope": lambda inst: cope.solve_kidcope(inst),
    "copem": lambda inst: copem.solve11(inst),
}


class AbstractWorkload:
    """solve_abstract: one op is one solver call; work is one solve."""

    def __init__(self, seed):
        self.seed = seed
        self.ops = make_instances(seed)
        self.pinned = None
        if seed == PINNED_SEED:
            self.pinned = json.loads(PINNED.read_text(encoding="utf-8"))
        self.note = (f"values checked against eval_schedule and pinned seed-{PINNED_SEED} values"
                     if self.pinned is not None else
                     f"no pinned values for seed {seed}; values checked against eval_schedule only")

    @staticmethod
    def run(op):
        kind, _, inst = op
        # looked up per call so a tracer can wrap the module attribute
        return SOLVERS[kind](inst)

    def check(self, op, out):
        """(row, problem, solved, work) for one op's output."""
        kind, i, inst = op
        value, problem = check_value(kind, inst, out)
        key = f"{kind}/{i}"
        if problem is None and self.pinned is not None:
            pin = self.pinned[key]
            if abs(value - pin) > VALUE_TOL:
                problem = f"value {value!r} differs from pinned {pin!r}"
        if problem is not None:
            problem = f"{key}: {problem}"
        return f"{key},{value!r}", problem, problem is None and value > 0.0, 1

    def regenerate(self):
        """Draw the instances again, as set-up does; False if they differ."""
        return make_instances(self.seed) == self.ops

    def describe(self, rows):
        values = [float(r.split(",")[1]) for r in rows]
        edge = sum(v in (0.0, 1.0) for v in values)
        return {"boundary_share": edge / len(values)}
