"""Dispatch-and-measure decisions over prefix processes.

Extends the prefix model with two small budgets: a real-world action may be
dispatched up to time K, and a measurement of one process's remaining
computation time may be received up to time L (both in {0, 1}). A measurement
occupies one computation slot; the observed process's profile collapses to a
point mass on the remaining time, one unit already spent.

Time accounting convention: a measurement of process j started at time 0
returns o, the total computation j needs, and the successor state at time 1
carries profile delta(max(o - 1, 0)). A zero remaining time at time 1 counts
as success only if the effective deadline exceeds 1. This charges the
measured unit against any mass a profile puts at 0; solvers and the
exhaustive oracle share the convention, so equivalence checks are internal
consistency checks. Instances whose profiles put no mass at 0 are unaffected.

A perfect measurement leaves the measured process j a point mass delta(r),
r = max(o - 1, 0), so each observation branch is settled without a DP of
its own (`kds.point_mass_values` gives the proof). From s = min(1, T), with
d j's deadline in the branch's reduction:

- if s + r < d, j surely completes in time, and the branch's value is
  exactly 1.0;
- otherwise j can no longer complete in time, and the branch's value is
  that of the reduction without j, bit for bit. One DP per (dispatch
  option, measured process) serves all of that process's observations.

The second case is licensed by the DP layer below j being `ordered` (every
log failure sequence below it non-increasing, which the layer checks once);
where that fails, the branch is solved with j in it. Only values are
computed this way. `solve11` builds schedules last, for the winning first
step's table only: one DP per observation of its measured process.
`solve01` returns no schedules and builds none.
"""

from dataclasses import dataclass, field

from .cope import (
    InitiationFunction,
    reduce_to_kds,
    simulate_completion_cutoff,
)
from .dist import DiscreteDistribution
from .kds import (
    BRUTE_FORCE_MAX_T,
    KdsInstance,
    KdsProcess,
    KdsSolution,
    brute_force_kds,
    point_mass_values,
    solve_kds_dp,
)

ORACLE_MAX_N = 3
ORACLE_MAX_T = 8
ORACLE_MAX_SUPPORT = 8


@dataclass
class CopemInstance:
    """Prefix processes plus dispatch budget K and observation budget L.

    K bounds the last time a dispatch may be issued, L the last time an
    observation may arrive. Only {0, 1} is supported; a dispatch at time 0 is
    allowed even when K = 0.
    """

    processes: list
    dispatch_budget: int = 0
    observation_budget: int = 0
    measurement_model: str = "perfect"
    horizon: int = 0

    def __post_init__(self):
        if self.dispatch_budget not in (0, 1):
            raise ValueError("dispatch budget must be 0 or 1")
        if self.observation_budget not in (0, 1):
            raise ValueError("observation budget must be 0 or 1")
        if self.measurement_model != "perfect":
            raise ValueError(f"unsupported measurement model {self.measurement_model!r}")
        for p in self.processes:
            if len(p.prefix) > 1:
                raise ValueError("at most one prefix action per process is supported")
        max_id = max((p.induced_deadline for p in self.processes), default=0)
        if self.horizon == 0:
            self.horizon = max(max_id, 1)
        elif self.horizon < max_id:
            raise ValueError("horizon below an induced deadline")


@dataclass(frozen=True)
class Observation:
    """Remaining computation time reported for one process."""

    process_index: int
    remaining_time: int

    def __post_init__(self):
        if self.process_index < 0:
            raise ValueError("process index must be nonnegative")
        if self.remaining_time < 0:
            raise ValueError("remaining time must be nonnegative")


@dataclass(frozen=True)
class BranchOutcome:
    """Follow-up for one observation value: continuation value and schedule."""

    value: float
    dispatch: int | None
    schedule: KdsSolution


@dataclass
class MetaPolicy:
    """Depth-2 policy: a first step, then a per-observation follow-up table.

    first_step is ("compute", j) or ("dispatch", i). For a dispatch-first
    policy, compute_after_dispatch names the measurement taken during the
    first slot. second_step maps each observable remaining time to the
    continuation chosen for it. branch_values records the value of every
    candidate first step considered.
    """

    value: float
    first_step: tuple
    compute_after_dispatch: int | None
    second_step: dict[int, BranchOutcome]
    branch_values: dict[tuple, float] = field(default_factory=dict)

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1 + 1e-9:
            raise ValueError("policy value outside [0, 1]")


def _posterior(o: int) -> DiscreteDistribution:
    # one unit consumed by the measurement itself
    return DiscreteDistribution.delta(max(o - 1, 0))


def _with_profile(kinst: KdsInstance, j: int, profile: DiscreteDistribution) -> KdsInstance:
    """kinst with process j's profile swapped: its deadline stays, since
    effective deadlines depend on the prefixes and the dispatch only."""
    procs = list(kinst.processes)
    procs[j] = KdsProcess(profile, procs[j].deadline)
    return KdsInstance(procs, kinst.horizon)


def _dispatch_f(inst, i: int | None, time: int) -> InitiationFunction:
    if i is None:
        return InitiationFunction.empty()
    (action,) = inst.processes[i].prefix
    return InitiationFunction(chosen_process=i, start_times={action.action_id: time})


def _check_prefixes(inst) -> None:
    """Refuse what CopemInstance refuses: the branches dispatch whole
    one-action prefixes."""
    CopemInstance(list(inst.processes), horizon=inst.horizon)


def _dispatch_options(inst, time: int) -> list[tuple[int | None, KdsInstance]]:
    """The KDS reduction of not dispatching (None), then of dispatching
    each process with a prefix action at `time`."""
    return [
        (i, reduce_to_kds(inst, _dispatch_f(inst, i, time)))
        for i in [None] + [k for k, p in enumerate(inst.processes) if p.prefix]
    ]


def _best_option(options, start_time: int, memo: dict):
    """(i, value, solution) of the best option; ties keep the earliest."""
    best = None
    for i, kinst in options:
        sol = solve_kds_dp(kinst, start_time, memo=memo)
        if best is None or sol.value > best[1]:
            best = (i, sol.value, sol)
    return best


def solve00(inst, start_time: int = 0) -> tuple[float, int | None]:
    """Best single dispatch-or-not decision at start_time, no observations.

    Evaluates the no-dispatch reduction and one reduction per process with a
    prefix action (dispatched at start_time), each solved exactly, and keeps
    the argmax. Ties prefer not dispatching, then the lowest process index.
    """
    best_i, best_v, _ = _best_option(_dispatch_options(inst, start_time), start_time, {})
    return best_v, best_i


def solve01(inst, dispatched: int | None) -> tuple[float, int | None]:
    """Best measurement when the dispatch decision is already fixed at time 0.

    For each process j, weighs the exact continuation value over j's profile
    support with the measured unit consumed; returns the best expected value
    and the measured process (lowest index on ties). With no processes the
    value is 0 and no measurement is taken.

    Each observation's value comes from `point_mass_values`: 1.0 or the
    value without j, solved once per j (see the module docstring). No
    schedule is returned, so none is built.
    """
    if not inst.processes:
        return 0.0, None
    f = _dispatch_f(inst, dispatched, 0)
    _check_prefixes(inst)
    kinst = reduce_to_kds(inst, f)
    value, j, _ = _best_measurement(kinst, {}, _supports(inst))
    return value, j


def _supports(inst) -> list[list[tuple[int, float]]]:
    """profile.pairs() of each process: the observations (o, probability)
    a measurement of it may return."""
    return [p.profile.pairs() for p in inst.processes]


def _observed(kinst: KdsInstance, j: int, pairs: list, memo: dict) -> list[float]:
    """The value from time 1 after each observation o in `pairs` of process
    j, whose profile becomes _posterior(o)."""
    return point_mass_values(kinst, j, [max(o - 1, 0) for o, _ in pairs], 1,
                             memo=memo, solve=solve_kds_dp)


def _best_measurement(kinst: KdsInstance, memo: dict, supports: list):
    """(value, j, values) of measuring the best process j during kinst's
    first slot, with the value after each observation in supports[j];
    ties keep the lowest index."""
    best = (-1.0, None, None)
    for j, pairs in enumerate(supports):
        values = _observed(kinst, j, pairs, memo)
        total = 0.0
        for (_, po), v in zip(pairs, values):
            total += po * v
        if total > best[0]:
            best = (total, j, values)
    return best


def solve11(inst) -> MetaPolicy:
    """Depth-2 optimum with one dispatch and one observation available.

    Compute-first branches measure j during the first slot, then make the
    dispatch decision at time 1 per observed value. Dispatch-first branches
    commit process i's action at time 0 and measure during the same slot.
    Scans compute branches in index order, then dispatch branches; a later
    branch replaces the incumbent only on strict improvement, so ties prefer
    measuring first and lower indices.

    Each dispatch option is reduced to KDS once. Every observation's value
    comes from `point_mass_values`: 1.0, or the value of the option without
    the measured process, which one DP per (option, measured process)
    serves for all of its observations (see the module docstring). The
    schedules are built last, for the winning first step's table only: one
    DP per observation of its measured process, each under the dispatch
    that observation chose. One layer memo serves every DP of the call.
    """
    if not inst.processes:
        raise ValueError("empty instance")
    _check_prefixes(inst)
    memo: dict = {}
    branch_values: dict[tuple, float] = {}
    supports = _supports(inst)
    # (value, first_step, measured, [(o, dispatch, value, reduction)])
    best = None

    later = _dispatch_options(inst, 1)
    for j, pairs in enumerate(supports):
        by_option = [(i, kinst, _observed(kinst, j, pairs, memo)) for i, kinst in later]
        total = 0.0
        choices = []
        for m, (o, po) in enumerate(pairs):
            bv = None
            # ties keep the earliest option
            for i, kinst, values in by_option:
                if bv is None or values[m] > bv:
                    bi, bv, bk = i, values[m], kinst
            total += po * bv
            choices.append((o, bi, bv, bk))
        branch_values[("compute", j)] = total
        if best is None or total > best[0]:
            best = (total, ("compute", j), j, choices)

    for i, kinst in _dispatch_options(inst, 0)[1:]:
        value, best_j, values = _best_measurement(kinst, memo, supports)
        branch_values[("dispatch", i)] = value
        if value > best[0]:
            choices = [(o, None, v, kinst) for (o, _), v in zip(supports[best_j], values)]
            best = (value, ("dispatch", i), best_j, choices)

    value, first, measured, choices = best
    table = {
        o: BranchOutcome(v, i, solve_kds_dp(_with_profile(kinst, measured, _posterior(o)), 1,
                                            memo=memo))
        for o, i, v, kinst in choices
    }
    after = measured if first[0] == "dispatch" else None
    return MetaPolicy(value, first, after, table, branch_values)


def expectimax_oracle(inst, max_depth: int = 2) -> float:
    """Exact value by exhaustive search over tiny instances.

    Enumerates every policy shape the budgets allow: dispatch now or at time
    1 or never, measure any process during the first slot or run it
    open-loop, then branch on each observation and enumerate every slot
    assignment of the remainder. Effective deadlines come from the
    first-principles cutoff simulation and leaf values from the interleaving
    enumerator, so no solver code is shared. Guarded to n<=3, horizon<=8,
    support size<=8.
    """
    n = len(inst.processes)
    K, L = inst.dispatch_budget, inst.observation_budget
    if max_depth < 1 + max(K, L):
        raise ValueError("max_depth too small to cover the adaptive phase")
    if n > ORACLE_MAX_N or inst.horizon > min(ORACLE_MAX_T, BRUTE_FORCE_MAX_T):
        raise ValueError(f"oracle limited to n<={ORACLE_MAX_N}, horizon<={ORACLE_MAX_T}")
    for p in inst.processes:
        if len(p.profile.pairs()) > ORACLE_MAX_SUPPORT:
            raise ValueError(f"oracle limited to support<={ORACLE_MAX_SUPPORT}")

    procs = inst.processes
    avail = [i for i, p in enumerate(procs) if p.prefix]

    def leaf(executed, start, posteriors, prefix_slots=()):
        kprocs = []
        for i, p in enumerate(procs):
            profile = posteriors.get(i, p.profile)
            kprocs.append(KdsProcess(profile, simulate_completion_cutoff(p, executed)))
        return brute_force_kds(KdsInstance(kprocs, inst.horizon), start, prefix_slots)

    def dispatched_at(i, t):
        return ((procs[i].prefix[0].action_id, t),)

    values = []
    for d0 in [None] + avail:
        ex0 = () if d0 is None else dispatched_at(d0, 0)
        late = avail if (K >= 1 and d0 is None) else []
        if L >= 1:
            # ignore-the-observation play is open-loop and dominated, but legal
            candidates = [leaf(ex0, 0, {})]
            for d1 in late:
                candidates.append(leaf(dispatched_at(d1, 1), 1, {}))
            for j in range(n):
                total = 0.0
                for o, po in procs[j].profile.pairs():
                    post = {j: _posterior(o)}
                    inner = [leaf(ex0, 1, post)]
                    for d1 in late:
                        inner.append(leaf(dispatched_at(d1, 1), 1, post))
                    total += po * max(inner)
                candidates.append(total)
            values.append(max(candidates))
        else:
            candidates = [leaf(ex0, 0, {})]
            # a time-1 dispatch follows a fixed (unobserved) first slot
            for j0 in [None] + list(range(n)):
                for d1 in late:
                    candidates.append(leaf(dispatched_at(d1, 1), 1, {}, (j0,)))
            values.append(max(candidates))
    return max(values)
