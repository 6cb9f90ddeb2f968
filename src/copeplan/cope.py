"""Concurrent planning and execution over processes that carry plan prefixes.

Each anytime process i works toward a full plan whose first actions (the
prefix H_i) are already known, and everything it produces must finish
executing before an induced deadline ID_i. Actions from one prefix may be
dispatched early by an initiation function; executing an action invalidates
every process whose prefix is inconsistent with the executed sequence, and
relaxes the computation deadline of processes whose prefix contains it.

Deadline model (flagged prominently because the source model leaves it open):
a process's remaining prefix runs sequentially with zero slack after its
computation finishes, so its computation bound is ID_i minus the total
duration of its not-yet-dispatched prefix actions. Dispatching an action at
time s removes its duration from that sum but requires s + duration <= ID_i
(the execution chain may end exactly at ID_i; computation itself must finish
strictly before its bound). Post-prefix plan remainder is folded into ID_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .dist import DiscreteDistribution
from .kds import KdsInstance, KdsProcess, KdsSolution, brute_force_kds, solve_kds_dp

KIDCOPE_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class PrefixAction:
    action_id: str
    duration: int

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be >= 0")


@dataclass(frozen=True)
class CopeProcess:
    profile: DiscreteDistribution
    prefix: tuple[PrefixAction, ...]
    induced_deadline: int

    def __post_init__(self) -> None:
        if self.induced_deadline < 0:
            raise ValueError("induced deadline must be >= 0")
        object.__setattr__(self, "prefix", tuple(self.prefix))


@dataclass
class CopeInstance:
    processes: list[CopeProcess]
    horizon: int = 0

    def __post_init__(self) -> None:
        ids = max((p.induced_deadline for p in self.processes), default=0)
        if self.horizon <= 0:
            self.horizon = max(ids, 1)
        elif self.horizon < ids:
            raise ValueError("horizon below an induced deadline")


@dataclass
class InitiationFunction:
    """Commitment to execute the chosen process's prefix at fixed times."""

    chosen_process: int | None = None
    start_times: dict[str, int] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "InitiationFunction":
        return cls(None, {})

    def dispatch_sequence(self, inst) -> list[tuple[str, int]]:
        """Time-ordered (action_id, start) pairs this function executes."""
        if self.chosen_process is None:
            return []
        prefix = inst.processes[self.chosen_process].prefix
        return [(a.action_id, self.start_times[a.action_id]) for a in prefix]

    def validate(self, inst) -> None:
        if self.chosen_process is None:
            if self.start_times:
                raise ValueError("empty initiation function cannot carry times")
            return
        proc = inst.processes[self.chosen_process]
        seen = set(a.action_id for a in proc.prefix)
        if len(seen) != len(proc.prefix):
            raise ValueError("prefix has duplicate action ids")
        if set(self.start_times) != seen:
            raise ValueError("start times must cover exactly the chosen prefix")
        clock = None
        for action in proc.prefix:
            s = self.start_times[action.action_id]
            if s < 0:
                raise ValueError("start times must be >= 0")
            if clock is not None and s < clock:
                raise ValueError("prefix actions may not overlap or reorder")
            clock = s + action.duration


@dataclass
class EffectiveDeadlines:
    values: list[int]


def consistent(prefix_a, executed) -> bool:
    """True iff the executed action ids form a prefix of prefix_a's ids."""
    ids = [a.action_id for a in prefix_a]
    done = [aid for aid, _ in executed]
    return len(done) <= len(ids) and ids[: len(done)] == done


def effective_deadlines(inst, f: InitiationFunction) -> EffectiveDeadlines:
    """Computation deadline per process under initiation function f.

    For each process: the zero-slack bound ID_i - (undispatched prefix
    duration), capped at the execution time of the first dispatched action
    inconsistent with H_i, and collapsed to 0 when the dispatched part of
    H_i cannot itself finish inside ID_i.
    """
    executed = f.dispatch_sequence(inst)
    out = []
    for proc in inst.processes:
        matched = 0
        violation = None
        for aid, s in executed:
            if matched < len(proc.prefix) and proc.prefix[matched].action_id == aid:
                matched += 1
            else:
                violation = s
                break
        suffix_dur = sum(a.duration for a in proc.prefix[matched:])
        bound = proc.induced_deadline - suffix_dur
        if matched:
            prev_end = None
            for k in range(matched):
                s = executed[k][1]
                if prev_end is not None and s < prev_end:
                    bound = 0  # dispatched chain overlaps under i's durations
                prev_end = s + proc.prefix[k].duration
            if prev_end + suffix_dur > proc.induced_deadline:
                bound = 0  # chain cannot finish inside ID_i even instantly
        d = bound if violation is None else min(bound, violation)
        out.append(max(0, min(d, proc.induced_deadline)))
    return EffectiveDeadlines(out)


def reduce_to_kds(inst, f: InitiationFunction) -> KdsInstance:
    """Known-deadline scheduling instance equivalent to the f-restricted problem."""
    eff = effective_deadlines(inst, f)
    procs = [
        KdsProcess(p.profile, d) for p, d in zip(inst.processes, eff.values)
    ]
    return KdsInstance(procs, inst.horizon)


def default_candidate_times(inst) -> list[int]:
    times = {0}
    times.update(p.induced_deadline for p in inst.processes)
    return sorted(times)


def enumerate_initiation_functions(inst, candidate_times=None, cap: int = KIDCOPE_ENUMERATION_CAP):
    """All feasible initiation functions, empty one first, then (process,
    time-tuple) lexicographic order."""
    if candidate_times is None:
        candidate_times = default_candidate_times(inst)
    candidate_times = sorted(set(int(t) for t in candidate_times))
    total = sum(
        len(candidate_times) ** len(p.prefix) for p in inst.processes if p.prefix
    )
    if total > cap:
        raise ValueError(f"{total} candidate assignments exceed cap {cap}")

    yield InitiationFunction.empty()
    for c, proc in enumerate(inst.processes):
        if not proc.prefix:
            continue
        for times in itertools.product(candidate_times, repeat=len(proc.prefix)):
            clock = None
            ok = True
            for action, s in zip(proc.prefix, times):
                if clock is not None and s < clock:
                    ok = False
                    break
                clock = s + action.duration
            if not ok or clock > proc.induced_deadline:
                continue
            f = InitiationFunction(c, dict(zip((a.action_id for a in proc.prefix), times)))
            try:
                f.validate(inst)
            except ValueError:
                continue
            yield f


def solve_kidcope(inst, candidate_times=None, cap: int = KIDCOPE_ENUMERATION_CAP):
    """Optimal known-induced-deadline solution by enumerating f.

    Returns (probability, InitiationFunction, KdsSolution); ties keep the
    earliest function in enumeration order (empty first). One layer memo
    serves every reduction of the call: commitments that leave the deadlines
    of a (deadline, index) suffix alone reuse its DP layers. It holds each
    distinct layer once, with the values read from it and, where the layer
    solved its whole row, 16 * (horizon + 1) bytes, until the call returns.
    """
    best_v = -1.0
    best_f = None
    best_sol: KdsSolution | None = None
    memo: dict = {}
    for f in enumerate_initiation_functions(inst, candidate_times, cap):
        sol = solve_kds_dp(reduce_to_kds(inst, f), memo=memo)
        if sol.value > best_v + 1e-15:
            best_v, best_f, best_sol = sol.value, f, sol
    assert best_f is not None and best_sol is not None
    return best_v, best_f, best_sol


# -- independent oracle route ------------------------------------------------


def simulate_completion_cutoff(proc: CopeProcess, executed) -> int:
    """First completion time at which process `proc` can no longer succeed.

    Direct simulation of the dispatch semantics, used as an oracle for
    effective_deadlines: for each candidate completion time c, replay the
    executed actions against H_i and check whether the plan remains valid and
    its remaining prefix can still finish inside ID_i.
    """

    def succeeds(c: int) -> bool:
        matched = 0
        last_end = None
        foreign_at = None
        for aid, s in executed:
            if foreign_at is not None:
                break
            expect = proc.prefix[matched].action_id if matched < len(proc.prefix) else None
            if aid == expect:
                if last_end is not None and s < last_end:
                    return False  # i's own chain cannot overlap itself
                last_end = s + proc.prefix[matched].duration
                matched += 1
            else:
                foreign_at = s
        if foreign_at is not None and c >= foreign_at:
            return False  # plan not done strictly before a foreign execution
        suffix = proc.prefix[matched:]
        remaining = sum(a.duration for a in suffix)
        if suffix:
            start = max(c, last_end) if last_end is not None else c
            if start + remaining > proc.induced_deadline:
                return False
            return c < proc.induced_deadline - remaining
        if last_end is not None and last_end > proc.induced_deadline:
            return False
        return c < proc.induced_deadline

    for c in range(proc.induced_deadline + 1):
        if not succeeds(c):
            return c
    return proc.induced_deadline


def brute_force_cope(inst, f: InitiationFunction, start_time: int = 0) -> float:
    """Exact value of the f-restricted problem, independent of the reduction.

    Derives each process's completion cutoff by simulation and exhausts every
    interleaved computation schedule.
    """
    executed = f.dispatch_sequence(inst)
    procs = [
        KdsProcess(p.profile, simulate_completion_cutoff(p, executed))
        for p in inst.processes
    ]
    return brute_force_kds(KdsInstance(procs, inst.horizon), start_time)
