"""Allocating computation time across anytime processes with known deadlines.

A process i needs an unknown whole number of computation units M_i ~ profile_i
to produce its result, and that result only counts if the unit that completes
it ends strictly before the process deadline d_i. A schedule hands out unit
time slots; the solved objective is the probability that at least one process
completes in time.

`solve_kds_dp` is the pseudo-polynomial dynamic program (contiguous blocks in
deadline order); `brute_force_kds` is the independent oracle that enumerates
every per-slot assignment, interleavings included, and makes no structural
assumption about optimal schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import DiscreteDistribution

BRUTE_FORCE_MAX_N = 4
BRUTE_FORCE_MAX_T = 12
_CHUNK = 1 << 17


@dataclass(frozen=True)
class KdsProcess:
    profile: DiscreteDistribution
    deadline: int  # completion at exactly this time fails


@dataclass
class KdsInstance:
    processes: list[KdsProcess]
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        for k, p in enumerate(self.processes):
            if not 0 <= p.deadline <= self.horizon:
                raise ValueError(
                    f"process {k}: deadline {p.deadline} outside [0, {self.horizon}]"
                )


@dataclass(frozen=True)
class Block:
    process: int
    start: int
    length: int  # zero-length blocks only record a mass-at-zero check


@dataclass
class KdsSolution:
    value: float
    blocks: list[Block] = field(default_factory=list)


def success_prob(profile: DiscreteDistribution, d: int, t: int, t_b: int) -> float:
    """P(process completes within t units of a block starting at t_b, before d).

    s(t, t_b) = sum of m(t') over t' <= min(t, d - 1 - t_b): completing on a
    unit that ends at or after the known deadline d fails.
    """
    if t < 0 or t_b < 0:
        raise ValueError("t and t_b must be >= 0")
    return profile.cdf(min(t, d - 1 - t_b))


def eval_schedule(instance: KdsInstance, blocks: list[Block]) -> float:
    """Success probability of a block schedule, by process independence."""
    seen = set()
    logfail = 0.0
    for b in blocks:
        if b.process in seen:
            raise ValueError(f"process {b.process} appears in more than one block")
        seen.add(b.process)
        if b.start < 0 or b.length < 0 or b.start + b.length > instance.horizon:
            raise ValueError(f"block {b} outside [0, {instance.horizon})")
        proc = instance.processes[b.process]
        s = success_prob(proc.profile, proc.deadline, b.length, b.start)
        logfail += math.log1p(-min(s, 1.0 - 1e-300)) if s < 1.0 else -math.inf
    return -math.expm1(logfail)


def solve_kds_dp(instance: KdsInstance, start_time: int = 0) -> KdsSolution:
    """Optimal allocation by dynamic programming.

    Processes are scheduled in contiguous blocks sorted by (deadline, index);
    the state is (next process, current time) and the choice is the block
    length. Failure probabilities are accumulated in log space. Ties between
    equal-value block lengths prefer the shortest.
    """
    n = len(instance.processes)
    T = instance.horizon
    if start_time < 0:
        raise ValueError("start_time must be >= 0")
    order = sorted(range(n), key=lambda i: (instance.processes[i].deadline, i))

    # logfail[k][time]: best log failure product over processes order[k:]
    # when their first block may start at `time`.
    times = T + 1
    logfail = np.zeros((n + 1, times))
    choice = np.zeros((n, times), dtype=int)
    for k in range(n - 1, -1, -1):
        proc = instance.processes[order[k]]
        for time in range(T, -1, -1):
            best = math.inf
            best_t = 0
            for t in range(0, max(0, proc.deadline - time) + 1):
                s = success_prob(proc.profile, proc.deadline, t, time)
                here = math.log1p(-s) if s < 1.0 else -math.inf
                cand = here + logfail[k + 1][time + t]
                if cand < best:
                    best = cand
                    best_t = t
            logfail[k][time] = best
            choice[k][time] = best_t

    blocks: list[Block] = []
    time = min(start_time, T)
    for k in range(n):
        t = int(choice[k][time])
        proc = instance.processes[order[k]]
        if t > 0 or success_prob(proc.profile, proc.deadline, 0, time) > 0.0:
            blocks.append(Block(order[k], time, t))
        time += t
    value = -math.expm1(logfail[0][min(start_time, T)])
    return KdsSolution(value, blocks)


def brute_force_kds(
    instance: KdsInstance, start_time: int = 0, prefix_slots: tuple = ()
) -> float:
    """Exact optimum over every per-slot assignment (interleavings allowed).

    Ground-truth oracle: enumerates all sequences over {idle, 1..n} for the
    useful slot range and evaluates each process marginal directly from its
    slot positions. `prefix_slots` fixes the assignment of slots
    [start_time - len(prefix_slots), start_time) (entries are a process index
    or None); a process completing on its k-th unit succeeds iff that unit
    ends strictly before its deadline, wherever the unit sits. Refuses
    instances beyond n=4, T=12.
    """
    n = len(instance.processes)
    T = instance.horizon
    if n > BRUTE_FORCE_MAX_N or T > BRUTE_FORCE_MAX_T:
        raise ValueError(f"brute force limited to n<={BRUTE_FORCE_MAX_N}, T<={BRUTE_FORCE_MAX_T}")
    if len(prefix_slots) > start_time:
        raise ValueError("prefix longer than the elapsed time before start_time")

    deadlines = [p.deadline for p in instance.processes]
    # Slot w can only matter while w + 1 < max deadline.
    w_end = min(T, (max(deadlines) - 1) if deadlines else 0)
    base = [
        p.profile.pmf(0) if p.deadline > start_time else 0.0 for p in instance.processes
    ]
    prefix_base = start_time - len(prefix_slots)
    pre_counts = []
    for i in range(n):
        c = 0
        for k, assigned in enumerate(prefix_slots):
            if assigned == i and prefix_base + k <= deadlines[i] - 2:
                c += 1
        pre_counts.append(c)
    nslots = max(0, w_end - start_time)
    supports = [p.profile.probs for p in instance.processes]
    if n == 0 or nslots == 0:
        fail = 1.0
        for i in range(n):
            q = base[i]
            pm = supports[i]
            for tp in range(1, len(pm)):
                if pm[tp] and pre_counts[i] >= tp:
                    q += pm[tp]
            fail *= 1.0 - q
        return 1.0 - fail

    radix = n + 1
    total = radix**nslots
    best = 0.0
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        digits = _digit_matrix(radix, nslots, lo, hi, total)
        fail = np.ones(hi - lo)
        for i in range(n):
            # count of process-i slots whose unit ends strictly before d_i
            span = max(0, min(nslots, deadlines[i] - 1 - start_time))
            ci = (digits[:, :span] == i + 1).sum(axis=1) if span else np.zeros(hi - lo)
            q = np.full(hi - lo, base[i])
            pm = supports[i]
            for tp in range(1, len(pm)):
                if pm[tp]:
                    q += pm[tp] * (ci + pre_counts[i] >= tp)
            fail *= 1.0 - q
        chunk_best = 1.0 - fail.min()
        if chunk_best > best:
            best = chunk_best
        if best >= 1.0 - 1e-15:
            break
    return best


_DIGIT_CACHE: dict = {}


def _digit_matrix(radix: int, nslots: int, lo: int, hi: int, total: int) -> np.ndarray:
    """Rows lo..hi of the base-`radix` digit table, cached when it fits one chunk."""
    if lo == 0 and hi == total:
        cached = _DIGIT_CACHE.get((radix, nslots))
        if cached is not None:
            return cached
    digits = np.empty((hi - lo, nslots), dtype=np.int8)
    rem = np.arange(lo, hi, dtype=np.int64)
    for col in range(nslots - 1, -1, -1):
        digits[:, col] = rem % radix
        rem = rem // radix
    if lo == 0 and hi == total:
        _DIGIT_CACHE[(radix, nslots)] = digits
    return digits
