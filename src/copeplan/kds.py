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
# runs of fewer change points are scanned a column at a time: a block's
# fixed cost is about that of four one-column scans at the benchmark's
# deadlines (up to 300)
_BLOCK_RUN = 4


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


def _log_failure(s: float) -> float:
    """log(1 - s), with -inf for a sure success (s >= 1 after rounding)."""
    return math.log1p(-s) if s < 1.0 else -math.inf


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
        logfail += _log_failure(success_prob(proc.profile, proc.deadline, b.length, b.start))
    return 0.0 - math.expm1(logfail)


def solve_kds_dp(
    instance: KdsInstance, start_time: int = 0, *, memo: dict | None = None
) -> KdsSolution:
    """Optimal allocation by dynamic programming.

    Processes are scheduled in contiguous blocks sorted by (deadline, index);
    the state is (next process, current time) and the choice is the block
    length t. Failure probabilities are accumulated in log space, and the
    value is 0.0 - expm1(log failure), so an optimum of 0 prints as +0.0.
    Ties between equal-value block lengths prefer the shortest, as
    `np.argmin` over every length would. A layer reads only the lengths
    where the profile's running sum changes, so it costs about d times
    their number rather than d squared; `_solve_layer` says why that is
    exact.

    Layer k (the best log failure and block length of processes order[k:]
    at every start time) is a function of T and of the running sums and
    deadlines of those processes only. A caller that solves several
    instances sharing such suffixes passes one `memo` dict to all of them.
    Layer k is keyed by (profile.cum.tobytes(), deadline, key of layer
    k + 1), starting from T, and the memo holds copies of its two rows. The
    key names the exact bytes of every input the layer is computed from,
    and the layer's arithmetic is deterministic, so a reused layer is bit
    for bit the one this call would compute. `start_time` and the process
    indices are read only when the block list is rebuilt, after the layers.
    The key holds contents, not object ids: an equal profile built twice
    still hits, and a reused id cannot alias.
    """
    n = len(instance.processes)
    T = instance.horizon
    if start_time < 0:
        raise ValueError("start_time must be >= 0")
    order = sorted(range(n), key=lambda i: (instance.processes[i].deadline, i))

    # logfail[k][time]: best log failure product over processes order[k:]
    # when their first block may start at `time`.
    logfail = np.zeros((n + 1, T + 1))
    choice = np.zeros((n, T + 1), dtype=int)
    key = T
    for k in range(n - 1, -1, -1):
        proc = instance.processes[order[k]]
        if memo is not None:
            key = (proc.profile.cum.tobytes(), proc.deadline, key)
            layer = memo.get(key)
            if layer is not None:
                logfail[k], choice[k] = layer
                continue
        _solve_layer(proc.profile.cum, proc.deadline, logfail[k + 1], logfail[k], choice[k])
        if memo is not None:
            memo[key] = (logfail[k].copy(), choice[k].copy())

    blocks: list[Block] = []
    time = min(start_time, T)
    for k in range(n):
        t = int(choice[k][time])
        proc = instance.processes[order[k]]
        if t > 0 or success_prob(proc.profile, proc.deadline, 0, time) > 0.0:
            blocks.append(Block(order[k], time, t))
        time += t
    value = 0.0 - math.expm1(logfail[0][min(start_time, T)])
    return KdsSolution(value, blocks)


def _solve_layer(cum: np.ndarray, d: int, row: np.ndarray, out: np.ndarray,
                 best_t: np.ndarray) -> None:
    """Fill out[time] and best_t[time] for a process with running sum `cum`
    and deadline d, ahead of the next layer `row`.

    At a time at or past the deadline only t = 0 is allowed, and it adds
    log1p(-0.0) = -0.0. Before d, the candidate for (time, t) is
    lf[t] + row[time + t], lf[t] being the log failure of a block of length
    t, except the last allowed column t = d - time, which reads
    lf[d - 1 - time] + row[d] (the block's final unit would end at d). The
    result is the first minimum over t, as `np.argmin` would take it.

    The cost is about d times the number of change points, not d squared.
    lf only changes where the running sum does, and every layer row is
    non-decreasing in time (the base row is zeros; lf never increases).
    Across a run of equal lf the candidate then never decreases in t, and
    the last column is never below column d - 1 - time, which reads the same
    lf and row[d - 1]. So only the change points, t = 0 and the t with
    cum[t] != cum[t - 1], can be a first minimum. Columns after the first
    sure success (lf = -inf) never beat it. The change points are scanned
    in ascending t, each replacing the incumbent only where it is strictly
    smaller, which gives the first minimum's value (sign of zero included)
    and t. The row's order rests on log1p being monotone, so it is checked,
    not assumed: where it fails, every column is scanned.

    Isolated change points, and runs shorter than _BLOCK_RUN, are scanned
    one slice each. A longer run of consecutive change points is one
    strided (time, t) block over a copy of the row padded with +inf past
    d - 1, reduced with `argmin` in row blocks of at most _CHUNK cells, so
    that scratch memory stays bounded at any horizon.
    """
    out[d:] = _log_failure(0.0) + row[d:]
    if d == 0:
        return
    # cum never decreases: cells [0, j) of the window are below 1.0 and
    # cell j, if j < m, is the first sure success
    m = min(d, len(cum))
    j = m if cum[m - 1] < 1.0 else int(np.searchsorted(cum[:m], 1.0))
    monotone = bool((row[1 : d + 1] >= row[:d]).all())
    np.add(_log_failure(float(cum[0])), row[:d], out=out[:d])
    best_t[:d] = 0
    # the finite columns after 0 lie in [1, stop)
    stop = j if j < m else d
    if monotone:
        # cum is constant past its end, so it changes below len(cum) only
        top = min(stop, len(cum))
        cols = (np.flatnonzero(cum[1:top] != cum[: top - 1]) + 1).tolist() if top > 1 else []
    else:
        cols = list(range(1, stop))
        # past its end the running sum holds its last value
        cum = np.pad(cum, (0, max(0, d - len(cum))), mode="edge")
    padded = None
    for a, b in _runs(cols):
        lf = _log_failures(cum, a, b)
        if b - a < _BLOCK_RUN:
            for t, lf_t in zip(range(a, b), lf):
                best_t[: d - t][_take_smaller(out, lf_t + row[t:d])] = t
            continue
        if padded is None:
            padded = np.full(2 * d, math.inf)
            padded[:d] = row[:d]
        stride = padded.strides[0]
        window = np.ndarray((d - a, b - a), padded.dtype, padded, a * stride, (stride, stride))
        lf = np.array(lf)
        rows = min(max(1, _CHUNK // (b - a)), d - a)
        block = np.empty((rows, b - a))
        for lo in range(0, d - a, rows):
            hi = min(lo + rows, d - a)
            cand = np.add(lf, window[lo:hi], out=block[: hi - lo])
            k = cand.argmin(axis=1)
            better = _take_smaller(out[lo:hi], cand[np.arange(hi - lo), k])
            best_t[lo:hi][better] = k[better] + a
    if 0 < j < m:
        best_t[: d - j][_take_smaller(out, -math.inf + row[j:d])] = j
    if not monotone:
        lf = np.full(d, -math.inf)
        lf[:stop] = _log_failures(cum, 0, stop)
        better = _take_smaller(out, lf[::-1] + row[d])
        best_t[:d][better] = d - np.flatnonzero(better)


def _log_failures(cum: np.ndarray, a: int, b: int) -> list:
    """lf[a:b] as floats, for columns below the first sure success."""
    return list(map(math.log1p, (-cum[a:b]).tolist()))


def _runs(cols: list) -> list:
    """[(a, b)]: the maximal runs a, a + 1, ..., b - 1 in ascending `cols`."""
    if cols and cols[-1] - cols[0] == len(cols) - 1:
        return [(cols[0], cols[-1] + 1)]
    runs = []
    for t in cols:
        if runs and runs[-1][1] == t:
            runs[-1][1] = t + 1
        else:
            runs.append([t, t + 1])
    return runs


def _take_smaller(out: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Copy cand into out[:len(cand)] where it is strictly smaller; return
    where it was."""
    head = out[: len(cand)]
    better = cand < head
    head[better] = cand[better]
    return better


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
