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

The DP's layers are lazy. A layer is computed at a start time only when the
layer above reads it there, by scanning the block lengths where its
profile's running sum changes; that shortcut is licensed up front by
checking that every log failure sequence below it is non-increasing. A
layer whose reads pass a small cell budget solves its whole row with numpy
instead, so dense profiles and long horizons cost what an eager DP does.
Every value, sign of zero and block list equals the dense layer's.

`point_mass_values` gives the value of an instance with one process's
profile swapped for a point mass, as a perfect measurement leaves it:
exactly 1.0 when the process surely completes in time, otherwise, under the
same licence, the value of the instance without that process.
"""

from __future__ import annotations

import bisect
import math
import operator
from itertools import compress
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
# a layer scans its columns one time at a time until that has cost this
# many cells, then solves its whole row. A read of a few columns takes
# about 2 us in the interpreter, and a row of a few change points about
# 15-20 us at T = 200 (2-vCPU Xeon), so 16 cells cost about one row: a
# layer that turns out to need its row loses at most about that much, and
# a deep chain of such layers stays within a few percent of solving every
# row at once
_POINT_BUDGET = 16
# a layer's running sums are scanned in the interpreter up to this length
# and with numpy past it; both take about 7 us at 64 cells
_SHORT_WINDOW = 64
# a chain of more layers solves its rows before the first read, which
# recurses one frame a layer
_POINT_DEPTH = 200


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


# at or past its deadline a layer's only column is t = 0, and it adds
# log1p(-0.0) = -0.0
_PAST_COLS, _PAST_LFS = [0], [_log_failure(0.0)]


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
    `np.argmin` over every length would.

    Layer k (the best log failure and block length of processes order[k:]
    at every start time) is a `_Layer` evaluated lazily: a solve reads
    layer 0 at one time, and each deeper layer only at the times that the
    block lengths scanned above it reach. A layer scans only the lengths
    where the profile's running sum changes, once the layers below it are
    known to hold non-decreasing rows; past `_POINT_BUDGET` cells of such
    reads it solves its whole row at once. `_Layer` says why both are exact.

    Layer k is a function of T and of the running sums and deadlines of
    processes order[k:] only. A caller that solves several instances
    sharing such suffixes passes one `memo` dict to all of them. Layer k is
    keyed by (profile.cum.tobytes(), deadline, key of layer k + 1), starting
    from T, and the memo holds the layer with every value it has computed
    so far. The key names the exact bytes of every input the layer is
    computed from, and the layer's arithmetic is deterministic, so a reused
    layer answers bit for bit as this call's own would. `start_time` and
    the process indices are read only when the block list is rebuilt. The
    key holds contents, not object ids: an equal profile built twice still
    hits, and a reused id cannot alias.
    """
    n = len(instance.processes)
    T = instance.horizon
    if start_time < 0:
        raise ValueError("start_time must be >= 0")
    order = _order(instance.processes)
    layers = _layers([instance.processes[k] for k in order], T, memo)
    if n > _POINT_DEPTH:
        layers[0].row()

    time = min(start_time, T)
    value = 0.0 - math.expm1(layers[0].at(time))
    blocks: list[Block] = []
    for k, layer in zip(order, layers):
        t = layer.choice(time)
        proc = instance.processes[k]
        if t > 0 or success_prob(proc.profile, proc.deadline, 0, time) > 0.0:
            blocks.append(Block(k, time, t))
        time += t
    return KdsSolution(value, blocks)


def point_mass_values(
    instance: KdsInstance, j: int, remainings, start_time: int, *, memo: dict, solve,
) -> list[float]:
    """For each r in `remainings`, the DP value from `start_time` of
    `instance` with process j's profile replaced by the point mass delta(r),
    equal bit for bit to `solve_kds_dp`'s on that instance.

    Let s = min(start_time, T) and d be j's deadline.

    - If s + r < d, the value is exactly 1.0: j's layer reaches -inf at s
      through its sure column (column 0 when r = 0), every layer above
      reaches that -inf at s through column 0, and 0.0 - expm1(-inf) is 1.0.
    - Otherwise, at every time tau >= s that a solve reads it, j's layer has
      only column 0 to scan, with lf -0.0: below d - tau <= r, delta(r)'s
      running sum stays 0.0, and at or past d column 0 is the only one. So
      it returns -0.0 + next.at(tau), which equals next.at(tau) bit for
      bit, and the value is that of the instance without j, solved once
      for every such r. That needs the layer below j to be `ordered`, the
      licence to scan change points only; where it fails, j's layer scans
      every column, and each such r is solved with j in it.

    `solve` is the DP those solves call: `solve_kds_dp`, as the caller
    looks it up, so that a wrapper around the caller's reference sees every
    call. `memo` is the layer memo they share with the caller's other
    solves.
    """
    if start_time < 0:
        raise ValueError("start_time must be >= 0")
    procs = instance.processes
    T = instance.horizon
    s = min(start_time, T)
    d = procs[j].deadline
    licensed = rest = None
    values = []
    for r in remainings:
        if s + r < d:
            values.append(1.0)
            continue
        if licensed is None:
            order = _order(procs)
            below = order[order.index(j) + 1 :]
            licensed = _layers([procs[i] for i in below], T, memo)[0].ordered
        if not licensed:
            point = KdsProcess(DiscreteDistribution.delta(r), d)
            swapped = KdsInstance([point if i == j else p for i, p in enumerate(procs)], T)
            values.append(solve(swapped, start_time, memo=memo).value)
            continue
        if rest is None:
            others = KdsInstance([p for i, p in enumerate(procs) if i != j], T)
            rest = solve(others, start_time, memo=memo).value
        values.append(rest)
    return values


def _order(processes: list) -> list:
    """Process indices in the DP's (deadline, index) order."""
    return sorted(range(len(processes)), key=lambda i: (processes[i].deadline, i))


def _layers(processes: list, T: int, memo: dict | None) -> list:
    """The DP layers of `processes`, given in (deadline, index) order, top
    first, then the base row of zeros; through `memo` when one is given."""
    layer = _Row(np.zeros(T + 1), True)
    layers = [layer]
    key = T
    for proc in reversed(processes):
        if memo is None:
            layer = _Layer(proc.profile.cum, proc.deadline, layer)
        else:
            key = (proc.profile.cum.tobytes(), proc.deadline, key)
            found = memo.get(key)
            if found is None:
                found = memo[key] = _Layer(proc.profile.cum, proc.deadline, layer)
            layer = found
        layers.append(layer)
    layers.reverse()
    return layers


class _Row:
    """A given row read as a layer, `ordered` if it never decreases: the
    DP's base row of zeros."""

    def __init__(self, row: np.ndarray, ordered: bool) -> None:
        self._values: dict = {}
        self._out = row
        self.at = row.item
        self.ordered = ordered

    def row(self) -> np.ndarray:
        return self._out


class _Layer:
    """The DP layer of a process with running sum `cum` and deadline d,
    ahead of the layer `next`: at(time) is the best log failure from
    `time` on, and choice(time) its block length.

    At a time at or past the deadline only t = 0 is allowed, and it adds
    log1p(-0.0) = -0.0. Before d, the candidate for (time, t) is
    lf[t] + next.at(time + t), lf[t] being the log failure of a block of
    length t, except the last allowed column t = d - time, which reads
    lf[d - 1 - time] + next.at(d) (the block's final unit would end at d).
    The result is the first minimum over t, as `np.argmin` would take it.

    Only the change points, t = 0 and the t with cum[t] != cum[t - 1], can
    be a first minimum when the next row never decreases in time. lf only
    changes at them, so across a run of equal lf the candidate never
    decreases in t, and the last column is never below column
    d - 1 - time, which reads the same lf and next.at(d - 1). Columns after
    the first sure success (lf = -inf) never beat it. The columns are
    scanned in ascending t, each replacing the incumbent only where it is
    strictly smaller, which gives the first minimum's value (sign of zero
    included) and t.

    The next row's order is licensed up front, not read off the row, which
    a lazy layer never holds. If every lf sequence below a layer is
    non-increasing, every row below it is non-decreasing, by induction
    from the base row of zeros: fl(c + x) is monotone in c and in x, and
    each candidate at time + 1 is no smaller than the candidate one column
    longer at `time`, which reads the same cell of the next row with an lf
    no larger (last column against last column, and at d - 1 the last
    column lf[0] + next.at(d) against -0.0 + next.at(d) at d). So
    `ordered` checks each profile's few lf values, after log1p(-0.0), once;
    where the check fails, the layer above scans every column and the last
    column, which is exact on any row.

    A read at a time not yet known scans the columns at that one time,
    reading `next` at each, and the layer keeps value and length per time.
    Once those scans would pass _POINT_BUDGET cells, the layer solves its
    whole row, and the rows below it, with `_solve_layer`, and reads the
    row from then on.
    """

    __slots__ = ("d", "next", "full", "cols", "lfs", "sure", "ordered",
                 "_values", "_choices", "_work", "_out", "_best")

    def __init__(self, cum: np.ndarray, d: int, next) -> None:
        self.d = d
        self.next = next
        self.full = not next.ordered
        # the columns scanned, 0 first and ascending, and their lf; the
        # first sure success, scanned apart
        self.cols: list = []
        self.lfs: list = []
        self.sure = None
        self.ordered = next.ordered
        self._values: dict = {}
        self._choices: dict = {}
        self._work = 0
        self._out = self._best = None
        if d == 0:
            return
        # cum never decreases: cells [0, j) of the window are below 1.0 and
        # cell j, if j < m, is the first sure success
        m = min(d, len(cum))
        # the interpreter scans a short window faster than numpy starts
        window = cum[:m].tolist() if m <= _SHORT_WINDOW else cum[:m]
        j = m if window[-1] < 1.0 else bisect.bisect_left(window, 1.0)
        if 0 < j < m:
            self.sure = j
        # the finite columns after 0 lie in [1, stop)
        stop = j if j < m else d
        if self.full:
            cols = list(range(1, stop))
            # past its end the running sum holds its last value
            losses = [-s for s in window[1:stop]] + [-window[-1]] * (stop - m)
        else:
            # cum is constant past its end, so it changes below m only
            cols, losses = _steps(window, min(stop, m))
        self.cols = [0, *cols]
        self.lfs = [_log_failure(float(window[0])), *map(math.log1p, losses)]
        self.ordered = next.ordered and _non_increasing([_log_failure(0.0), *self.lfs])

    def at(self, time: int) -> float:
        """The best log failure from `time` on: kept, read off the row, or
        scanned now."""
        value = self._values.get(time)
        if value is not None:
            return value
        if self._out is not None:
            return self._out.item(time)
        span = self.d - time
        if span > 0:
            cols, lfs = self.cols, self.lfs
            count = bisect.bisect_left(cols, span)
        else:
            cols, lfs, count = _PAST_COLS, _PAST_LFS, 1
        self._work += count
        if self._work > _POINT_BUDGET:
            return self.row().item(time)
        nxt = self.next
        get = nxt._values.get
        best = math.inf
        best_t = 0
        for i in range(count):
            t = cols[i]
            value = get(time + t)
            if value is None:
                value = nxt.at(time + t)
            cand = lfs[i] + value
            if cand < best:
                best, best_t = cand, t
        if span > 0:
            j = self.sure
            if j is not None and j < span:
                cand = -math.inf + nxt.at(time + j)
                if cand < best:
                    best, best_t = cand, j
            if self.full:
                # lf[span - 1], -inf from the sure success on
                cand = (lfs[span - 1] if span <= len(lfs) else -math.inf) + nxt.at(self.d)
                if cand < best:
                    best, best_t = cand, span
        self._values[time] = best
        self._choices[time] = best_t
        return best

    def choice(self, time: int) -> int:
        """The block length of at(time), once at(time) has been read."""
        t = self._choices.get(time)
        return int(self._best[time]) if t is None else t

    def row(self) -> np.ndarray:
        """The whole row, solved on the first call together with every row
        below it that is not yet solved, deepest first."""
        pending = []
        layer = self
        while layer._out is None:
            pending.append(layer)
            layer = layer.next
        for layer in reversed(pending):
            below = layer.next._out
            out = np.empty_like(below)
            best_t = np.zeros(len(below), dtype=int)
            _solve_layer(layer, below, out, best_t)
            layer._out, layer._best = out, best_t
        return self._out


def _steps(window, top: int) -> tuple[list, list]:
    """The t in [1, top) where the running sums `window`, a list or an
    array, change, and the negated sums there."""
    if top < 2:
        return [], []
    if isinstance(window, list):
        cols = list(compress(range(1, top), map(operator.ne, window[1:top], window)))
        return cols, [-window[t] for t in cols]
    cols = np.flatnonzero(window[1:top] != window[: top - 1]) + 1
    return cols.tolist(), (-window[cols]).tolist()


def _non_increasing(values: list) -> bool:
    """values[0] >= values[1] >= ..., the order that licenses scanning
    change points only."""
    return values == sorted(values, reverse=True)


def _solve_layer(layer: _Layer, row: np.ndarray, out: np.ndarray,
                 best_t: np.ndarray) -> None:
    """Fill out[time] and best_t[time] for every time: the whole row of
    `layer` over the next layer's row `row`, scanning the columns that
    `_Layer.at` scans, in the same order.

    Isolated columns, and runs shorter than _BLOCK_RUN, are scanned one
    slice each. A longer run of consecutive columns is one strided
    (time, t) block over a copy of the row padded with +inf past d - 1,
    reduced with `argmin` in row blocks of at most _CHUNK cells, so that
    scratch memory stays bounded at any horizon.
    """
    d = layer.d
    out[d:] = _log_failure(0.0) + row[d:]
    if d == 0:
        return
    np.add(layer.lfs[0], row[:d], out=out[:d])
    best_t[:d] = 0
    padded = None
    done = 1
    for a, b in _runs(layer.cols[1:]):
        lf = layer.lfs[done : done + b - a]
        done += b - a
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
    j = layer.sure
    if j is not None:
        best_t[: d - j][_take_smaller(out, -math.inf + row[j:d])] = j
    if layer.full:
        lf = np.full(d, -math.inf)
        lf[: len(layer.lfs)] = layer.lfs
        better = _take_smaller(out, lf[::-1] + row[d])
        best_t[:d][better] = d - np.flatnonzero(better)


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
