"""Host speed: a fixed reference loop timed next to every op.

The host this benchmark was written on slows down and speeds up by up to a
factor of two, in bursts of seconds and in drifts over minutes, with CPU
time equal to wall time. A run's wall times then say as much about the
host as about the program. So the run times this reference loop before
every op and after the last, and each op's time is also given corrected to
a host on which the loop takes NOMINAL_S:

    corrected = wall * NOMINAL_S / local

where `local` is the mean of the two loop times just before and just after
the op. The host switches between a fast and a slow state within a second
(loop times cluster near 2.1 and 3.6 ms), so the loops nearest in time
predict an op best. Over five runs of `solve_abstract` at one seed, taking
each op's fastest of two passes, the spread (third quartile less first,
over the median) of the median op time was 0.23 uncorrected, 0.09 with the
mean of the 21 loops around each op, and 0.04 with the two adjacent ones.

The loop is pure Python, like most of the program: nested float relaxation
as in the STN, dict counting, a heap and small function calls. It is the
benchmark's own code and never calls the program, so a change to the
program cannot change it.
"""

import heapq
from math import fsum
from time import perf_counter

# the loop's time on the quiet host where the benchmark was written
# (Intel Xeon, Python 3.11); only a scale, it cancels in every comparison
NOMINAL_S = 0.0025
_N = 16
_CHECKSUM = 701.0


def _step(a, b):
    return a + b if a < b else b - a


def reference():
    """A fixed piece of work; returns its checksum."""
    dist = [[0.0 if i == j else float((i * 7 + j * 3) % 11 + 1) for j in range(_N)]
            for i in range(_N)]
    for k in range(_N):
        dk = dist[k]
        for i in range(_N):
            row = dist[i]
            dik = row[k]
            for j in range(_N):
                v = dik + dk[j]
                if v < row[j]:
                    row[j] = v
    counts = {}
    for i in range(5000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    heap = []
    for i in range(1000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
    acc = 0.0
    while heap:
        p, _ = heapq.heappop(heap)
        acc = _step(acc, float(p))
    return fsum(map(fsum, dist)) + len(counts) + acc


def sample():
    """Seconds one reference loop takes now."""
    t0 = perf_counter()
    value = reference()
    elapsed = perf_counter() - t0
    if value != _CHECKSUM:
        raise RuntimeError(f"reference loop returned {value!r}, expected {_CHECKSUM!r}")
    return elapsed


def warm(calls=20):
    """Run the loop until the interpreter has specialised it."""
    for _ in range(calls):
        sample()


def corrected(times, refs):
    """Op seconds scaled to a host on which the loop takes NOMINAL_S, where
    refs[k] was timed just before op k and refs[-1] after the last op."""
    return [2.0 * t * NOMINAL_S / (refs[k] + refs[k + 1]) for k, t in enumerate(times)]
