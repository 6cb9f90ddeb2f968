"""Discrete completion-time distributions on an integer grid.

Time is measured in whole computation units t = 0, 1, 2, ...; a distribution
stores its probability mass densely over [0, support_max], together with the
running sum of that mass that every success probability is read from.
"""

from __future__ import annotations

import numpy as np

PMF_TOLERANCE = 1e-9
# largest time from_pairs accepts: far past every shipped and benchmark
# profile (hundreds of steps), yet its dense array stays within 8 MB
MAX_SUPPORT = 1_000_000


class DiscreteDistribution:
    """Probability mass function over integer times 0..support_max."""

    __slots__ = ("probs", "cum")

    def __init__(self, probs) -> None:
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf must be a non-empty 1-d array")
        # one reduction rejects negative and NaN mass alike: NaN fails >=
        if not arr.min() >= -PMF_TOLERANCE:
            raise ValueError("pmf has negative or NaN mass")
        total = float(arr.sum())
        if abs(total - 1.0) > PMF_TOLERANCE:
            raise ValueError(f"pmf sums to {total!r}, not 1")
        # values are kept exactly as given so build -> serialize -> build is
        # the identity; in-tolerance deviation from 1 is harmless downstream
        self.probs = np.maximum(arr, 0.0)
        # accumulated in index order, so cum[t] is bit for bit the sequential
        # sum probs[0] + ... + probs[t]
        self.cum = np.cumsum(self.probs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def delta(cls, t: int) -> "DiscreteDistribution":
        """Point mass at integer time t >= 0."""
        if t < 0:
            raise ValueError("delta time must be >= 0")
        probs = np.zeros(t + 1)
        probs[t] = 1.0
        return cls(probs)

    @classmethod
    def uniform(cls, times) -> "DiscreteDistribution":
        """Equal mass on each distinct time in `times`."""
        times = sorted(set(int(t) for t in times))
        if not times or times[0] < 0:
            raise ValueError("uniform needs a non-empty set of times >= 0")
        probs = np.zeros(times[-1] + 1)
        probs[times] = 1.0 / len(times)
        return cls(probs)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteDistribution":
        """Build from sparse (t, probability) pairs; repeated t accumulate."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("no (t, probability) pairs given")
        tmax = max(int(t) for t, _ in pairs)
        if tmax > MAX_SUPPORT:
            raise ValueError(f"time {tmax} is past the support cap {MAX_SUPPORT}")
        probs = np.zeros(tmax + 1)
        for t, p in pairs:
            if t < 0:
                raise ValueError("time must be >= 0")
            probs[int(t)] += float(p)
        return cls(probs)

    # -- queries -----------------------------------------------------------

    @property
    def support_max(self) -> int:
        return len(self.probs) - 1

    def pmf(self, t: int) -> float:
        if t < 0 or t > self.support_max:
            return 0.0
        return float(self.probs[t])

    def cdf(self, t: int) -> float:
        """P(T <= t): the running sum at min(t, support_max); 0 for t < 0.

        Beyond the support this is the total mass as summed, which may differ
        from 1 by rounding; it is not clamped.
        """
        if t < 0:
            return 0.0
        return float(self.cum[min(t, self.support_max)])

    def mean(self) -> float:
        return float(np.dot(self.probs, np.arange(len(self.probs))))

    def pairs(self) -> list[tuple[int, float]]:
        """Sparse (t, probability) view, ascending t, zero atoms dropped."""
        return [(int(t), float(p)) for t, p in enumerate(self.probs) if p > 0.0]

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.choice(len(self.probs), size=n, p=self.probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        n = max(len(self.probs), len(other.probs))
        a = np.zeros(n)
        b = np.zeros(n)
        a[: len(self.probs)] = self.probs
        b[: len(other.probs)] = other.probs
        return bool(np.allclose(a, b, atol=PMF_TOLERANCE, rtol=0.0))

    def __repr__(self) -> str:
        return f"DiscreteDistribution({self.pairs()!r})"
