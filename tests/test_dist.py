import tracemalloc

import numpy as np
import pytest

from copeplan.dist import MAX_SUPPORT, DiscreteDistribution


def test_delta_pmf_and_cdf():
    d = DiscreteDistribution.delta(3)
    assert d.pmf(3) == 1.0
    assert d.pmf(2) == 0.0
    assert d.cdf(2) == 0.0
    assert d.cdf(3) == 1.0
    assert d.cdf(100) == 1.0
    assert d.mean() == 3.0


def test_uniform_splits_mass():
    d = DiscreteDistribution.uniform([1, 3])
    assert d.pmf(1) == pytest.approx(0.5)
    assert d.pmf(3) == pytest.approx(0.5)
    assert d.pmf(2) == 0.0
    assert d.support_max == 3


def test_from_pairs_accumulates_and_validates():
    d = DiscreteDistribution.from_pairs([(2, 0.25), (2, 0.25), (5, 0.5)])
    assert d.pmf(2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        DiscreteDistribution.from_pairs([(0, 0.4)])  # mass 0.4 != 1
    with pytest.raises(ValueError):
        DiscreteDistribution.from_pairs([(0, 1.5), (1, -0.5)])


def test_from_pairs_refuses_times_past_the_support_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="support cap"):
            DiscreteDistribution.from_pairs([(0, 0.5), (10**12, 0.5)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    d = DiscreteDistribution.from_pairs([(MAX_SUPPORT, 1.0)])
    assert d.support_max == MAX_SUPPORT


def test_nan_mass_is_rejected():
    # every comparison with NaN is false, so NaN must fail the check itself
    for probs in ([np.nan, 1.0], [1.0, np.nan], [0.5, np.nan, 0.5]):
        with pytest.raises(ValueError, match="negative or NaN"):
            DiscreteDistribution(probs)
    with pytest.raises(ValueError):
        DiscreteDistribution([np.inf, 1.0])


def test_tolerated_negative_and_signed_zero_mass_become_plus_zero():
    # stored bit for bit as clip(probs, 0, None) would store them
    probs = [-0.0, 0.5, -1e-12, 0.5, 0.0, -5e-324]
    d = DiscreteDistribution(probs)
    assert d.probs.tolist() == [0.0, 0.5, 0.0, 0.5, 0.0, 0.0]
    assert not np.signbit(d.probs).any()
    assert np.array_equal(d.probs, np.clip(probs, 0.0, None))


def test_cdf_monotone_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        probs = rng.random(int(rng.integers(1, 12)))
        d = DiscreteDistribution(probs / probs.sum())
        values = [d.cdf(t) for t in range(-1, d.support_max + 2)]
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_sampling_matches_pmf_tolerance():
    # Monte Carlo calibration of the sampler itself: each atom within
    # 3 * sqrt(p(1-p)/N) of its mass.
    rng = np.random.default_rng(1234)
    d = DiscreteDistribution.from_pairs([(0, 0.1), (2, 0.3), (5, 0.6)])
    n = 100_000
    draws = d.sample(rng, n)
    for t, p in d.pairs():
        observed = float(np.mean(draws == t))
        assert abs(observed - p) <= 3.0 * np.sqrt(p * (1 - p) / n)

