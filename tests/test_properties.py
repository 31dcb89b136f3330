"""Estimator invariants checked as properties over random valid runs.

A valid configuration has p0 = 1/L for a chain length L >= 2 and N = n_c L
samples per level with n_c seeds, so p0 N is an integer that divides N.
Examples are derandomized, so the suite draws the same cases on every run.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsens.numkit import RngStream
from gradsens.responses import NormalResponse
from gradsens.sensest import sensitivity_subsim
from gradsens.subsim import SsConfig, run_subset_simulation

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
MODEL = NormalResponse()


@st.composite
def configs(draw, min_chains=1):
    chain_len = draw(st.integers(2, 10))
    n_chains = draw(st.integers(min_chains, 30))
    return SsConfig(m=draw(st.integers(1, 4)), p0=1.0 / chain_len,
                    n_per_level=n_chains * chain_len, seed=draw(st.integers(0, 2**32 - 1)))


# at least 5 seeds, so every bin holds several distinct responses to smooth
kernel_configs = configs(min_chains=5)
coefficients = st.floats(-10.0, 10.0, allow_nan=False)


def with_gradients(bins, fn):
    """The partition with every bin's (y, g) replaced by ``fn(y, g)``."""
    out = []
    for b in bins.bins:
        y, g = fn(b.y, b.g)
        out.append(replace(b, y=y, g=g))
    return replace(bins, bins=out)


@PROPERTY
@given(configs())
def test_bin_probabilities_sum_to_one(config):
    bins, _ = run_subset_simulation(MODEL, config)
    assert bins.probability_sum_exact == Fraction(1)
    assert sum(b.count for b in bins.bins) == config.n_per_level * config.m - (
        config.n_chains * (config.m - 1))


@PROPERTY
@given(configs())
def test_ccdf_is_a_monotone_exceedance_curve(config):
    _, ccdf = run_subset_simulation(MODEL, config)
    assert np.all(np.diff(ccdf.y) >= 0.0)
    assert np.all(np.diff(ccdf.f) <= 0.0)
    assert np.all((ccdf.f > 0.0) & (ccdf.f <= 1.0))


@PROPERTY
@given(kernel_configs, coefficients, coefficients)
def test_sensitivity_linear_in_gradients(config, a, b):
    bins, _ = run_subset_simulation(MODEL, config)
    rng = RngStream(config.seed, 1)
    other = with_gradients(bins, lambda y, g: (y, rng.standard_normal(g.shape)))
    combined = replace(bins, bins=[replace(b1, g=a * b1.g + b * b2.g)
                                   for b1, b2 in zip(bins.bins, other.bins)])
    s1 = sensitivity_subsim(bins).raw
    s2 = sensitivity_subsim(other).raw
    # kernel weights are positive, so the smoothed |g| bounds each sum's magnitude
    bound = (abs(a) * sensitivity_subsim(with_gradients(bins, lambda y, g: (y, abs(g)))).raw
             + abs(b) * sensitivity_subsim(with_gradients(other, lambda y, g: (y, abs(g)))).raw)
    err = np.abs(sensitivity_subsim(combined).raw - (a * s1 + b * s2))
    assert np.all(err <= 1e-12 * bound + 1e-300)
    # scaling by a power of two is exact in floating point
    doubled = with_gradients(bins, lambda y, g: (y, 2.0 * g))
    assert np.array_equal(sensitivity_subsim(doubled).raw, 2.0 * s1)


@PROPERTY
@given(kernel_configs)
def test_sensitivity_reflection_symmetry(config):
    bins, _ = run_subset_simulation(MODEL, config)
    curve = sensitivity_subsim(bins)
    mirrored = sensitivity_subsim(with_gradients(bins, lambda y, g: (-y, -g)))
    # the default grid is the sorted sample values, so the reflected grid runs backwards
    assert np.array_equal(mirrored.y, -curve.y[::-1])
    assert mirrored.widths == curve.widths
    scale = np.abs(curve.raw).max()
    assert np.allclose(mirrored.raw[::-1], -curve.raw, rtol=1e-12, atol=1e-12 * scale)
