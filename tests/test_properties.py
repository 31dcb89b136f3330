"""Estimator invariants checked as properties over random valid runs.

A valid configuration has p0 = 1/L for a chain length L >= 2 and N = n_c L
samples per level with n_c seeds, so p0 N is an integer that divides N.
Examples are derandomized, so the suite draws the same cases on every run.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsens.cli import _knots
from gradsens.numkit import RngStream
from gradsens.responses import NormalResponse
from gradsens.sensest import (_GRID_CHUNK, DegenerateResponseError, KernelSpec,
                              sensitivity_subsim)
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


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


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
    p0, m = config.p0, config.m
    assert [b.probability for b in bins.bins] == (
        [p0**i * (1.0 - p0) for i in range(m - 1)] + [p0 ** (m - 1)])
    assert abs(sum(b.probability for b in bins.bins) - 1.0) <= 4 * np.finfo(float).eps
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


@PROPERTY
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30, unique=True), st.data())
def test_interpolation_reads_only_the_selected_knots(knots, data):
    xp = np.sort(np.array(knots))
    fp = np.array(data.draw(st.lists(st.floats(), min_size=xp.size, max_size=xp.size)))
    inside = data.draw(st.lists(st.floats(xp[0], xp[-1]), max_size=20))
    on_knots = data.draw(st.lists(st.sampled_from(xp.tolist()), max_size=10))
    outside = data.draw(st.lists(st.floats(max_value=xp[0], exclude_max=True)
                                 | st.floats(min_value=xp[-1], exclude_min=True), max_size=5))
    x = np.array(inside + on_knots + outside + [xp[0], xp[-1]])
    rows = _knots(xp, x)
    full = np.interp(x, xp, fp, left=np.nan, right=np.nan)
    through_rows = np.interp(x, xp[rows], fp[rows], left=np.nan, right=np.nan)
    assert np.array_equal(bits(through_rows), bits(full))
    # a value at any other knot is never read
    blind = np.full_like(fp, np.nan)
    blind[rows] = fp[rows]
    assert np.array_equal(bits(np.interp(x, xp, blind, left=np.nan, right=np.nan)), bits(full))


@settings(PROPERTY, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["scott", "fixed:0.02"]),
       st.floats(0.0, 0.3), st.sampled_from([None, 0, 1, 2]))
def test_sensitivity_on_selected_rows_has_the_full_grids_bits(seed, width, share, empty_chunk):
    # four bins, and a grid of three kernel chunks, the last partial; a 0.02 width
    # leaves most (sample, row) pairs below the pdf's underflow cut
    bins, ccdf = run_subset_simulation(MODEL, SsConfig(m=4, p0=0.1, n_per_level=1000,
                                                       seed=seed))
    kernel = KernelSpec.parse(width)
    grid = np.unique(ccdf.y)
    assert 2 * _GRID_CHUNK < grid.size < 3 * _GRID_CHUNK
    wanted = np.random.default_rng(seed).random(grid.size) < share
    ends = np.arange(0, grid.size, _GRID_CHUNK)
    wanted[np.concatenate([ends, np.minimum(ends + _GRID_CHUNK, grid.size) - 1])] = True
    if empty_chunk is not None:
        wanted[empty_chunk * _GRID_CHUNK : (empty_chunk + 1) * _GRID_CHUNK] = False
    rows = np.flatnonzero(wanted)
    part = sensitivity_subsim(bins, kernel, y_grid=grid, rows=rows)
    full = sensitivity_subsim(bins, kernel, y_grid=grid)
    assert part.widths == full.widths
    assert np.array_equal(bits(part.raw[rows]), bits(full.raw[rows]))
    assert np.isnan(part.raw[~wanted]).all()


@PROPERTY
@given(kernel_configs, st.floats(-1e8, 1e8, allow_nan=False))
def test_scott_global_widths_ignore_a_shift(config, c):
    # the spread is taken about the mean, so a far location does not cancel it away
    bins, _ = run_subset_simulation(MODEL, config)
    kernel = KernelSpec(width_rule="scott-global")
    widths = sensitivity_subsim(bins, kernel, y_grid=[0.0]).widths
    shifted = sensitivity_subsim(with_gradients(bins, lambda y, g: (y + c, g)), kernel,
                                 y_grid=[c]).widths
    assert np.allclose(shifted, widths, rtol=1e-6, atol=0.0)


@PROPERTY
@given(kernel_configs, st.floats(-1e150, 1e150, allow_nan=False))
def test_constant_response_has_no_spread(config, c):
    # a constant's mean and spread carry roundoff of a few eps |c|, which is no spread
    bins, _ = run_subset_simulation(MODEL, config)
    constant = with_gradients(bins, lambda y, g: (np.full_like(y, c), g))
    for rule in ("scott", "scott-global"):
        with pytest.raises(DegenerateResponseError):
            sensitivity_subsim(constant, KernelSpec(width_rule=rule), y_grid=[c])


@PROPERTY
@given(st.integers(1, 50_000), st.data())
def test_config_accepts_every_whole_chain_layout(n_chains, data):
    # N = n_c L for any chain length L >= 2, up to N = 1e5
    chain_len = data.draw(st.integers(2, 100_000 // n_chains))
    n = n_chains * chain_len
    config = SsConfig(m=2, p0=n_chains / n, n_per_level=n)
    assert (config.n_chains, config.chain_len) == (n_chains, chain_len)
