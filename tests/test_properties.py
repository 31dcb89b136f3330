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
from gradsens.responses import NormalResponse, build_model
from gradsens.sensest import (_GRID_CHUNK, DegenerateResponseError, KernelSpec,
                              sensitivity_subsim)
from gradsens.subsim import (Bin, BinPartition, SsConfig, _keep_top, run_lockstep,
                             run_subset_simulation)

from helpers import dense_reference

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
MODEL = NormalResponse()
SCOTT = KernelSpec()


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
    bins, ccdf = run_subset_simulation(MODEL, config)
    rng = RngStream(config.seed, 1)
    other = with_gradients(bins, lambda y, g: (y, rng.standard_normal(g.shape)))
    combined = replace(bins, bins=[replace(b1, g=a * b1.g + b * b2.g)
                                   for b1, b2 in zip(bins.bins, other.bins)])

    def raw(part):
        return sensitivity_subsim(part, SCOTT, ccdf.y).raw

    s1, s2 = raw(bins), raw(other)
    # kernel weights are positive, so the smoothed |g| bounds each sum's magnitude
    bound = (abs(a) * raw(with_gradients(bins, lambda y, g: (y, abs(g))))
             + abs(b) * raw(with_gradients(other, lambda y, g: (y, abs(g)))))
    err = np.abs(raw(combined) - (a * s1 + b * s2))
    assert np.all(err <= 1e-12 * bound + 1e-300)
    # scaling by a power of two is exact in floating point
    assert np.array_equal(raw(with_gradients(bins, lambda y, g: (y, 2.0 * g))), 2.0 * s1)


@PROPERTY
@given(kernel_configs)
def test_sensitivity_reflection_symmetry(config):
    bins, ccdf = run_subset_simulation(MODEL, config)
    curve = sensitivity_subsim(bins, SCOTT, ccdf.y)
    # on the reflected grid in ascending order, so its rows run backwards
    mirrored = sensitivity_subsim(with_gradients(bins, lambda y, g: (-y, -g)), SCOTT,
                                  -ccdf.y[::-1])
    assert mirrored.widths == curve.widths
    scale = np.abs(curve.raw).max()
    assert np.allclose(mirrored.raw[::-1], -curve.raw, rtol=1e-12, atol=1e-12 * scale)


@st.composite
def partitions(draw):
    """2 to 5 bins of distinct sizes, each a cluster of responses above the last,
    with gradients of random sign and probabilities that sum to 1."""
    k = draw(st.integers(2, 5))
    counts = draw(st.lists(st.integers(2, 300), min_size=k, max_size=k, unique=True))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    npar = draw(st.integers(1, 3))
    rng = RngStream(draw(st.integers(0, 2**32 - 1)))
    bins = [Bin(y=i + 0.5 * rng.standard_normal(n), g=rng.standard_normal((n, npar)) + i - 1.0,
                probability=p) for i, (n, p) in enumerate(zip(counts, weights / weights.sum()))]
    return BinPartition(thresholds=np.arange(0.5, k - 1), bins=bins,
                        param_names=tuple(f"p{j}" for j in range(npar)))


@PROPERTY
@given(partitions(), st.floats(0.02, 0.5))
def test_sensitivity_integrates_to_the_mean_gradient(bins, w):
    # each kernel integrates to 1, so over y the estimate sums to sum_i P_i mean(G_i);
    # a grid of w/4 steps over every sample +-9 widths leaves a trapezoid and
    # truncation error far below the stated 1e-9 of sum_i P_i mean|G_i|
    ys = np.concatenate([b.y for b in bins.bins])
    lo, hi = ys.min() - 9.0 * w, ys.max() + 9.0 * w
    grid = np.linspace(lo, hi, int(np.ceil(4.0 * (hi - lo) / w)) + 1)
    curve = sensitivity_subsim(bins, KernelSpec(width_rule="fixed", width=w), y_grid=grid)
    integral = np.trapezoid(curve.raw, grid, axis=0)
    want = sum(b.probability * b.g.mean(axis=0) for b in bins.bins)
    scale = sum(b.probability * np.abs(b.g).mean(axis=0) for b in bins.bins)
    assert np.all(np.abs(integral - want) <= 1e-9 * scale)


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


@st.composite
def gapped_partitions(draw):
    """2 to 4 bins, each a cluster above the last, and a kernel.  The gaps run
    from overlap to many widths, so grid rows can be dead for a bin (every pdf
    entry below the underflow cut); the last gap is at least 45 widths."""
    k = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(2, 300), min_size=k, max_size=k))
    npar = draw(st.integers(1, 3))
    width = draw(st.sampled_from(["scott", "fixed"]))
    kernel = (KernelSpec() if width == "scott"
              else KernelSpec(width_rule="fixed", width=draw(st.floats(1e-3, 0.5))))
    rng = RngStream(draw(st.integers(0, 2**32 - 1)))
    shapes = [draw(st.floats(0.01, 2.0)) * rng.standard_normal(n) for n in counts]
    # a Scott width is at most 0.93 of the bin's spread
    unit = max(kernel.width or float(np.std(y)) for y in shapes)
    gaps = [draw(st.floats(-5.0, 60.0)) for _ in range(k - 2)] + [draw(st.floats(45.0, 80.0))]
    ys, top = [shapes[0]], shapes[0].max()
    for y, gap in zip(shapes[1:], gaps):
        ys.append(y - y.min() + top + gap * unit)
        top = max(top, ys[-1].max())
    bins = [Bin(y=y, g=rng.standard_normal((y.shape[0], npar)), probability=1.0 / k) for y in ys]
    return BinPartition(thresholds=np.array([y.min() for y in ys[1:]]), bins=bins,
                        param_names=tuple(f"p{j}" for j in range(npar))), kernel


@PROPERTY
@given(gapped_partitions(), st.integers(_GRID_CHUNK, _GRID_CHUNK + 600), st.data())
def test_sensitivity_has_the_dense_references_bits(case, extra, data):
    # a grid row is skipped for a bin only where the whole dense row is +0.0; rows
    # of one run are filled in place, scattered rows through the gather buffer
    bins, kernel = case
    widths = sensitivity_subsim(bins, kernel, y_grid=[0.0]).widths
    # every sample; at least a chunk of even points over the first bin's samples
    # +-3 widths: the first chunk lies there, wholly dead for the last bin, and
    # the first bin's rows just beyond its samples are live for it; and 400 even
    # points over all samples +-40 widths, some near the edge of the dead zones
    y0, ys, reach = bins.bins[0].y, np.concatenate([b.y for b in bins.bins]), 40.0 * max(widths)
    near = np.linspace(y0.min() - 3.0 * widths[0], y0.max() + 3.0 * widths[0], extra)
    span = np.linspace(ys.min() - reach, ys.max() + reach, 400)
    grid = np.unique(np.concatenate([near, span, ys]))
    expected = dense_reference(bins, widths, grid)
    full = sensitivity_subsim(bins, kernel, y_grid=grid)
    assert np.array_equal(bits(full.raw), bits(expected))
    # a run of rows and scattered ones, with gaps between them
    start = data.draw(st.integers(0, grid.size - 1))
    run = np.arange(start, min(start + data.draw(st.integers(1, 100)), grid.size))
    scattered = data.draw(st.lists(st.integers(0, grid.size - 1), max_size=60))
    rows = np.unique(np.concatenate([run, scattered]).astype(int))
    part = sensitivity_subsim(bins, kernel, y_grid=grid, rows=rows)
    assert np.array_equal(bits(part.raw[rows]), bits(expected[rows]))


@settings(PROPERTY, max_examples=40)
@given(st.sampled_from(["normal", "sdof"]), st.integers(0, 2**32 - 1),
       st.sampled_from([-300.0, -200.0, -160.0, -154.0, -100.0, -10.0]) | st.floats(-300.0, -1.0))
def test_tiny_fixed_widths_have_the_dense_references_bits(name, seed, exponent):
    # below a width of about 1e-154, z = (y - c) / w squared overflows, and below
    # 1e-300 z itself; the fill's (z * z) * -0.5 is then -inf where std_normal_pdf's
    # (z * -0.5) * z may be finite, but both are below the underflow cut
    bins, ccdf = run_subset_simulation(build_model(name),
                                       SsConfig(m=3, p0=0.1, n_per_level=200, seed=seed))
    kernel = KernelSpec(width_rule="fixed", width=10.0**exponent)
    grid = np.concatenate([ccdf.y, 0.5 * (ccdf.y[1:] + ccdf.y[:-1])])
    full = sensitivity_subsim(bins, kernel, grid)
    assert np.array_equal(bits(full.raw), bits(dense_reference(bins, full.widths, grid)))
    assert np.all(np.isfinite(full.raw))


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


LOCKSTEP_MODELS = {name: build_model(name) for name in ("normal", "sdof", "pile")}
# seeds on both sides of 2**63, where a signed 64-bit seed would wrap
seeds_lists = st.lists(st.integers(0, 2**64 - 1) | st.integers(2**63, 2**64 - 1),
                       min_size=1, max_size=4, unique=True)


@PROPERTY
@given(st.sampled_from(sorted(LOCKSTEP_MODELS)), st.sampled_from([0.1, 0.2, 0.5]),
       st.integers(1, 6), st.integers(1, 3), seeds_lists)
def test_lockstep_runs_have_their_solo_runs_bits(name, p0, n_chains, m, seeds):
    # one chain per run makes one call per run, more stack a group's chain steps
    model = LOCKSTEP_MODELS[name]
    config = SsConfig(m=m, p0=p0, n_per_level=n_chains * round(1.0 / p0))
    group = run_lockstep(model, config, seeds)
    assert len(group) == len(seeds)
    for (bins, ccdf), seed in zip(group, seeds):
        bins0, ccdf0 = run_subset_simulation(model, replace(config, seed=seed))
        assert np.array_equal(bits(bins.thresholds), bits(bins0.thresholds))
        assert len(bins.bins) == len(bins0.bins)
        for b, b0 in zip(bins.bins, bins0.bins):
            for got, want in ((b.y, b0.y), (b.g, b0.g), (b.probability, b0.probability)):
                assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(ccdf.y), bits(ccdf0.y))
        assert np.array_equal(bits(ccdf.f), bits(ccdf0.f))


# few values, so ties are many, and -0.0 beside 0.0, which compare equal
responses = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5]), st.floats(-2.0, 2.0))


@PROPERTY
@given(st.lists(responses, min_size=1, max_size=60), st.integers(1, 20), st.data())
def test_running_top_is_the_stable_top(ys, size, data):
    # a block split, 1-row blocks included; each input is its row number
    y = np.array(ys)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(ys) - 1))) if len(ys) > 1 else [])
    top = (np.empty(0), np.empty((0, 1)))
    for lo, hi in zip([0, *cuts], [*cuts, len(ys)]):
        top = _keep_top(top, y[lo:hi], np.arange(lo, hi, dtype=float)[:, None], size)
    want = np.argsort(-y, kind="stable")[:size]
    assert np.array_equal(top[1][:, 0], want)
    assert np.array_equal(bits(top[0]), bits(y[want]))
