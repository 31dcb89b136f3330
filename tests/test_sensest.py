import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from gradsens.numkit import RngStream, std_normal_pdf
from gradsens.responses import NormalResponse, build_model
from gradsens.sensest import (DegenerateResponseError, KernelSpec, normalize_curve,
                              response_moments, scott_width, sensitivity_direct_mc,
                              sensitivity_subsim)
from gradsens.subsim import Bin, BinPartition, SsConfig, run_subset_simulation

DEFAULT = dict(m=3, p0=0.1, n_per_level=1000)


class TestScottWidth:
    def test_reference_value(self):
        # (4/2700)^(1/5) = 0.2717310 by direct arithmetic
        assert scott_width(1.0, 900) == pytest.approx(math.exp(0.2 * math.log(4.0 / 2700.0)),
                                                      rel=1e-14)
        assert scott_width(1.0, 900) == pytest.approx(0.271731, abs=1e-5)

    def test_linear_in_sigma(self):
        assert scott_width(2.0, 900) == 2.0 * scott_width(1.0, 900)

    def test_sample_count_exponent(self):
        assert scott_width(1.0, 900 * 32) == pytest.approx(0.5 * scott_width(1.0, 900),
                                                           rel=1e-12)

    def test_degenerate_sigma(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DegenerateResponseError):
                scott_width(bad, 900)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            scott_width(1.0, 1)


class TestKernelSpec:
    def test_parse(self):
        assert KernelSpec.parse("scott").width_rule == "scott"
        assert KernelSpec.parse("scott-global").width_rule == "scott-global"
        k = KernelSpec.parse("fixed:0.25")
        assert (k.width_rule, k.width) == ("fixed", 0.25)

    # an infinite width would flatten every kernel to zero: all-zero dF columns
    @pytest.mark.parametrize("bad", ["fixed", "fixed:0", "silverman", "fixed:-1", "fixed:inf",
                                     "fixed:nan"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            KernelSpec.parse(bad)


def one_bin_curve(y, g, **kw):
    return sensitivity_direct_mc((y, g), **kw)


class TestResponseMoments:
    def test_direct_mc_equals_sample_moments(self):
        m = NormalResponse()
        bins, _ = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=500, seed=5))
        mean, var = response_moments(bins)
        y = bins.bins[0].y
        assert mean == np.mean(y)
        assert var == np.mean(y * y) - np.mean(y) ** 2

    def test_constant_response_gives_zero_variance(self):
        m = NormalResponse()
        bins, _ = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=100, seed=5))
        bins.bins[0].y = np.full(100, 3.0)
        mean, var = response_moments(bins)
        assert mean == 3.0
        assert var == 0.0
        with pytest.raises(DegenerateResponseError):
            scott_width(math.sqrt(var), 100)

    def test_subsim_moments_recover_unconditional(self):
        # total-probability moments from 200 SS runs of the unit normal response
        m = NormalResponse()
        means, sigmas = [], []
        for r in range(200):
            bins, _ = run_subset_simulation(m, SsConfig(**DEFAULT, seed=3000 + r))
            mu, var = response_moments(bins)
            means.append(mu)
            sigmas.append(math.sqrt(var))
        assert np.mean(means) == pytest.approx(1.0, abs=0.1)
        assert np.mean(sigmas) == pytest.approx(1.0, abs=0.1)


class TestDirectMcEstimator:
    def test_zero_gradients_zero_curve(self):
        y = RngStream(50).standard_normal(500)
        curve = one_bin_curve(y, np.zeros((500, 2)))
        assert np.array_equal(curve.raw, np.zeros((500, 2)))

    def test_recovers_normal_density_at_center(self):
        # loc-sensitivity of the normal response is the unit normal pdf
        m = NormalResponse()
        x = RngStream(51).standard_normal((10**6, 2))
        y, g = m.evaluate_batch(x)
        curve = one_bin_curve(y, g[:, :1], y_grid=np.array([1.0]))
        assert curve.raw[0, 0] == pytest.approx(scipy.stats.norm.pdf(0.0), rel=0.02)

    def test_bias_shrinks_with_width(self):
        m = NormalResponse()
        exact = scipy.stats.norm.pdf(0.0)
        bias = {}
        for w in (0.2, 0.1):
            est = []
            for r in range(20):
                x = RngStream(52 + r).standard_normal((10**5, 2))
                y, g = m.evaluate_batch(x)
                kern = KernelSpec(width_rule="fixed", width=w)
                est.append(one_bin_curve(y, g[:, :1], kernel=kern,
                                         y_grid=np.array([1.0])).raw[0, 0])
            bias[w] = abs(np.mean(est) - exact)
        assert bias[0.1] < bias[0.2]

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sensitivity_direct_mc((np.array([1.0]), np.array([[1.0]])))

    def test_linearity_in_gradients(self):
        y = RngStream(53).standard_normal(300)
        g = RngStream(54).standard_normal((300, 1))
        base = one_bin_curve(y, g)
        tripled = one_bin_curve(y, 3.0 * g)
        assert np.allclose(tripled.raw, 3.0 * base.raw, rtol=1e-12)

    def test_reflection_symmetry(self):
        y = RngStream(55).standard_normal(200)
        g = RngStream(56).standard_normal((200, 1))
        half = np.linspace(0.0, 2.0, 21)
        grid = np.concatenate([-half[::-1], half[1:]])  # bitwise sign-symmetric
        kern = KernelSpec(width_rule="fixed", width=0.3)
        a = one_bin_curve(y, g, kernel=kern, y_grid=grid)
        b = one_bin_curve(-y, g, kernel=kern, y_grid=-grid)
        # kernel weights are bitwise mirror-equal; the BLAS row reduction
        # order is position dependent, so allow last-place rounding
        assert np.allclose(a.raw, b.raw, rtol=1e-14, atol=1e-18)

    def test_integral_identity(self):
        # integrating dF/da over all thresholds returns the mean gradient
        rng = RngStream(57)
        y = rng.standard_normal(2000)
        g = rng.standard_normal((2000, 1)) + 0.5
        w = 0.2
        grid = np.linspace(y.min() - 8 * w, y.max() + 8 * w, 4001)
        kern = KernelSpec(width_rule="fixed", width=w)
        curve = one_bin_curve(y, g, kernel=kern, y_grid=grid)
        integral = np.trapezoid(curve.raw[:, 0], grid)
        assert integral == pytest.approx(np.mean(g[:, 0]), rel=1e-3)


class TestSubsimEstimator:
    def test_single_level_identical_to_direct(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=400, seed=6))
        via_subsim = sensitivity_subsim(bins, y_grid=ccdf.y)
        b = bins.bins[0]
        via_direct = sensitivity_direct_mc((b.y, b.g), y_grid=ccdf.y)
        assert np.array_equal(via_subsim.raw, via_direct.raw)
        assert via_subsim.widths == via_direct.widths

    def test_all_bins_contribute(self):
        # zeroing one bin's gradients changes the estimate at distant thresholds:
        # kernels cross bin boundaries
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(**DEFAULT, seed=8))
        base = sensitivity_subsim(bins, y_grid=ccdf.y)
        bins.bins[0].g = np.zeros_like(bins.bins[0].g)
        pruned = sensitivity_subsim(bins, y_grid=ccdf.y)
        top = np.searchsorted(ccdf.y, bins.thresholds[-1])
        assert not np.allclose(base.raw[top:], pruned.raw[top:])

    def test_default_grid_is_bin_samples_sorted(self):
        m = NormalResponse()
        bins, _ = run_subset_simulation(m, SsConfig(**DEFAULT, seed=9))
        curve = sensitivity_subsim(bins)
        assert np.array_equal(curve.y, np.sort(np.concatenate([b.y for b in bins.bins])))

    def test_scott_global_widths_follow_spec_formula(self):
        m = NormalResponse()
        bins, _ = run_subset_simulation(m, SsConfig(**DEFAULT, seed=10))
        curve = sensitivity_subsim(bins, KernelSpec(width_rule="scott-global"))
        _, var = response_moments(bins)
        sigma = math.sqrt(var)
        assert curve.widths == tuple(scott_width(sigma, b.count) for b in bins.bins)

    def test_default_widths_use_bin_spread(self):
        m = NormalResponse()
        bins, _ = run_subset_simulation(m, SsConfig(**DEFAULT, seed=10))
        curve = sensitivity_subsim(bins)
        expected = tuple(scott_width(float(np.std(b.y)), b.count) for b in bins.bins)
        assert curve.widths == expected
        # tail bins are much narrower than the whole-response spread implies
        assert curve.widths[2] < 0.5 * scott_width(math.sqrt(response_moments(bins)[1]), 1000)


class TestNormalizeCurve:
    def test_zero_raw_zero_measures(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=200, seed=3))
        bins.bins[0].g = np.zeros_like(bins.bins[0].g)
        curve = sensitivity_subsim(bins, y_grid=ccdf.y)
        curve = normalize_curve(curve, ccdf, m.spec)
        assert np.array_equal(curve.scaled, np.zeros_like(curve.scaled))
        assert np.array_equal(curve.fractional, np.zeros_like(curve.fractional))

    def test_scaling_columns(self):
        m = NormalResponse(loc=2.0, scale=1.5, mix=0.5)
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=200, seed=4))
        curve = normalize_curve(sensitivity_subsim(bins, y_grid=ccdf.y), ccdf, m.spec)
        assert np.allclose(curve.scaled[:, 0], 2.0 * curve.raw[:, 0], rtol=1e-15)
        assert np.allclose(curve.fractional[:, 1], 1.5 * curve.raw[:, 1] / ccdf.f, rtol=1e-15)

    def test_zero_ccdf_flagged_nan(self):
        from gradsens.subsim import CcdfCurve
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=200, seed=4))
        f = ccdf.f.copy()
        f[-1] = 0.0
        curve = sensitivity_subsim(bins, y_grid=ccdf.y)
        curve = normalize_curve(curve, CcdfCurve(y=ccdf.y, f=f), m.spec)
        assert np.all(np.isnan(curve.fractional[-1]))
        assert np.all(np.isfinite(curve.fractional[:-1]))

    def test_grid_mismatch_rejected(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=200, seed=4))
        curve = sensitivity_subsim(bins, y_grid=ccdf.y[:-1])
        with pytest.raises(ValueError):
            normalize_curve(curve, ccdf, m.spec)


def dense_reference(bins, widths, y_grid):
    """The estimator as first written: a std_normal_pdf matrix over 1024-row
    chunks of the unique grid, reduced by one matmul per chunk and bin."""
    grid, inverse = np.unique(np.asarray(y_grid, dtype=float), return_inverse=True)
    raw = np.zeros((grid.shape[0], bins.bins[0].g.shape[1]))
    for b, w in zip(bins.bins, widths):
        scale = b.probability / (b.count * w)
        for lo in range(0, grid.shape[0], 1024):
            chunk = grid[lo : lo + 1024]
            kmat = std_normal_pdf((b.y[None, :] - chunk[:, None]) / w)
            raw[lo : lo + 1024] += scale * (kmat @ b.g)
    return raw[inverse]


def assert_matches_dense(bins, kernel=KernelSpec(), y_grid=None):
    curve = sensitivity_subsim(bins, kernel, y_grid=y_grid)
    grid = curve.y
    expected = dense_reference(bins, curve.widths, grid)
    assert curve.raw.shape == expected.shape
    assert np.array_equal(curve.raw.view(np.uint64), expected.view(np.uint64))
    return curve


class TestDenseReference:
    """The blocked, underflow-masked kernel fill reproduces the dense loop bit for bit."""

    @pytest.mark.parametrize("n", [1000, 2500])
    @pytest.mark.parametrize("model", ["normal", "buckling", "pile"])
    def test_model_bins(self, model, n):
        m = build_model(model)
        for seed in (0, 1, 2):
            bins, ccdf = run_subset_simulation(m, SsConfig(m=3, p0=0.1, n_per_level=n,
                                                           seed=seed))
            assert_matches_dense(bins, y_grid=ccdf.y)

    def test_grid_with_duplicates_longer_than_a_chunk(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=2, p0=0.1, n_per_level=1000, seed=3))
        rng = np.random.default_rng(3)
        grid = np.concatenate([ccdf.y, rng.choice(ccdf.y, 400), [ccdf.y[0]] * 5])
        rng.shuffle(grid)
        assert np.unique(grid).shape[0] > 1024 and grid.shape[0] > np.unique(grid).shape[0]
        curve = assert_matches_dense(bins, y_grid=grid)
        assert np.array_equal(curve.y, grid)

    def test_bins_of_unequal_counts(self):
        rng = np.random.default_rng(5)
        bins = []
        for count, loc, p in ((1300, 0.0, 0.5), (40, 2.0, 0.125), (700, 3.0, 0.375)):
            bins.append(Bin(y=rng.normal(loc, 0.3, count), g=rng.normal(size=(count, 2)),
                            probability=p, probability_exact=Fraction(p).limit_denominator(),
                            count=count))
        part = BinPartition(thresholds=np.array([1.5, 2.5]), bins=bins, param_names=("a", "b"))
        assert_matches_dense(part)
        assert_matches_dense(part, y_grid=np.linspace(-2.0, 5.0, 50))

    def test_narrow_fixed_width_underflow_and_subnormal_pairs(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=3, p0=0.1, n_per_level=1000, seed=4))
        w = 0.02
        arg = np.concatenate([-0.5 * ((b.y[None, :] - ccdf.y[:, None]) / w) ** 2
                              for b in bins.bins], axis=1)
        # pairs whose exp underflows to zero, pairs whose pdf is subnormal, and normal ones
        assert np.count_nonzero(arg < -746.0) > 1000
        assert np.count_nonzero((arg > -745.0) & (arg < -709.0)) > 1000
        assert np.count_nonzero(arg > -700.0) > 1000
        curve = assert_matches_dense(bins, KernelSpec(width_rule="fixed", width=w), ccdf.y)
        assert np.all(np.isfinite(curve.raw))
