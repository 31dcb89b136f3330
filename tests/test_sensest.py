import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from gradsens.numkit import RngStream, std_normal_pdf
from gradsens.responses import NormalResponse, build_model
from gradsens.sensest import (DegenerateResponseError, KernelSpec, _fill_pdf,
                              fractional_measure, normalize_curve, scott_width,
                              sensitivity_subsim)
from gradsens.subsim import Bin, BinPartition, CcdfCurve, SsConfig, run_subset_simulation

from helpers import dense_reference, one_bin

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

    # an infinite width would flatten every kernel to zero: all-zero dF columns; a
    # subnormal one overflows the bin weight P_i / (N_i w) to inf: all-NaN columns
    @pytest.mark.parametrize("bad", ["fixed", "fixed:0", "silverman", "fixed:-1", "fixed:inf",
                                     "fixed:nan", "scott:0.3", "fixed:1e-320"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            KernelSpec.parse(bad)

    def test_tiny_width_is_finite_without_warnings(self):
        # z overflows to inf off the exact hits, where the fill writes the pdf's +0.0
        y, g = NormalResponse().evaluate_batch(RngStream(12).standard_normal((200, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = one_bin_curve(y, g, KernelSpec.parse("fixed:1e-300"), y)
        assert np.all(np.isfinite(curve.raw))


def one_bin_curve(y, g, kernel, y_grid):
    return sensitivity_subsim(one_bin(y, g), kernel, y_grid)


def two_pass_sigma(bins):
    """The response's spread about its mean, bins combined by their probabilities."""
    mean = sum(b.probability * np.mean(b.y) for b in bins.bins)
    return math.sqrt(sum(b.probability * np.mean((b.y - mean) ** 2) for b in bins.bins))


SCOTT = KernelSpec()
GLOBAL = KernelSpec(width_rule="scott-global")


class TestResponseMoments:
    """The scott-global spread: two passes, bins combined by their probabilities."""

    def test_direct_mc_equals_sample_moments(self):
        # on one bin the two-pass spread is np.std's own arithmetic
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=500, seed=5))
        assert (sensitivity_subsim(bins, GLOBAL, ccdf.y).widths
                == sensitivity_subsim(bins, SCOTT, ccdf.y).widths)

    def test_constant_response_gives_zero_variance(self):
        m = NormalResponse()
        bins, _ = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=100, seed=5))
        bins.bins[0].y = np.full(100, 3.0)
        with pytest.raises(DegenerateResponseError):
            sensitivity_subsim(bins, GLOBAL, [3.0])

    @pytest.mark.parametrize("kernel", [SCOTT, GLOBAL], ids=["scott", "scott-global"])
    @pytest.mark.parametrize("c", [7.3, -7.3])
    def test_constant_response_with_roundoff_spread(self, kernel, c):
        # np.mean of 900 copies of 7.3 is not 7.3: the spread is a few eps |c|, not 0
        bins, _ = run_subset_simulation(NormalResponse(), SsConfig(**DEFAULT, seed=1))
        for b in bins.bins:
            b.y = np.full(b.count, c)
        assert np.std(bins.bins[0].y) > 0.0
        with pytest.raises(DegenerateResponseError, match="in bin 0 of 900 samples"):
            sensitivity_subsim(bins, kernel, [c])

    def test_subsim_moments_recover_unconditional(self):
        # the total-probability spread from 200 SS runs of the unit normal response
        m = NormalResponse()
        sigmas = []
        for r in range(200):
            bins, _ = run_subset_simulation(m, SsConfig(**DEFAULT, seed=3000 + r))
            widths = sensitivity_subsim(bins, GLOBAL, y_grid=[1.0]).widths
            sigmas.append(widths[0] / (4.0 / (3.0 * bins.bins[0].count)) ** 0.2)
        assert np.mean(sigmas) == pytest.approx(1.0, abs=0.1)

    def test_far_location_gives_the_same_widths(self):
        # E[Y^2] - E[Y]^2 at loc = 1e8 came out negative (-2.0) from cancellation
        config = SsConfig(**DEFAULT, seed=1)
        near, _ = run_subset_simulation(NormalResponse(loc=1.0), config)
        far, _ = run_subset_simulation(NormalResponse(loc=1e8), config)
        widths = sensitivity_subsim(far, GLOBAL, y_grid=[1e8]).widths
        assert np.allclose(widths, sensitivity_subsim(near, GLOBAL, y_grid=[1.0]).widths,
                           rtol=1e-6, atol=0.0)


class TestDirectMcEstimator:
    def test_zero_gradients_zero_curve(self):
        y = RngStream(50).standard_normal(500)
        curve = one_bin_curve(y, np.zeros((500, 2)), SCOTT, y)
        assert np.array_equal(curve.raw, np.zeros((500, 2)))

    def test_recovers_normal_density_at_center(self):
        # loc-sensitivity of the normal response is the unit normal pdf
        m = NormalResponse()
        x = RngStream(51).standard_normal((10**6, 2))
        y, g = m.evaluate_batch(x)
        curve = one_bin_curve(y, g[:, :1], SCOTT, np.array([1.0]))
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
                est.append(one_bin_curve(y, g[:, :1], kern, np.array([1.0])).raw[0, 0])
            bias[w] = abs(np.mean(est) - exact)
        assert bias[0.1] < bias[0.2]

    def test_one_row_memory_peak(self):
        # criterion 3's call at a fifth of its size: the (rows, samples) kernel
        # chunk and the fill's two scratch arrays, sized for one row: 3.2 MiB
        # at 2e5 samples; scratch for 32 rows would take 55 MiB
        y, g = NormalResponse().evaluate_batch(RngStream(58).standard_normal((200_000, 2)))
        part = one_bin(y, g[:, :1])
        kernel = KernelSpec(width_rule="fixed", width=0.1)
        tracemalloc.start()
        try:
            sensitivity_subsim(part, kernel, np.array([1.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            one_bin_curve(np.array([1.0]), np.array([[1.0]]), SCOTT, [1.0])

    def test_linearity_in_gradients(self):
        y = RngStream(53).standard_normal(300)
        g = RngStream(54).standard_normal((300, 1))
        base = one_bin_curve(y, g, SCOTT, y)
        tripled = one_bin_curve(y, 3.0 * g, SCOTT, y)
        assert np.allclose(tripled.raw, 3.0 * base.raw, rtol=1e-12)

    def test_reflection_symmetry(self):
        y = RngStream(55).standard_normal(200)
        g = RngStream(56).standard_normal((200, 1))
        half = np.linspace(0.0, 2.0, 21)
        grid = np.concatenate([-half[::-1], half[1:]])  # bitwise sign-symmetric
        kern = KernelSpec(width_rule="fixed", width=0.3)
        a = one_bin_curve(y, g, kern, grid)
        b = one_bin_curve(-y, g, kern, -grid)
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
        curve = one_bin_curve(y, g, kern, grid)
        integral = np.trapezoid(curve.raw[:, 0], grid)
        assert integral == pytest.approx(np.mean(g[:, 0]), rel=1e-3)


class TestSubsimEstimator:
    def test_single_level_identical_to_direct(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=400, seed=6))
        via_subsim = sensitivity_subsim(bins, SCOTT, ccdf.y)
        b = bins.bins[0]
        via_direct = one_bin_curve(b.y, b.g, SCOTT, ccdf.y)
        assert np.array_equal(via_subsim.raw, via_direct.raw)
        assert via_subsim.widths == via_direct.widths

    def test_all_bins_contribute(self):
        # zeroing one bin's gradients changes the estimate at distant thresholds:
        # kernels cross bin boundaries
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(**DEFAULT, seed=8))
        base = sensitivity_subsim(bins, SCOTT, ccdf.y)
        bins.bins[0].g = np.zeros_like(bins.bins[0].g)
        pruned = sensitivity_subsim(bins, SCOTT, ccdf.y)
        top = np.searchsorted(ccdf.y, bins.thresholds[-1])
        assert not np.allclose(base.raw[top:], pruned.raw[top:])

    def test_rows_index_the_grid_with_its_copies(self):
        # rows index y_grid itself, unsorted and with copies: one selected copy
        # evaluates its value, every copy of it carries the estimate
        bins, ccdf = run_subset_simulation(NormalResponse(),
                                           SsConfig(m=2, p0=0.1, n_per_level=200, seed=3))
        grid = np.concatenate([ccdf.y[::-1], ccdf.y[:5], ccdf.y[-40:]])
        k = 5  # a copy of the 6th highest threshold; the 6th lowest unique value is not
        copies = grid == grid[k]
        assert np.count_nonzero(copies) >= 2
        part = sensitivity_subsim(bins, SCOTT, grid, rows=[k])
        full = sensitivity_subsim(bins, SCOTT, grid)
        assert np.array_equal(part.y, grid)
        assert np.array_equal(part.raw[copies].view(np.uint64), full.raw[copies].view(np.uint64))
        assert np.isnan(part.raw[~copies]).all()

    def test_scott_global_widths_follow_spec_formula(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(**DEFAULT, seed=10))
        curve = sensitivity_subsim(bins, GLOBAL, ccdf.y)
        sigma = two_pass_sigma(bins)
        assert curve.widths == tuple(scott_width(sigma, b.count) for b in bins.bins)

    def test_default_widths_use_bin_spread(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(**DEFAULT, seed=10))
        curve = sensitivity_subsim(bins, SCOTT, ccdf.y)
        expected = tuple(scott_width(float(np.std(b.y)), b.count) for b in bins.bins)
        assert curve.widths == expected
        # tail bins are much narrower than the whole-response spread implies
        assert curve.widths[2] < 0.5 * scott_width(two_pass_sigma(bins), 1000)


class TestNormalizeCurve:
    def test_zero_raw_zero_measures(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=200, seed=3))
        bins.bins[0].g = np.zeros_like(bins.bins[0].g)
        curve = sensitivity_subsim(bins, SCOTT, ccdf.y)
        curve = normalize_curve(curve, ccdf, m.spec)
        for p in curve.params:
            assert np.array_equal(curve.column(p, "scaled"), np.zeros_like(curve.y))
            assert np.array_equal(curve.column(p, "fractional"), np.zeros_like(curve.y))

    def test_scaling_columns(self):
        m = NormalResponse(loc=2.0, scale=1.5, mix=0.5)
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=200, seed=4))
        curve = normalize_curve(sensitivity_subsim(bins, SCOTT, ccdf.y), ccdf, m.spec)
        assert np.allclose(curve.column("loc", "scaled"), 2.0 * curve.raw[:, 0], rtol=1e-15)
        assert np.allclose(curve.column("scale", "fractional"), 1.5 * curve.raw[:, 1] / ccdf.f,
                           rtol=1e-15)

    def test_zero_ccdf_flagged_nan(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=200, seed=4))
        f = ccdf.f.copy()
        f[-1] = 0.0
        curve = sensitivity_subsim(bins, SCOTT, ccdf.y)
        curve = normalize_curve(curve, CcdfCurve(y=ccdf.y, f=f), m.spec)
        frac = np.stack([curve.column(p, "fractional") for p in curve.params], axis=1)
        assert np.all(np.isnan(frac[-1]))
        assert np.all(np.isfinite(frac[:-1]))

    @pytest.mark.parametrize("name", ["normal", "pile"])
    def test_columns_match_stored_measures_bitwise(self, name):
        # the arrays normalize_curve stored before column derived them
        m = build_model(name)
        bins, ccdf = run_subset_simulation(m, SsConfig(m=2, p0=0.1, n_per_level=200, seed=5))
        f = ccdf.f.copy()
        f[-3:] = 0.0  # NaN in the fractional measure
        curve = normalize_curve(sensitivity_subsim(bins, SCOTT, ccdf.y),
                                CcdfCurve(y=ccdf.y, f=f), m.spec)
        values = np.array([m.spec.value(p) for p in curve.params])
        scaled = curve.raw * values[None, :]
        stored = {"raw": curve.raw, "scaled": scaled,
                  "fractional": fractional_measure(scaled, f)}
        for j, p in enumerate(curve.params):
            for which, ref in stored.items():
                got = curve.column(p, which)
                assert got.shape == ref[:, j].shape
                assert np.array_equal(got.view(np.uint64), ref[:, j].view(np.uint64))

    def test_unknown_measure_rejected(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=200, seed=4))
        curve = normalize_curve(sensitivity_subsim(bins, SCOTT, ccdf.y), ccdf, m.spec)
        with pytest.raises(ValueError, match="unknown measure 'ccdf'"):
            curve.column("loc", "ccdf")

    def test_grid_mismatch_rejected(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=200, seed=4))
        curve = sensitivity_subsim(bins, SCOTT, ccdf.y[:-1])
        with pytest.raises(ValueError):
            normalize_curve(curve, ccdf, m.spec)


def assert_matches_dense(bins, kernel, y_grid):
    curve = sensitivity_subsim(bins, kernel, y_grid)
    expected = dense_reference(bins, curve.widths, y_grid)
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
            assert_matches_dense(bins, SCOTT, ccdf.y)

    def test_grid_with_duplicates_longer_than_a_chunk(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(m=2, p0=0.1, n_per_level=1000, seed=3))
        rng = np.random.default_rng(3)
        grid = np.concatenate([ccdf.y, rng.choice(ccdf.y, 400), [ccdf.y[0]] * 5])
        rng.shuffle(grid)
        assert np.unique(grid).shape[0] > 1024 and grid.shape[0] > np.unique(grid).shape[0]
        curve = assert_matches_dense(bins, SCOTT, grid)
        assert np.array_equal(curve.y, grid)

    def test_bins_of_unequal_counts(self):
        rng = np.random.default_rng(5)
        bins = []
        for count, loc, p in ((1300, 0.0, 0.5), (40, 2.0, 0.125), (700, 3.0, 0.375)):
            bins.append(Bin(y=rng.normal(loc, 0.3, count), g=rng.normal(size=(count, 2)),
                            probability=p))
        part = BinPartition(thresholds=np.array([1.5, 2.5]), bins=bins, param_names=("a", "b"))
        assert_matches_dense(part, SCOTT, np.sort(np.concatenate([b.y for b in bins])))
        assert_matches_dense(part, SCOTT, np.linspace(-2.0, 5.0, 50))

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


@pytest.mark.parametrize("width", ["fixed:0.02", "scott"])
def test_kernel_fill_has_no_subnormal_entries(width):
    """Every kernel entry is +0.0 or a normal double: pairs whose exact pdf is
    subnormal come out as +0.0, and the others equal ``std_normal_pdf`` bit for
    bit.  The narrow fixed width flushes many pairs; at the scott width, rows at
    a bin's own samples make blocks where nothing underflows, so the fill skips
    its clamp passes and must still give every entry's bits."""
    m = NormalResponse()
    bins, ccdf = run_subset_simulation(m, SsConfig(m=3, p0=0.1, n_per_level=1000, seed=4))
    tiny = np.finfo(float).tiny
    subnormal = flushed_total = 0
    for b in bins.bins:
        if width == "scott":
            w, rows = scott_width(float(np.std(b.y)), b.count), np.sort(b.y)
        else:
            w, rows = 0.02, ccdf.y
        for lo in range(0, rows.shape[0], 500):
            c = rows[lo : lo + 500]
            out = np.full((c.shape[0], b.count), np.nan)
            _fill_pdf(out, b.y, c, w, np.empty(out.size, dtype=bool))
            exact = std_normal_pdf((b.y[None, :] - c[:, None]) / w)
            assert np.all(out[out != 0.0] >= tiny)
            flushed = exact < tiny
            flushed_total += np.count_nonzero(flushed)
            subnormal += np.count_nonzero(flushed & (exact > 0.0))
            assert np.all(out.view(np.uint64)[flushed] == 0)  # +0.0, sign bit clear
            assert np.array_equal(out.view(np.uint64)[~flushed], exact.view(np.uint64)[~flushed])
    if width == "scott":
        assert flushed_total == 0
    else:
        assert subnormal > 1000
