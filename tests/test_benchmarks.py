import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from gradsens.benchmarks import (_CRN_BLOCK, analytic_buckling, analytic_normal,
                                 crn_central_difference, run_benchmark)
from gradsens.model import ModelDomainError, ModelSpec, ResponseModel, central_steps
from gradsens.numkit import RngStream
from gradsens.responses import (BucklingResponse, NormalResponse, PileResponse, SdofResponse,
                                build_model)

from helpers import FaultyNormal


class TestAnalyticNormal:
    def test_center_point(self):
        res = analytic_normal(np.array([1.0]), loc=1.0, scale=2.0, mix=0.5)
        assert res.f[0] == 0.5
        assert res.df[0, 0] == pytest.approx(scipy.stats.norm.pdf(0.0) / 2.0, rel=1e-14)
        assert res.df[0, 1] == 0.0

    def test_percentile_point(self):
        res = analytic_normal(np.array([3.3263]), loc=1.0, scale=1.0, mix=0.5)
        z = 2.3263
        assert res.f[0] == pytest.approx(0.01, rel=2e-3)
        assert res.df[0, 1] == pytest.approx(z * scipy.stats.norm.pdf(z), rel=1e-12)
        assert res.df[0, 1] == pytest.approx(0.0620, abs=2e-4)

    def test_mix_sensitivity_identically_zero(self):
        res = analytic_normal(np.linspace(-3.0, 6.0, 50))
        assert np.array_equal(res.df[:, 2], np.zeros(50))

    def test_density_is_ccdf_slope(self):
        y = np.linspace(-1.0, 5.0, 31)
        h = 1e-5
        slope = (analytic_normal(y + h).f - analytic_normal(y - h).f) / (2.0 * h)
        assert np.allclose(slope, -analytic_normal(y).df[:, 0], rtol=1e-8)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            analytic_normal(np.array([0.0]), scale=0.4, mix=0.5)

    def test_provenance(self):
        assert analytic_normal(np.array([0.0])).provenance == "analytic"


class TestAnalyticBuckling:
    def setup_method(self):
        self.model = BucklingResponse()

    def ref(self, y, load=None, k2=None):
        m = self.model
        return analytic_buckling(np.asarray(y, dtype=float),
                                 load=load if load is not None else m.load,
                                 k2=k2 if k2 is not None else m.k2,
                                 stiffness=m.k[0], height=m.height, stories=m.stories,
                                 load_cov=m.load_cov, lam0=m.lam0)

    def test_far_tail_vanishes(self):
        res = self.ref([50.0])
        assert res.f[0] < 1e-200
        assert np.all(np.abs(res.df[0]) < 1e-190)

    def test_matches_sampling(self):
        # CCDF against 2e5 direct draws of the closed-form response
        x = RngStream(60).standard_normal((200000, 5))
        y_samples = self.model.response_batch(x)
        for y in (1.1, 1.2, 1.3):
            emp = np.mean(y_samples >= y)
            ref = self.ref([y]).f[0]
            se = math.sqrt(max(ref * (1 - ref), 1e-12) / x.shape[0])
            assert abs(emp - ref) < 4.0 * se

    def test_sensitivities_match_fd_of_own_ccdf(self):
        y = np.linspace(1.05, 1.45, 50)
        base = self.ref(y)
        h = 1e-6
        m = self.model
        fd_load = (self.ref(y, load=m.load * (1 + h)).f
                   - self.ref(y, load=m.load * (1 - h)).f) / (2 * m.load * h)
        fd_k2 = (self.ref(y, k2=m.k2 * (1 + h)).f
                 - self.ref(y, k2=m.k2 * (1 - h)).f) / (2 * m.k2 * h)
        assert np.allclose(base.df[:, 0], fd_load, rtol=1e-6)
        assert np.allclose(base.df[:, 1], fd_k2, rtol=1e-6)

    def test_uniform_story_ratio(self):
        # with k2 = k the two margins coincide and the load sensitivity is
        # stories times the stiffness one, scaled by the parameter ratio
        m = self.model
        res = self.ref([1.25])
        ratio = res.df[0, 0] / res.df[0, 1]
        assert ratio == pytest.approx(-m.stories * m.k2 / m.load, rel=1e-12)


class PassThroughModel(ResponseModel):
    """y = x1 + used; CRN differences in the idle parameter cancel exactly."""

    def __init__(self):
        self.spec = ModelSpec(name="pass", input_dim=1,
                              params=(("used", 1.0), ("idle", 2.0)),
                              sensitivity_params=("used", "idle"))

    def response_batch(self, x, used=None, idle=None):
        return x[:, 0] + (1.0 if used is None else used)


class RecordingModel(ResponseModel):
    """y = x1 + used over three inputs, keeping every input block it is handed
    with a copy of its content: the CRN refills one buffer for every block."""

    def __init__(self, order):
        self.spec = ModelSpec(name="recording", input_dim=3,
                              params=(("used", 1.0), ("idle", 2.0)),
                              sensitivity_params=("used", "idle"), input_order=order)
        self.blocks = []

    def response_batch(self, x, used=None, idle=None):
        self.blocks.append((x, x.copy()))
        return x[:, 0] + (1.0 if used is None else used)


@pytest.mark.parametrize("order", ["C", "F"])
# two full blocks; eight full blocks, then a partial one ending in a partial chunk
@pytest.mark.parametrize("n_samples", [8192, 8 * _CRN_BLOCK + 300])
def test_crn_blocks_in_the_model_order(order, n_samples):
    model = RecordingModel(order)
    crn_central_difference(model, n_samples=n_samples, seed=6)
    draws = RngStream(6).standard_normal((n_samples, 3))
    starts = range(0, n_samples, _CRN_BLOCK)
    assert len(model.blocks) == 5 * len(starts)  # base, used +-, idle +-
    for k, lo in enumerate(starts):
        x, content = model.blocks[5 * k]
        assert all(b is x for b, _ in model.blocks[5 * k:5 * k + 5])
        assert x.flags[f"{order}_CONTIGUOUS"]
        assert np.array_equal(content.view(np.uint64),
                              draws[lo:lo + _CRN_BLOCK].view(np.uint64))
        if k:  # one buffer, refilled for every block
            assert np.shares_memory(x, model.blocks[5 * (k - 1)][0])


def test_crn_holds_one_input_block():
    # one 12.5 MiB sdof input block and a 2 MiB kick tile: 16.0 MiB.  Each more
    # block-sized array (a block drawn while the last is held, a scaled copy of
    # a block) adds 12.5 MiB
    model = SdofResponse()
    tracemalloc.start()
    try:
        crn_central_difference(model, n_samples=2 * _CRN_BLOCK, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * _CRN_BLOCK * model.spec.input_dim * 8


class TestCrnCentralDifference:
    def test_idle_parameter_cancels_exactly(self):
        res = crn_central_difference(PassThroughModel(), n_samples=5000, seed=1)
        assert np.array_equal(res.df[:, res.params.index("idle")], np.zeros_like(res.y))
        assert np.any(res.df[:, res.params.index("used")] != 0.0)

    def test_deterministic(self):
        m = NormalResponse()
        a = crn_central_difference(m, params=("loc",), n_samples=20000, seed=5)
        b = crn_central_difference(m, params=("loc",), n_samples=20000, seed=5)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.df, b.df)

    def test_matches_analytic_normal(self):
        # the CRN difference at threshold z has its own sampling noise
        # sigma_rel = 1/sqrt(2 h n pdf(z)) (only straddling samples contribute),
        # about 4.3% at F=1e-2 and 12% at F=1e-3 for these settings, so the
        # agreement band is 3 sigma with a 5% floor
        m = NormalResponse()
        n, h = 10**6, 0.01
        res = crn_central_difference(m, params=("loc",), n_samples=n,
                                     rel_step=h, seed=7)
        for f_probe in (0.1, 0.01, 3e-3, 1e-3):
            y = 1.0 + scipy.stats.norm.isf(f_probe)
            j = int(np.argmin(np.abs(res.y - y)))
            exact = analytic_normal(res.y[j : j + 1]).df[0, 0]
            sigma_rel = 1.0 / math.sqrt(2.0 * h * n * exact)
            assert res.df[j, 0] == pytest.approx(exact, rel=max(0.05, 3.0 * sigma_rel))

    def test_variance_blowup_without_common_numbers(self):
        # independent up/down sample sets inflate the FD standard deviation by
        # an order of magnitude at n = 1e4 and a 0.5% step, at y = 1.0 (each CRN
        # at its grid point nearest 1.0)
        m = NormalResponse()
        h, n, y = 5e-3, 10**4, 1.0
        crn, indep = [], []
        for r in range(30):
            res = crn_central_difference(m, params=("loc",), n_samples=n,
                                         rel_step=h, seed=100 + r)
            crn.append(res.df[np.argmin(np.abs(res.y - y)), 0])
            xp = RngStream(500 + r, 1).standard_normal((n, 2))
            xm = RngStream(900 + r, 1).standard_normal((n, 2))
            fp = np.mean(m.response_batch(xp, loc=1.0 + h) >= y)
            fm = np.mean(m.response_batch(xm, loc=1.0 - h) >= y)
            indep.append((fp - fm) / (2.0 * h))
        ratio = np.std(indep, ddof=1) / np.std(crn, ddof=1)
        assert ratio >= 10.0

    def test_provenance_and_metadata(self):
        res = crn_central_difference(NormalResponse(), n_samples=4000,
                                     rel_step=0.02, seed=3)
        assert res.provenance == "crn_fd"
        assert res.n_samples == 4000
        assert res.fd_step == 0.02
        assert np.all(np.diff(res.f) <= 0.0)
        assert np.all(np.diff(res.y) >= 0.0)

    def test_buckling_analytic_agrees_with_crn(self):
        # cross-oracle agreement on the model with both references available
        m = BucklingResponse()
        res = crn_central_difference(m, n_samples=10**6, rel_step=0.01, seed=11)
        ref = analytic_buckling(res.y, load=m.load, k2=m.k2, stiffness=m.k[0],
                                height=m.height, stories=m.stories,
                                load_cov=m.load_cov, lam0=m.lam0)
        band = ref.f >= 1e-3
        for j in (0, 1):
            assert np.allclose(res.df[band, j], ref.df[band, j],
                               rtol=0.10, atol=0.02 * np.abs(ref.df[band, j]).max())

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            crn_central_difference(NormalResponse(), rel_step=0.0, n_samples=100)

    @pytest.mark.parametrize("n, params", [(0, None), (-3, None), (9, None), (10, None),
                                           (10, ("loc",))])
    def test_rejects_too_few_samples(self, n, params):
        # the grid runs from the exceedance level 0.999 down to 10 / n
        with pytest.raises(ValueError, match=f"n_samples={n}"):
            crn_central_difference(NormalResponse(), params=params, n_samples=n)

    def test_fewest_samples_give_a_monotone_default_grid(self):
        # at 10 samples the grid ran backwards: y fell and the CCDF rose
        res = crn_central_difference(NormalResponse(), n_samples=11, grid_points=8)
        assert np.all(np.diff(res.y) >= 0.0)
        assert np.all(np.diff(res.f) <= 0.0)

    @pytest.mark.parametrize("fault, message", [
        # unchecked, the NaN rows sort last and count as exceedances: F(10) = 0.07
        ("nan", "non-finite output for 311 of 4096 rows in CRN rows 0-4096 with overrides {}"),
        ("nan-moved", "rows in CRN rows 0-4096 with overrides {'loc': 1.01}"),
        ("column", "shapes (4096, 1) for 4096 rows"),
    ], ids=["nan", "nan-moved", "column"])
    def test_rejects_bad_model_output(self, fault, message):
        with pytest.raises(ModelDomainError, match=re.escape(message)):
            crn_central_difference(FaultyNormal(fault), n_samples=5000, seed=1)

    def test_rejects_a_missing_override_set(self):
        # a short result would otherwise end in an IndexError, an internal error
        message = "shape (6, 4096) for 7 parameter override sets in CRN rows 0-4096"
        with pytest.raises(ModelDomainError, match=re.escape(message)):
            crn_central_difference(FaultyNormal("sets"), n_samples=5000, seed=1)


def two_pass_crn(model, params=None, n_samples=10**6, rel_step=0.01, seed=0,
                 grid_points=256):
    """Two-pass CRN differences, the bitwise reference for
    ``crn_central_difference``: base responses first, then the same draws
    again, counting the exceedances of each perturbed block as it comes."""
    params = tuple(params or model.spec.sensitivity_params)
    steps = [central_steps(model.spec.value(name), rel_step) for name in params]
    n_dim = model.spec.input_dim
    stream = RngStream(seed)
    base = np.empty(n_samples)
    for lo in range(0, n_samples, _CRN_BLOCK):
        hi = min(lo + _CRN_BLOCK, n_samples)
        base[lo:hi] = model.response_batch(stream.standard_normal((hi - lo, n_dim)))
    base.sort()
    levels = np.logspace(math.log10(0.999), math.log10(max(10.0 / n_samples, 1e-6)),
                         grid_points)
    y_grid = np.quantile(base, 1.0 - levels)
    f_base = (n_samples - np.searchsorted(base, y_grid, side="left")) / n_samples
    counts = np.zeros((len(params), 2, y_grid.shape[0]))
    stream = RngStream(seed)
    for lo in range(0, n_samples, _CRN_BLOCK):
        hi = min(lo + _CRN_BLOCK, n_samples)
        x = stream.standard_normal((hi - lo, n_dim))
        for pi, name in enumerate(params):
            for si, value in enumerate(steps[pi][:2]):
                yb = np.sort(model.response_batch(x, **{name: value}))
                counts[pi, si] += (hi - lo) - np.searchsorted(yb, y_grid, side="left")
    df = (counts[:, 0] - counts[:, 1]).T / (n_samples * np.array([s[2] for s in steps]))
    return y_grid, f_base, df


class TestTwoPassReference:
    """One pass over the input blocks gives the bits of two passes."""

    @pytest.mark.parametrize("model, kwargs", [
        # ten blocks, the last one partial
        (SdofResponse(), dict(n_samples=40_000, seed=3, grid_points=64)),
        # two full blocks and a 1-row block: numpy's matrix-vector path
        (SdofResponse(), dict(n_samples=2 * _CRN_BLOCK + 1, seed=8, grid_points=64)),
        # five full blocks and a 100-row tail: pile's field rounds by row count
        (PileResponse(), dict(n_samples=20_580, seed=9, grid_points=64)),
        (PileResponse(), dict(params=("B",), rel_step=0.02, n_samples=5000, seed=4)),
        (NormalResponse(), dict(n_samples=20_000, seed=5, grid_points=57)),
    ], ids=["sdof", "sdof-1-row-tail", "pile-100-row-tail", "pile-B", "normal-grid"])
    def test_bitwise_equal(self, model, kwargs):
        res = crn_central_difference(model, **kwargs)
        for got, ref in zip((res.y, res.f, res.df), two_pass_crn(model, **kwargs)):
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert np.any(res.df != 0.0)


@pytest.mark.parametrize("name", ["normal", "buckling", "sdof"])
@pytest.mark.parametrize("points", [0, 1])
def test_run_benchmark_rejects_short_grid(name, points):
    with pytest.raises(ValueError, match=f"grid_points={points}"):
        run_benchmark(build_model(name), None, 100, 0.01, 0, grid_points=points)


@pytest.mark.parametrize("name,rel", [("normal", 1e-13), ("buckling", 1e-11)])
@pytest.mark.parametrize("points", [17, 256])
def test_analytic_grid_at_log_spaced_levels(name, rel, points):
    # the analytic grid sits where the exact CCDF takes log-spaced levels
    res = run_benchmark(build_model(name), None, 100, 0.01, 0, grid_points=points)
    assert res.provenance == "analytic"
    assert np.all(np.diff(res.y) > 0.0)
    levels = np.logspace(math.log10(0.999), -4, points)
    assert np.max(np.abs(res.f / levels - 1.0)) <= rel
