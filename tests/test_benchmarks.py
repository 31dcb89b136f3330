import math

import numpy as np
import pytest
import scipy.stats

from gradsens.benchmarks import analytic_buckling, analytic_normal, crn_central_difference
from gradsens.model import ModelSpec, ResponseModel
from gradsens.numkit import RngStream
from gradsens.responses import BucklingResponse, NormalResponse


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
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x[:, 0] + (1.0 if used is None else used)


class TestCrnCentralDifference:
    def test_idle_parameter_cancels_exactly(self):
        res = crn_central_difference(PassThroughModel(), n_samples=5000, seed=1)
        assert np.array_equal(res.column("idle"), np.zeros_like(res.y))
        assert np.any(res.column("used") != 0.0)

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
        # an order of magnitude at n = 1e4 and a 0.5% step
        m = NormalResponse()
        h, n, y = 5e-3, 10**4, np.array([1.0])
        crn, indep = [], []
        for r in range(30):
            res = crn_central_difference(m, params=("loc",), n_samples=n,
                                         rel_step=h, seed=100 + r, y_grid=y)
            crn.append(res.df[0, 0])
            xp = RngStream(500 + r, 1).standard_normal((n, 2))
            xm = RngStream(900 + r, 1).standard_normal((n, 2))
            fp = np.mean(m.response_batch(xp, loc=1.0 + h) >= y[0])
            fm = np.mean(m.response_batch(xm, loc=1.0 - h) >= y[0])
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

    @pytest.mark.parametrize("n, y_grid", [(0, None), (-3, None), (9, None), (0, [1.0])])
    def test_rejects_too_few_samples(self, n, y_grid):
        # the default grid reaches down to the exceedance level 10 / n
        with pytest.raises(ValueError, match=f"n_samples={n}"):
            crn_central_difference(NormalResponse(), n_samples=n, y_grid=y_grid)

    def test_few_samples_on_a_given_grid(self):
        res = crn_central_difference(NormalResponse(), params=("loc",), n_samples=4,
                                     y_grid=[-10.0, 10.0])
        assert np.array_equal(res.f, [1.0, 0.0])
        assert np.array_equal(res.df, [[0.0], [0.0]])
