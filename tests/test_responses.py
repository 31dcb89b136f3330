import math
import tracemalloc

import numpy as np
import pytest

from gradsens.model import ModelDomainError, fd_gradient_batch
from gradsens.numkit import RepeatedEigenvalueError, RngStream, smallest_gen_eigenpair
from gradsens.responses import (BucklingResponse, NormalResponse, PileResponse,
                                SdofResponse, build_model, lognormal_shift)

from helpers import critical_story, pile_field, simulate


class TestNormalResponse:
    def test_point_values(self):
        m = NormalResponse(loc=1.0, scale=1.0, mix=0.5)
        y, g = m.evaluate_batch(np.array([[1.0, 0.0]]))
        s = math.sqrt(0.75)
        assert y[0] == pytest.approx(1.0 + s, rel=1e-15)
        assert g[0, 1] == pytest.approx(1.0 / s, rel=1e-14)      # 1.1547005
        assert g[0, 2] == pytest.approx(-0.5 / s, rel=1e-14)     # -0.5773503

    def test_mix_gradient_second_input(self):
        _, g = NormalResponse().evaluate_batch(np.array([[0.0, 1.0]]))
        assert g[0, 2] == 1.0

    def test_mix_gradient_uncorrelated_with_response(self):
        # cov(Y, dY/dmix) is exactly zero; check within 3 standard errors
        m = NormalResponse()
        x = RngStream(81).standard_normal((10**6, 2))
        y, g = m.evaluate_batch(x)
        c = np.cov(y, g[:, 2])[0, 1]
        se = math.sqrt(np.var(y) * np.var(g[:, 2]) / x.shape[0])
        assert abs(c) < 3.0 * se

    def test_invalid_parameters(self):
        with pytest.raises(ModelDomainError):
            NormalResponse(scale=0.5, mix=0.5)


class TestBucklingResponse:
    def test_unity_at_mean_loads(self):
        m = BucklingResponse()
        assert m.response_batch(np.zeros((1, 5)))[0] == pytest.approx(1.0, rel=1e-14)
        # through the eigen path: lam0 normalizes the x = 0 eigenvalue exactly
        w = m._loads(np.zeros((1, 5)), m.load)
        from gradsens.responses import _shear_matrix
        lam, _ = smallest_gen_eigenpair(m._K[None], _shear_matrix(w / m.height))
        assert m.lam0 / lam[0] == 1.0

    def test_gradients_degenerate_at_mean_loads(self):
        # exactly tied stories: repeated eigenvalue, derivative must refuse
        with pytest.raises(RepeatedEigenvalueError):
            BucklingResponse().evaluate_batch(np.zeros((1, 5)))

    def test_eigen_path_matches_closed_form(self):
        m = BucklingResponse()
        x = RngStream(82).standard_normal((200, 5))
        y_eig, _ = m.evaluate_batch(x)
        y_max = m.response_batch(x)
        assert np.allclose(y_eig, y_max, rtol=1e-9)

    def test_gradients_match_piecewise_closed_form(self):
        m = BucklingResponse()
        x = RngStream(83).standard_normal((300, 5))
        y, g = m.evaluate_batch(x)
        star = critical_story(m, x)
        # common load mean scales the response linearly
        assert np.allclose(g[:, 0], y / m.load, rtol=1e-8)
        # second-story stiffness only matters when story 2 is critical
        expected = np.where(star == 1, -y / m.k2, 0.0)
        assert np.allclose(g[:, 1], expected, rtol=1e-8, atol=1e-12)

    def test_zero_gradient_fraction_near_80_percent(self):
        m = BucklingResponse()
        x = RngStream(84).standard_normal((20000, 5))
        frac = np.mean(critical_story(m, x) != 1)
        assert frac == pytest.approx(0.8, abs=0.012)  # ~4 binomial sigma

    def test_fd_matches_analytic_gradients(self):
        m = BucklingResponse()
        rng = RngStream(85)
        x = rng.standard_normal((100, 5))
        # skip draws whose critical story flips inside the FD stencil
        keep = (critical_story(m, x, k2=m.k2 * (1 + 1e-5))
                == critical_story(m, x, k2=m.k2 * (1 - 1e-5)))
        assert keep.mean() > 0.9
        _, g = m.evaluate_batch(x[keep])
        g_fd = fd_gradient_batch(m, x[keep], 1e-5)
        assert np.allclose(g_fd, g, rtol=1e-3, atol=1e-9)

    def test_lognormal_shift_constants(self):
        a, b = lognormal_shift(0.1)
        assert a == pytest.approx(-4.975e-3, rel=1e-3)
        assert b == pytest.approx(9.975e-2, rel=1e-3)


def sdof_pulse_oracle(m, w0):
    """Closed-form response to a one-interval rectangular pulse of height w0.

    Step response while the pulse is on, then free decay from the state at dt.
    """
    z, w, dt = m.zeta, m.omega, m.dt
    wd = w * math.sqrt(1.0 - z * z)
    t1 = dt
    e1 = math.exp(-z * w * t1)
    u1 = (w0 / w**2) * (1.0 - e1 * (math.cos(wd * t1) + z * w / wd * math.sin(wd * t1)))
    v1 = (w0 / wd) * e1 * math.sin(wd * t1)
    out = np.zeros(m.n)
    for j in range(1, m.n):
        t = j * dt
        if t <= t1 + 1e-12:
            e = math.exp(-z * w * t)
            out[j] = (w0 / w**2) * (1.0 - e * (math.cos(wd * t) + z * w / wd * math.sin(wd * t)))
        else:
            tau = t - t1
            e = math.exp(-z * w * tau)
            out[j] = e * (u1 * math.cos(wd * tau) + (v1 + z * w * u1) / wd * math.sin(wd * tau))
    return out


class TestSdofResponse:
    def test_rest_input(self):
        y, g = SdofResponse().evaluate_batch(np.zeros((1, 400)))
        assert y[0] == 0.0
        assert np.array_equal(g[0], [0.0, 0.0])

    def test_pulse_matches_closed_form(self):
        m = SdofResponse()
        x = np.zeros((1, 400))
        x[0, 0] = 1.0
        u = simulate(m, x)[0]
        ref = sdof_pulse_oracle(m, m.scale)
        assert np.max(np.abs(u - ref)) < 1e-6 * np.max(np.abs(ref))

    def test_superposition(self):
        m = SdofResponse()
        rng = RngStream(86)
        x1 = rng.standard_normal((3, 400))
        x2 = rng.standard_normal((3, 400))
        u = simulate(m, x1 + x2)
        scale = np.max(np.abs(u))
        assert np.allclose(u, simulate(m, x1) + simulate(m, x2), atol=1e-12 * scale)

    def test_needs_two_output_instants(self):
        # one instant is u(0) = 0 at rest: no step runs and y = 0 for every input
        with pytest.raises(ModelDomainError, match="a whole number of at least 2 steps"):
            SdofResponse(dt=20.0)
        m = SdofResponse(dt=10.0)
        assert m.n == 2 and m.response_batch(np.ones((1, 2)))[0] > 0.0

    def test_last_input_has_no_effect(self):
        # y runs over u(j dt), j < n, so the final white-noise ordinate is idle
        m = SdofResponse()
        x = RngStream(87).standard_normal((1, 400))
        x2 = x.copy()
        x2[0, -1] += 10.0
        assert m.response_batch(x)[0] == m.response_batch(x2)[0]

    def test_response_is_peak_of_trajectory(self):
        # response_batch keeps a running maximum of the recursion simulate records
        m = SdofResponse()
        x = RngStream(90).standard_normal((5, 400))
        for kw in ({}, {"zeta": 0.02}, {"omega": 6.0}):
            y = m.response_batch(x, **kw)
            assert np.array_equal(y, np.abs(simulate(m, x, **kw)).max(axis=1))

    def test_gradient_paths_consistent(self):
        # y from the 6-state gradient pass equals the 2-state response pass
        m = SdofResponse()
        x = RngStream(88).standard_normal((20, 400))
        y6, _ = m.evaluate_batch(x)
        y2 = m.response_batch(x)
        assert np.allclose(y6, y2, rtol=1e-10)

    def test_fd_matches_analytic_gradients(self):
        m = SdofResponse()
        x = RngStream(89).standard_normal((100, 400))
        h = 1e-5
        keep = np.ones(100, dtype=bool)
        for name, v in (("zeta", m.zeta), ("omega", m.omega)):
            up = np.argmax(np.abs(simulate(m, x, **{name: v * (1 + h)})), axis=1)
            dn = np.argmax(np.abs(simulate(m, x, **{name: v * (1 - h)})), axis=1)
            keep &= up == dn
        assert keep.mean() > 0.9
        y, g = m.evaluate_batch(x[keep])
        g_fd = fd_gradient_batch(m, x[keep], h)
        rel = np.linalg.norm(g_fd - g, axis=1) / np.linalg.norm(g, axis=1)
        assert np.all(rel <= 1e-3)


def row_states(m, x, zeta=None, omega=None, full=False):
    """The sdof recursion on (batch, states) rows: the bitwise reference for
    the (states, batch) columns of ``SdofResponse._states``."""
    ad, bd = m._matrices(zeta, omega, full=full)
    ad_t = ad.T
    w = m.scale * x
    state = np.zeros((x.shape[0], bd.shape[0]))
    for j in range(m.n - 1):
        state = state @ ad_t + w[:, j, None] * bd
        yield state


def row_response(m, x, **kw):
    best = np.zeros(x.shape[0])
    for state in row_states(m, x, **kw):
        np.maximum(best, np.abs(state[:, 0]), out=best)
    return best


def row_simulate(m, x, **kw):
    u = np.zeros((x.shape[0], m.n))
    for j, state in enumerate(row_states(m, x, **kw), start=1):
        u[:, j] = state[:, 0]
    return u


def row_evaluate(m, x):
    traj = np.zeros((x.shape[0], m.n, 3))
    for j, state in enumerate(row_states(m, x, full=True), start=1):
        traj[:, j] = state[:, ::2]
    u = traj[:, :, 0]
    jstar = np.argmax(np.abs(u), axis=1)
    rows = np.arange(x.shape[0])
    upeak = u[rows, jstar]
    chi = np.where(upeak < 0.0, -1.0, 1.0)
    return np.abs(upeak), chi[:, None] * traj[rows, jstar, 1:]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


SDOF_OVERRIDES = ({}, {"zeta": 0.0101}, {"zeta": 0.0099},
                  {"omega": 2.0 * math.pi * 1.01}, {"omega": 2.0 * math.pi * 0.99})


class TestSdofRowReference:
    """The column-layout recursion equals the row recursion bit for bit."""

    @pytest.fixture(scope="class")
    def model(self):
        return SdofResponse()

    @staticmethod
    def block(nb, zero=False):
        return np.zeros((nb, 400)) if zero else RngStream(1000 + nb).standard_normal((nb, 400))

    @pytest.mark.parametrize("nb", [1, 2, 3, 7, 50, 100, 1000, 4097, 8192, 16384])
    def test_response_batch(self, model, nb):
        # one override per call, or all of them stacked in one recursion
        x = self.block(nb)
        sets = model.response_sets(x, SDOF_OVERRIDES)
        assert sets.shape == (len(SDOF_OVERRIDES), nb)
        for kw, y in zip(SDOF_OVERRIDES, sets):
            ref = row_response(model, x, **kw)
            assert same_bits(model.response_batch(x, **kw), ref), kw
            assert same_bits(y, ref), kw

    @pytest.mark.parametrize("nb", [1, 2, 3, 7, 50, 100, 1000])
    def test_simulate_and_evaluate(self, model, nb):
        x = self.block(nb)
        for kw in SDOF_OVERRIDES:
            assert same_bits(simulate(model, x, **kw), row_simulate(model, x, **kw)), kw
        y, g = model.evaluate_batch(x)
        y_ref, g_ref = row_evaluate(model, x)
        assert same_bits(y, y_ref)
        assert same_bits(g, g_ref)

    def test_all_zero_input(self, model):
        x = self.block(7, zero=True)
        assert same_bits(model.response_batch(x), row_response(model, x))
        assert same_bits(simulate(model, x), row_simulate(model, x))
        for got, ref in zip(model.evaluate_batch(x), row_evaluate(model, x)):
            assert same_bits(got, ref)

    # n - 1 = 1, 63, 64, 65 and 129 steps: a 1-step kick tile, a tile one step
    # short, one full tile, a full tile and one step, two full tiles and one step
    @pytest.mark.parametrize("duration", [0.1, 3.2, 3.25, 3.3, 6.5])
    def test_kick_tile_edges(self, duration):
        m = SdofResponse(duration=duration)
        x = RngStream(round(20 * duration)).standard_normal((100, m.n))
        for kw, y in zip(SDOF_OVERRIDES, m.response_sets(np.asfortranarray(x), SDOF_OVERRIDES)):
            assert same_bits(y, row_response(m, x, **kw)), kw
        for nb in (2, 7):
            for got, ref in zip(m.evaluate_batch(x[:nb]), row_evaluate(m, x[:nb])):
                assert same_bits(got, ref)

    def test_response_sets_memory_peak(self, model):
        # five (states, batch) sets, their next states and one (64, batch) kick
        # tile: 3.0 MiB on a 4096-row block; a scaled copy of the block would take 13.5 MiB
        x = np.asfortranarray(self.block(4096))
        tracemalloc.start()
        try:
            model.response_sets(x, SDOF_OVERRIDES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_evaluate_memory_peak(self, model):
        # the (n, 3, batch) trajectory and one (batch, n) |u| buffer: 12.4 MiB
        # at 1000 x 400; an argmax over axis 0 of |u| would add a 3.2 MB copy
        x = self.block(1000)
        tracemalloc.start()
        try:
            model.evaluate_batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20


def pile_oracle_at_mean(m):
    """Straight-line scalar reimplementation of the resistance formulas."""
    phi = m.mu * math.exp(-0.5 * math.log(1.0 + 0.17**2))
    gw = 20.0 - 9.81
    q_side = 0.0
    for i in range(1, 81):
        z = (i - 0.5) * 0.1
        q_side += gw * z * math.tan(phi)
    q_side *= math.pi * 0.9 * 0.1
    nq = math.tan(math.pi / 4 + phi / 2) ** 2 * math.exp(math.pi * math.tan(phi))
    ng = 2.0 * (nq + 1.0) * math.tan(phi)
    zqs = 1.0 + math.tan(phi)
    zqd = 1.0 + 2.0 * math.tan(phi) * (1.0 - math.sin(phi)) ** 2 * math.atan(8.0 / 0.9)
    q_tip = 0.25 * math.pi * 0.9**2 * (0.5 * 0.9 * gw * ng * 0.6 + 8.0 * gw * nq * zqs * zqd)
    wt = 0.25 * math.pi * 0.9**2 * 8.0 * (24.0 - 9.81)
    q_sls = 0.625 * 4.0 * (0.025 / 0.9) ** 0.4 * (q_side + q_tip - wt)
    return 800.0 / q_sls


class TestPileResponse:
    def test_design_load_scales_response_exactly(self):
        m1, m2 = PileResponse(), PileResponse()
        m2.design_load = 2.0 * m1.design_load
        x = RngStream(90).standard_normal((5, 120))
        assert np.array_equal(2.0 * m1.response_batch(x), m2.response_batch(x))

    def test_mean_field_against_straight_line_oracle(self):
        m = PileResponse()
        y = m.response_batch(np.zeros((1, 120)))[0]
        assert y == pytest.approx(pile_oracle_at_mean(m), rel=1e-10)

    def test_zone_average_at_mean(self):
        m = PileResponse()
        phi = pile_field(m, np.zeros((1, 120)))
        assert np.allclose(phi, m.mu * math.exp(m.u_ln), rtol=1e-14)

    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_field_built_in_place_has_the_expression_bits(self, rows):
        m = PileResponse()
        x = RngStream(96).standard_normal((rows, 120))
        assert same_bits(m._unit_field(x), np.exp(m.u_ln + m.s_ln * (x @ m.chol.T)))

    def test_field_correlation_reproduced(self):
        m = PileResponse()
        x = RngStream(91).standard_normal((10**5, 120))
        lg = np.log(pile_field(m, x))
        corr = np.corrcoef(lg, rowvar=False)
        target = np.exp(-2.0 / 4.0 * np.abs(m.z[:, None] - m.z[None, :]))
        assert np.max(np.abs(corr - target)) < 0.02

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("nb", [1, 2, 7, 120])
    def test_response_sets_rows_are_single_calls(self, nb, order):
        m = PileResponse()
        x = np.asarray(RngStream(93 + nb).standard_normal((nb, 120)), order=order)
        overrides = ({}, {"B": 0.9009}, {"B": 0.8991}, {"mu": 0.5590585}, {"mu": 0.5579415},
                     {"B": 1.0, "mu": 0.6})
        sets = m.response_sets(x, overrides)
        assert sets.shape == (len(overrides), nb)
        for kw, y in zip(overrides, sets):
            assert same_bits(y, m.response_batch(x, **kw)), kw

    def test_fd_gradient_is_the_per_call_formula(self):
        # one response_sets call gives the bits of two response_batch calls per parameter
        m = PileResponse()
        x = RngStream(94).standard_normal((33, 120))
        cols = []
        for name in m.spec.sensitivity_params:
            v = m.spec.value(name)
            cols.append((m.response_batch(x, **{name: v * (1.0 + 1e-3)})
                         - m.response_batch(x, **{name: v * (1.0 - 1e-3)})) / (2.0 * v * 1e-3))
        assert same_bits(fd_gradient_batch(m, x, 1e-3), np.stack(cols, axis=1))
        assert same_bits(m.gradient_batch(x), np.stack(cols, axis=1))

    def test_fd_step_halving_consistency(self):
        # the tip-zone top D - 8B sits exactly on a layer edge at the nominal
        # geometry, so the B-derivative keeps a one-sided curvature term of
        # order h: agreement plateaus near 2.5e-4 instead of the smooth-case h^2
        m = PileResponse()
        x = RngStream(92).standard_normal((20, 120))
        g3 = fd_gradient_batch(m, x, 1e-3)
        g4 = fd_gradient_batch(m, x, 1e-4)
        assert np.allclose(g3, g4, rtol=3e-4, atol=3e-6)
        assert np.allclose(g3[:, 1], g4[:, 1], rtol=1e-4)  # mu is smooth

    def test_tip_zone_inside_column(self):
        m = PileResponse()
        lo = m.D - min(8.0 * m.B, m.D)
        hi = m.D + 3.5 * m.B
        assert lo >= 0.0 and hi <= m.z[-1] + m.d / 2

    @pytest.mark.parametrize("kw", [{"depth": 12.5}, {"depth": 9.0}, {"diameter": 1.2}])
    def test_tip_zone_below_column_is_refused(self, kw):
        # the side friction would stop at the column's last layer, the zone
        # average would cover only the soil that exists
        with pytest.raises(ModelDomainError, match="below the 12 m soil column"):
            PileResponse(**kw)

    def test_tip_zone_reaching_the_column_bottom_builds(self):
        x = RngStream(94).standard_normal((3, 120))
        for m in (PileResponse(), PileResponse(depth=8.5, diameter=1.0)):  # 8.5 + 3.5 = 12 m
            assert np.all(np.isfinite(m.response_batch(x)))
        # the 0.1% central-difference steps of B stay inside at the defaults
        assert np.all(np.isfinite(fd_gradient_batch(PileResponse(), x, 1e-3)))

    def test_diameter_override_below_column_is_refused(self):
        m = PileResponse()
        x = RngStream(95).standard_normal((3, 120))
        with pytest.raises(ModelDomainError, match="tip influence zone ends at 12.2 m"):
            m.response_batch(x, B=1.2)
        with pytest.raises(ModelDomainError, match="tip influence zone ends at 12.2 m"):
            m.response_sets(x, ({}, {"B": 1.2}))


@pytest.mark.parametrize("name", ["normal", "buckling", "sdof", "pile"])
def test_evaluate_bit_deterministic(name):
    m = build_model(name)
    x = RngStream(93).standard_normal((1, m.spec.input_dim))
    (y1, g1), (y2, g2) = m.evaluate_batch(x), m.evaluate_batch(x)
    assert y1[0] == y2[0]
    assert np.array_equal(g1, g2)


def test_build_model_registry():
    for name, cls in (("normal", NormalResponse), ("buckling", BucklingResponse),
                      ("sdof", SdofResponse), ("pile", PileResponse)):
        assert isinstance(build_model(name), cls)
    with pytest.raises(ValueError):
        build_model("nope")


# Run in a fresh interpreter: the test process has loaded scipy.linalg already.
SCIPY_LINALG_PROBE = """\
import sys
import gradsens, gradsens.cli
for name in ("normal", "buckling", "pile"):
    gradsens.build_model(name)
print("scipy.linalg" in sys.modules)
gradsens.build_model("sdof")
print("scipy.linalg" in sys.modules)
"""


def test_scipy_linalg_loads_only_with_an_sdof_model(run_python, tmp_path):
    out = run_python(["-c", SCIPY_LINALG_PROBE], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
