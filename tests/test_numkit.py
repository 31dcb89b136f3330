import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special

from gradsens.numkit import (NotPositiveDefiniteError, RepeatedEigenvalueError, RngStream,
                             cholesky_lower, eigen_derivative, smallest_gen_eigenpair,
                             std_normal_ccdf, std_normal_ccdf_inv)


def bisect_ccdf_inv(p, lo=-40.0, hi=40.0):
    # independent root-find of P(Z >= x) = p on the CDF
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - scipy.special.ndtr(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStdNormal:
    def test_cdf_at_zero(self):
        assert std_normal_ccdf(0.0) == 0.5

    def test_cdf_deep_tail_against_mpmath(self):
        # Phi-bar(8) ~ 6.22e-16 from a 50-digit erfc evaluation
        mpmath.mp.dps = 50
        tail = float(0.5 * mpmath.erfc(8.0 / mpmath.sqrt(2)))
        assert tail == pytest.approx(6.22e-16, rel=1e-3)
        assert std_normal_ccdf(-8.0) == pytest.approx(1.0 - tail, abs=1e-16)
        assert std_normal_ccdf(8.0) == pytest.approx(tail, rel=1e-13)

    def test_cdf_tenth_quantile(self):
        assert std_normal_ccdf(1.2816) == pytest.approx(0.1000, abs=1e-4)

    def test_symmetry_and_monotone(self):
        z = RngStream(7).standard_normal(500) * 3.0
        total = std_normal_ccdf(z) + std_normal_ccdf(-z)
        assert np.all(np.abs(total - 1.0) < 1e-14)
        zs = np.sort(z)
        assert np.all(np.diff(std_normal_ccdf(zs)) <= 0.0)

    def test_ccdf_inv_median(self):
        assert std_normal_ccdf_inv(0.5) == 0.0

    def test_ccdf_inv_against_bisection(self):
        for p, expected in [(0.1, 1.281552), (0.01, 2.326348)]:
            assert bisect_ccdf_inv(p) == pytest.approx(expected, abs=5e-6)
            assert std_normal_ccdf_inv(p) == pytest.approx(expected, abs=5e-6)

    def test_ccdf_inv_round_trip(self):
        for p in [0.9999, 0.6, 0.1, 1e-3, 1e-8, 1e-15, 1e-300]:
            x = std_normal_ccdf_inv(p)
            assert std_normal_ccdf(x) == pytest.approx(p, rel=1e-10)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_ccdf_inv_domain(self, bad):
        with pytest.raises(ValueError):
            std_normal_ccdf_inv(bad)


class TestRngStream:
    def test_reproducible_and_disjoint(self):
        a = RngStream(123, 5).standard_normal(64)
        b = RngStream(123, 5).standard_normal(64)
        c = RngStream(123, 6).standard_normal(64)
        d = RngStream(124, 5).standard_normal(64)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_split(self):
        root = RngStream(9)
        assert np.array_equal(root.split(3).standard_normal(8),
                              RngStream(9, 3).standard_normal(8))

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            RngStream(-1)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_hand_case(self):
        L = cholesky_lower(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(L, expected, rtol=1e-15)
        assert np.allclose(L @ L.T, [[4, 2], [2, 3]], rtol=1e-15)

    def test_pile_correlation_matrix(self):
        z = (np.arange(120) + 0.5) * 0.1
        r = np.exp(-2.0 / 4.0 * np.abs(z[:, None] - z[None, :]))
        L = cholesky_lower(r)
        assert np.max(np.abs(L @ L.T - r)) <= 1e-10 * np.max(np.abs(r))

    def test_not_spd_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot == 1

    def test_lower_triangular_positive_diagonal(self):
        rng = RngStream(11)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            spd = a @ a.T + 6.0 * np.eye(6)
            L = cholesky_lower(spd)
            assert np.array_equal(L, np.tril(L))
            assert np.all(np.diag(L) > 0.0)


def shear_pattern(c):
    c = np.asarray(c, dtype=float)
    n = c.shape[-1]
    m = np.zeros(c.shape[:-1] + (n, n))
    i = np.arange(n)
    d = c.copy()
    d[..., :-1] += c[..., 1:]
    m[..., i, i] = d
    m[..., i[:-1], i[1:]] = -c[..., 1:]
    m[..., i[1:], i[:-1]] = -c[..., 1:]
    return m


def random_building(rng, n=5, min_gap=0.02):
    # stiffness/load draws rejected until the two smallest k H / W are separated
    while True:
        k = 100.0 + 300.0 * rng._gen.random(n)
        w = 50.0 + 100.0 * rng._gen.random(n)
        lam = k * 3.5 / w
        two = np.sort(lam)[:2]
        if (two[1] - two[0]) / two[0] > min_gap:
            return k, w, 3.5


class TestSmallestGenEigenpair:
    def test_diagonal(self):
        lam, u = smallest_gen_eigenpair(np.diag([2.0, 5.0]), np.eye(2))
        assert lam == pytest.approx(2.0, rel=1e-14)
        assert np.allclose(np.abs(u), [1.0, 0.0], atol=1e-14)

    def test_uniform_shear_building(self):
        # uniform k, W: minimum eigenvalue is k H / W for any story count
        k, wload, h = 250.0, 100.0, 3.5
        for n in (3, 5, 8):
            K = shear_pattern(np.full(n, k))
            Kg = shear_pattern(np.full(n, wload / h))
            lam, _ = smallest_gen_eigenpair(K, Kg)
            assert lam == pytest.approx(k * h / wload, rel=1e-12)

    def test_random_pair_against_qz(self):
        rng = RngStream(21)
        for _ in range(10):
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            K = a @ a.T + np.eye(5)
            Kg = b @ b.T + 5.0 * np.eye(5)
            lam, u = smallest_gen_eigenpair(K, Kg)
            ref = np.min(scipy.linalg.eig(K, Kg, right=False).real)
            assert lam == pytest.approx(ref, rel=1e-9)
            assert np.linalg.norm(K @ u - lam * (Kg @ u)) <= 1e-9 * np.linalg.norm(K @ u)
            assert u @ Kg @ u == pytest.approx(1.0, rel=1e-12)

    def test_randomized_building_mode_shape(self):
        rng = RngStream(22)
        for _ in range(25):
            k, w, h = random_building(rng)
            lam, u = smallest_gen_eigenpair(shear_pattern(k), shear_pattern(w / h))
            lam_ref = np.min(k * h / w)
            istar = int(np.argmin(k * h / w))
            assert lam == pytest.approx(lam_ref, rel=1e-9)
            # buckling localizes in the critical story: steps from 0 to a plateau
            ref = np.zeros(5)
            ref[istar:] = 1.0
            assert np.allclose(u / u[-1], ref, atol=1e-8)

    def test_batched_matches_scalar(self):
        rng = RngStream(23)
        ks = np.stack([shear_pattern(100.0 + 300.0 * rng._gen.random(5)) for _ in range(8)])
        kgs = np.stack([shear_pattern(20.0 + 30.0 * rng._gen.random(5)) for _ in range(8)])
        lam, u = smallest_gen_eigenpair(ks, kgs)
        for i in range(8):
            lam_i, u_i = smallest_gen_eigenpair(ks[i], kgs[i])
            assert lam[i] == lam_i
            assert np.array_equal(u[i], u_i)

    def test_kg_not_spd(self):
        with pytest.raises(NotPositiveDefiniteError):
            smallest_gen_eigenpair(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestEigenDerivative:
    def test_zero_direction(self):
        # distinct stiffnesses keep the smallest eigenvalue simple
        K = shear_pattern(np.array([250.0, 300.0, 350.0, 280.0, 320.0]))
        Kg = shear_pattern(np.full(5, 100.0 / 3.5))
        lam, u = smallest_gen_eigenpair(K, Kg)
        assert eigen_derivative(K, Kg, None, None, lam, u) == 0.0

    def test_common_load_scaling(self):
        # lam = min_i k_i H / W so d(lam)/dW = -min_i k_i H / W^2 when all
        # loads scale together (distinct k_i keeps lam simple)
        k = np.array([250.0, 300.0, 350.0, 280.0, 320.0])
        wload, h = 100.0, 3.5
        K = shear_pattern(k)
        Kg = shear_pattern(np.full(5, wload / h))
        lam, u = smallest_gen_eigenpair(K, Kg)
        dkg = shear_pattern(np.full(5, 1.0 / h))
        dlam = eigen_derivative(K, Kg, None, dkg, lam, u)
        assert dlam == pytest.approx(-k.min() * h / wload**2, rel=1e-10)

    def test_matches_finite_difference(self):
        # perturbation directions scaled to the matrices so the finite
        # difference is not drowned by eigensolver roundoff
        rng = RngStream(31)
        for _ in range(100):
            k, w, h = random_building(rng)
            K = shear_pattern(k)
            Kg = shear_pattern(w / h)
            dk = shear_pattern(0.3 * k * rng.standard_normal(5))
            dkg = shear_pattern(0.3 * (w / h) * rng.standard_normal(5))
            lam, u = smallest_gen_eigenpair(K, Kg)
            dlam = eigen_derivative(K, Kg, dk, dkg, lam, u)
            h_fd = 1e-6
            lam_p, _ = smallest_gen_eigenpair(K + h_fd * dk, Kg + h_fd * dkg)
            lam_m, _ = smallest_gen_eigenpair(K - h_fd * dk, Kg - h_fd * dkg)
            fd = (lam_p - lam_m) / (2.0 * h_fd)
            assert dlam == pytest.approx(fd, rel=1e-5)

    def test_tied_uniform_building_is_degenerate(self):
        # all stories identical: the smallest eigenvalue has multiplicity n
        # and the derivative system must refuse rather than perturb
        K = shear_pattern(np.full(5, 250.0))
        Kg = shear_pattern(np.full(5, 100.0 / 3.5))
        lam, u = smallest_gen_eigenpair(K, Kg)
        assert lam == pytest.approx(250.0 * 3.5 / 100.0, rel=1e-12)
        with pytest.raises(RepeatedEigenvalueError):
            eigen_derivative(K, Kg, None, shear_pattern(np.full(5, 1.0 / 3.5)), lam, u)

    def test_batched_matches_scalar(self):
        rng = RngStream(32)
        k, w, h = random_building(rng)
        K = shear_pattern(k)
        Kg = np.stack([shear_pattern(w / h * (1.0 + 0.1 * rng._gen.random(5)))
                       for _ in range(4)])
        dkg = np.stack([shear_pattern(rng.standard_normal(5)) for _ in range(4)])
        lam, u = smallest_gen_eigenpair(np.broadcast_to(K, Kg.shape), Kg)
        batch = eigen_derivative(K, Kg, None, dkg, lam, u)
        for i in range(4):
            assert batch[i] == eigen_derivative(K, Kg[i], None, dkg[i], lam[i], u[i])

    def test_repeated_eigenvalue_reported(self):
        with pytest.raises(RepeatedEigenvalueError):
            eigen_derivative(np.eye(3), np.eye(3), np.diag([1.0, 0.0, 0.0]), None,
                             1.0, np.array([1.0, 0.0, 0.0]))
