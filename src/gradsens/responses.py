"""Built-in response models: affine-normal, shear-building buckling, SDOF first
passage, and pile serviceability.  All take i.i.d. N(0,1) inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg as sla

from .model import ModelDomainError, ModelSpec, ResponseModel
from . import numkit


def lognormal_shift(cov: float):
    """(a, b) with exp(a + b Z) having mean 1 and the given c.o.v. for Z~N(0,1)."""
    b2 = math.log(1.0 + cov * cov)
    return -0.5 * b2, math.sqrt(b2)


class NormalResponse(ResponseModel):
    """y = loc + sqrt(scale^2 - mix^2) x1 + mix x2, so y ~ N(loc, scale^2).

    ``mix`` shifts weight between the two inputs at fixed total variance: it
    changes the response pointwise but not the distribution of y, which makes
    it a null direction for exceedance probabilities.
    """

    def __init__(self, loc=1.0, scale=1.0, mix=0.5):
        if not scale * scale > mix * mix:
            raise ModelDomainError("requires scale^2 > mix^2")
        self.loc, self.scale, self.mix = float(loc), float(scale), float(mix)
        self.spec = ModelSpec(
            name="normal",
            input_dim=2,
            params=(("loc", self.loc), ("scale", self.scale), ("mix", self.mix)),
            sensitivity_params=("loc", "scale", "mix"),
        )

    def _coeff(self, scale, mix):
        d = scale * scale - mix * mix
        if not d > 0.0:
            raise ModelDomainError("requires scale^2 > mix^2")
        return math.sqrt(d)

    def response_batch(self, x, loc=None, scale=None, mix=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        loc = self.loc if loc is None else loc
        scale = self.scale if scale is None else scale
        mix = self.mix if mix is None else mix
        return loc + self._coeff(scale, mix) * x[:, 0] + mix * x[:, 1]

    def evaluate_batch(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        beta = self._coeff(self.scale, self.mix)
        y = self.loc + beta * x[:, 0] + self.mix * x[:, 1]
        g = np.empty((x.shape[0], 3))
        g[:, 0] = 1.0
        g[:, 1] = (self.scale / beta) * x[:, 0]
        g[:, 2] = -(self.mix / beta) * x[:, 0] + x[:, 1]
        return y, g


def _shear_matrix(c):
    """Tridiagonal shear-building pattern from story coefficients (..., n)."""
    c = np.asarray(c, dtype=float)
    n = c.shape[-1]
    m = np.zeros(c.shape[:-1] + (n, n))
    i = np.arange(n)
    diag = c.copy()
    diag[..., :-1] += c[..., 1:]
    m[..., i, i] = diag
    m[..., i[:-1], i[1:]] = -c[..., 1:]
    m[..., i[1:], i[:-1]] = -c[..., 1:]
    return m


class BucklingResponse(ResponseModel):
    """Global buckling of a shear building: y = lam0 / lam, lam the smallest
    eigenvalue of K u = lam Kg u.

    Floor loads are i.i.d. lognormal, W_i = load * exp(a + b x_i) with unit
    mean.  Sensitivity parameters: the common load mean (``load``) and the
    second-story stiffness (``k2``).  lam0 normalizes so y = 1 at x = 0.

    ``evaluate_batch`` goes through the eigenvalue problem and the augmented
    derivative system, as a general structure would; ``response_batch`` uses
    the closed-form story maximum, which is exact for this K/Kg pattern and
    cheap enough for million-sample benchmarks.
    """

    def __init__(self, stories=5, stiffness=250.0, height=3.5, load=100.0, load_cov=0.1, k2=None):
        self.stories = int(stories)
        if self.stories < 2:
            raise ModelDomainError("needs at least 2 stories")
        self.height = float(height)
        self.load = float(load)
        self.load_cov = float(load_cov)
        self.k2 = float(stiffness if k2 is None else k2)
        self.k = np.full(self.stories, float(stiffness))
        self.k[1] = self.k2
        self.a, self.b = lognormal_shift(self.load_cov)
        self._K = _shear_matrix(self.k)
        self._dK_k2 = _shear_matrix(np.eye(self.stories)[1])
        kg0 = _shear_matrix(self._loads(np.zeros((1, self.stories)), self.load) / self.height)
        lam, _ = numkit.smallest_gen_eigenpair(self._K[None], kg0)
        self.lam0 = float(lam[0])
        self.spec = ModelSpec(
            name="buckling",
            input_dim=self.stories,
            params=(
                ("load", self.load),
                ("k2", self.k2),
                ("stiffness", float(stiffness)),
                ("height", self.height),
                ("load_cov", float(load_cov)),
            ),
            sensitivity_params=("load", "k2"),
        )

    def param_unit(self, name):
        return {"load": "kN", "k2": "kN/mm"}.get(name, "-")

    def _loads(self, x, load):
        return load * np.exp(self.a + self.b * x)

    def _terms(self, x, load, k2):
        k = self.k.copy()
        k[1] = k2
        return self.lam0 * self._loads(x, load) / (k * self.height)

    def response_batch(self, x, load=None, k2=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        load = self.load if load is None else load
        k2 = self.k2 if k2 is None else k2
        return self._terms(x, load, k2).max(axis=1)

    def critical_story(self, x, load=None, k2=None):
        """0-based index of the story governing the buckling load."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        load = self.load if load is None else load
        k2 = self.k2 if k2 is None else k2
        return self._terms(x, load, k2).argmax(axis=1)

    def evaluate_batch(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        terms = self._terms(x, self.load, self.k2)
        top = np.sort(terms, axis=1)[:, -2:]
        if np.any(top[:, 1] - top[:, 0] <= 1e-9 * top[:, 1]):
            raise numkit.RepeatedEigenvalueError(
                "two stories tie for the critical buckling load; "
                "the eigenvalue derivative is undefined at the tie"
            )
        w = self._loads(x, self.load)
        kg = _shear_matrix(w / self.height)
        lam, u = numkit.smallest_gen_eigenpair(np.broadcast_to(self._K, kg.shape), kg)
        y = self.lam0 / lam
        dkg_load = _shear_matrix(np.exp(self.a + self.b * x) / self.height)
        dlam_load = numkit.eigen_derivative(self._K, kg, None, dkg_load, lam, u)
        dlam_k2 = numkit.eigen_derivative(self._K, kg, self._dK_k2, None, lam, u)
        scale = -self.lam0 / (lam * lam)
        return y, np.stack([scale * dlam_load, scale * dlam_k2], axis=1)


class SdofResponse(ResponseModel):
    """Peak displacement of a damped linear oscillator under white noise.

    u'' + 2 zeta omega u' + omega^2 u = W(t) from rest, W piecewise constant
    over each dt with W_j = sqrt(2 pi S / dt) x_{j+1}, and y = max_j |u(j dt)|
    over the n = T/dt output instants.  The state is advanced by the exact
    zero-order-hold transition matrix.  Gradients come from the sensitivity
    states u_zeta, u_omega, driven by the same oscillator with right-hand
    sides -2 omega u' and -2 zeta u' - 2 omega u, evaluated at the peak time
    with the sign of u there (+1 at the y = 0 degenerate point).
    """

    response_unit = "m"

    def __init__(self, zeta=0.01, omega=2.0 * math.pi, psd=0.86, dt=0.05, duration=20.0):
        self.zeta, self.omega = float(zeta), float(omega)
        self.psd, self.dt = float(psd), float(dt)
        self.n = round(duration / dt)
        if abs(self.n * dt - duration) > 1e-9 * duration:
            raise ModelDomainError("duration must be an integer number of steps")
        if not 0.0 < self.zeta < 1.0:
            raise ModelDomainError("needs 0 < zeta < 1")
        self.scale = math.sqrt(2.0 * math.pi * self.psd / self.dt)
        # precompute the nominal transition matrices so concurrent runs only read
        self._zoh_cache = {}
        self._matrices(self.zeta, self.omega, full=True)
        self._matrices(self.zeta, self.omega, full=False)
        self.spec = ModelSpec(
            name="sdof",
            input_dim=self.n,
            params=(
                ("zeta", self.zeta),
                ("omega", self.omega),
                ("psd", self.psd),
                ("dt", self.dt),
                ("duration", float(duration)),
            ),
            sensitivity_params=("zeta", "omega"),
        )

    def param_unit(self, name):
        return {"omega": "rad/s"}.get(name, "-")

    @staticmethod
    def _zoh(a_mat, b_vec, dt):
        # [Ad, Bd] from one matrix exponential of the (m+1)-state augmentation
        m = a_mat.shape[0]
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m] = a_mat
        aug[:m, m] = b_vec
        e = sla.expm(aug * dt)
        return e[:m, :m], e[:m, m]

    def _matrices(self, zeta, omega, full):
        key = (zeta, omega, full)
        if key not in self._zoh_cache:
            z, w = zeta, omega
            if full:
                a = np.zeros((6, 6))
                a[0, 1] = a[2, 3] = a[4, 5] = 1.0
                a[1, 0], a[1, 1] = -w * w, -2.0 * z * w
                a[3, 1], a[3, 2], a[3, 3] = -2.0 * w, -w * w, -2.0 * z * w
                a[5, 0], a[5, 1], a[5, 4], a[5, 5] = -2.0 * w, -2.0 * z, -w * w, -2.0 * z * w
                b = np.zeros(6)
                b[1] = 1.0
            else:
                a = np.array([[0.0, 1.0], [-w * w, -2.0 * z * w]])
                b = np.array([0.0, 1.0])
            self._zoh_cache[key] = self._zoh(a, b, self.dt)
        return self._zoh_cache[key]

    def _states(self, x, zeta=None, omega=None, full=False):
        """State rows after each of the n - 1 steps of the recursion, from rest.

        The 2-state oscillator (u, u'), or with ``full`` the 6-state system
        that appends the sensitivity states (u_zeta, u_zeta', u_omega, u_omega').
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        zeta = self.zeta if zeta is None else zeta
        omega = self.omega if omega is None else omega
        ad_t, bd = self._matrices(zeta, omega, full=full)
        ad_t = ad_t.T
        w = self.scale * x
        state = np.zeros((x.shape[0], bd.shape[0]))
        for j in range(self.n - 1):
            state = state @ ad_t + w[:, j, None] * bd
            yield state

    def response_batch(self, x, zeta=None, omega=None):
        best = np.zeros(np.atleast_2d(x).shape[0])
        for state in self._states(x, zeta, omega):
            np.maximum(best, np.abs(state[:, 0]), out=best)
        return best

    def simulate(self, x, zeta=None, omega=None):
        """Displacement trajectories u(j dt), shape (batch, n)."""
        u = np.zeros((np.atleast_2d(x).shape[0], self.n))
        for j, state in enumerate(self._states(x, zeta, omega), start=1):
            u[:, j] = state[:, 0]
        return u

    def evaluate_batch(self, x):
        nb = np.atleast_2d(x).shape[0]
        traj = np.zeros((nb, self.n, 3))  # u, u_zeta, u_omega
        for j, state in enumerate(self._states(x, full=True), start=1):
            traj[:, j] = state[:, ::2]
        u = traj[:, :, 0]
        jstar = np.argmax(np.abs(u), axis=1)  # first maximum wins ties
        rows = np.arange(nb)
        upeak = u[rows, jstar]
        chi = np.where(upeak < 0.0, -1.0, 1.0)
        g = chi[:, None] * traj[rows, jstar, 1:]
        return np.abs(upeak), g


class PileResponse(ResponseModel):
    """Serviceability of an axially loaded pile in sand: y = design load over
    the settlement-limited resistance.

    The soil friction angle is a stationary lognormal random field over a 12 m
    column in 0.1 m layers, built from the Cholesky factor of the exponential
    correlation matrix.  Resistance combines side friction over the embedded
    depth, tip bearing driven by the average friction angle in the tip
    influence zone (min(8B, D) above to 3.5B below the tip), and the effective
    pile weight.  Edge layers enter the zone average with their overlap
    fraction, which keeps the response continuous in B; at the nominal
    geometry the zone edges land exactly on the layer grid, so an in/out
    membership test would make the 0.1% central differences for B jump by a
    whole layer.  Gradients for the diameter B and field mean mu use central
    differences with a 0.1% relative step.
    """

    eager_gradients = False
    analytic_gradients = False

    # fixed design constants: load, allowable settlement, unit weights,
    # resistance exponents, correction factors
    design_load = 800.0
    y_allow = 0.025
    gamma = 20.0
    gamma_w = 9.81
    gamma_c = 24.0
    coef_a = 4.0
    coef_b = 0.4
    k_ratio = 1.0  # (K/K0)_n * K0
    zeta_gs = 0.6  # remaining tip correction factors are 1

    def __init__(self, diameter=0.9, depth=8.0, mean_phi=0.5585, cov_phi=0.17,
                 corr_length=4.0, layer=0.1, column_depth=12.0):
        self.B, self.D, self.mu = float(diameter), float(depth), float(mean_phi)
        self.d = float(layer)
        self.n = round(column_depth / layer)
        self.z = (np.arange(self.n) + 0.5) * self.d
        self.n_side = int(self.D / self.d)
        r = np.exp(-2.0 / float(corr_length) * np.abs(self.z[:, None] - self.z[None, :]))
        self.chol = numkit.cholesky_lower(r)
        self.u_ln, self.s_ln = lognormal_shift(float(cov_phi))
        self.spec = ModelSpec(
            name="pile",
            input_dim=self.n,
            params=(
                ("B", self.B),
                ("mu", self.mu),
                ("depth", self.D),
                ("cov_phi", float(cov_phi)),
                ("corr_length", float(corr_length)),
            ),
            sensitivity_params=("B", "mu"),
        )

    def param_unit(self, name):
        return {"B": "m", "mu": "rad"}.get(name, "-")

    def field(self, x, mu=None):
        """Friction-angle field phi'(z_i) for a (batch, n) input block."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mu = self.mu if mu is None else mu
        return mu * np.exp(self.u_ln + self.s_ln * (x @ self.chol.T))

    def response_batch(self, x, B=None, mu=None):
        B = self.B if B is None else B
        phi = self.field(x, mu=mu)
        gw = self.gamma - self.gamma_w
        sigma_eff = gw * self.z[: self.n_side]
        q_side = math.pi * B * self.d * self.k_ratio * (
            np.tan(phi[:, : self.n_side]) * sigma_eff
        ).sum(axis=1)

        lo = self.D - min(8.0 * B, self.D)
        hi = self.D + 3.5 * B
        overlap = np.clip(np.minimum(hi, self.z + 0.5 * self.d)
                          - np.maximum(lo, self.z - 0.5 * self.d), 0.0, None)
        total = overlap.sum()
        if not total > 0.0:
            raise ModelDomainError("tip influence zone misses the soil column")
        phi_bar = phi @ (overlap / total)

        t = np.tan(phi_bar)
        n_q = np.tan(0.25 * math.pi + 0.5 * phi_bar) ** 2 * np.exp(math.pi * t)
        n_g = 2.0 * (n_q + 1.0) * t
        zeta_qs = 1.0 + t
        zeta_qd = 1.0 + 2.0 * t * (1.0 - np.sin(phi_bar)) ** 2 * math.atan(self.D / B)
        q_tip = 0.25 * math.pi * B * B * (
            0.5 * B * gw * n_g * self.zeta_gs + self.D * gw * n_q * zeta_qs * zeta_qd
        )
        weight = 0.25 * math.pi * B * B * self.D * (self.gamma_c - self.gamma_w)

        q_sls = 0.625 * self.coef_a * (self.y_allow / B) ** self.coef_b * (
            q_side + q_tip - weight
        )
        if np.any(q_sls <= 0.0):
            raise ModelDomainError("non-positive serviceability resistance")
        return self.design_load / q_sls


MODEL_BUILDERS = {
    "normal": NormalResponse,
    "buckling": BucklingResponse,
    "sdof": SdofResponse,
    "pile": PileResponse,
}


def build_model(name: str, **kwargs) -> ResponseModel:
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")
    return builder(**kwargs)
