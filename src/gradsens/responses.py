"""Built-in response models: affine-normal, shear-building buckling, SDOF first
passage, and pile serviceability.  All take i.i.d. N(0,1) inputs.

Only ``SdofResponse`` needs ``scipy.linalg`` (its ``expm``), so it imports it
when an sdof model is built: a process that builds only the other models never
loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ConfigError, ModelDomainError, ModelSpec, ResponseModel, _as_int, _as_real
from . import numkit

_KICK_TILE = 64  # sdof steps whose scaled inputs are held at once (2 MB at 4096 rows)


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
        self.loc, self.mix = _as_real(loc, "loc"), _as_real(mix, "mix")
        self.scale = _as_real(scale, "scale", 0.0)
        self._coeff(self.scale, self.mix)
        self.spec = ModelSpec(
            name="normal",
            input_dim=2,
            params=(("loc", self.loc), ("scale", self.scale), ("mix", self.mix)),
            sensitivity_params=("loc", "scale", "mix"),
            rows_independent=True,
        )

    def _coeff(self, scale, mix):
        d = scale * scale - mix * mix
        if not d > 0.0:
            raise ModelDomainError("requires scale^2 > mix^2")
        return math.sqrt(d)

    def response_batch(self, x, loc=None, scale=None, mix=None):
        loc = self.loc if loc is None else loc
        scale = self.scale if scale is None else scale
        mix = self.mix if mix is None else mix
        return loc + self._coeff(scale, mix) * x[:, 0] + mix * x[:, 1]

    def evaluate_batch(self, x):
        beta = self._coeff(self.scale, self.mix)
        y = self.loc + beta * x[:, 0] + self.mix * x[:, 1]
        g = np.empty((x.shape[0], 3))
        g[:, 0] = 1.0
        g[:, 1] = (self.scale / beta) * x[:, 0]
        g[:, 2] = -(self.mix / beta) * x[:, 0] + x[:, 1]
        return y, g


def _shear_matrix(c):
    """Tridiagonal shear-building pattern from story coefficients (..., n)."""
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
        self.stories = _as_int(stories, "stories", 2)
        stiffness = _as_real(stiffness, "stiffness", 0.0)
        self.height, self.load = _as_real(height, "height", 0.0), _as_real(load, "load", 0.0)
        self.load_cov = _as_real(load_cov, "load_cov", 0.0)
        self.k2 = stiffness if k2 is None else _as_real(k2, "k2", 0.0)
        self.k = np.full(self.stories, stiffness)
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
                ("stiffness", stiffness),
                ("height", self.height),
                ("load_cov", self.load_cov),
            ),
            sensitivity_params=("load", "k2"),
            rows_independent=True,
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
        load = self.load if load is None else load
        k2 = self.k2 if k2 is None else k2
        return self._terms(x, load, k2).max(axis=1)

    def evaluate_batch(self, x):
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
        dkg_load = _shear_matrix(self._loads(x, 1.0) / self.height)
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
        from scipy.linalg import expm  # here, not in _matrices: paid where models are built

        self._expm = expm
        self.zeta, self.omega = _as_real(zeta, "zeta", 0.0, 1.0), _as_real(omega, "omega", 0.0)
        self.psd, self.dt = _as_real(psd, "psd", 0.0), _as_real(dt, "dt", 0.0)
        duration = _as_real(duration, "duration", 0.0)
        self.n = round(duration / self.dt)
        # one output instant would be the rest state alone: y = 0 for every input
        if self.n < 2 or abs(self.n * self.dt - duration) > 1e-9 * duration:
            raise ModelDomainError("duration must be a whole number of at least 2 steps")
        self.scale = math.sqrt(2.0 * math.pi * self.psd / self.dt)
        self.spec = ModelSpec(
            name="sdof",
            input_dim=self.n,
            params=(
                ("zeta", self.zeta),
                ("omega", self.omega),
                ("psd", self.psd),
                ("dt", self.dt),
                ("duration", duration),
            ),
            sensitivity_params=("zeta", "omega"),
            input_order="F",  # the recursion reads one input column per step
            rows_independent=True,  # from 2 rows on: one row is a matrix-vector product
        )

    def param_unit(self, name):
        return {"omega": "rad/s"}.get(name, "-")

    def _matrices(self, zeta=None, omega=None, full=False):
        """Zero-order-hold [Ad, Bd] at the nominal or the overridden zeta and omega,
        of the 6-state system or without ``full`` of its leading 2-state
        oscillator, from one matrix exponential of [[A, b], [0, 0]]."""
        z = self.zeta if zeta is None else zeta
        w = self.omega if omega is None else omega
        aug = np.zeros((7, 7))  # the 6-state system; states 0 and 1 are the oscillator
        aug[0, 1] = aug[2, 3] = aug[4, 5] = aug[1, 6] = 1.0
        aug[1, 0], aug[1, 1] = -w * w, -2.0 * z * w
        aug[3, 1], aug[3, 2], aug[3, 3] = -2.0 * w, -w * w, -2.0 * z * w
        aug[5, 0], aug[5, 1], aug[5, 4], aug[5, 5] = -2.0 * w, -2.0 * z, -w * w, -2.0 * z * w
        m = 6 if full else 2
        keep = [*range(m), 6]  # the m states, then the input
        e = self._expm(aug[np.ix_(keep, keep)] * self.dt)
        return e[:m, :m], e[:m, m]

    def _states(self, x, overrides=({},), full=False):
        """State columns (sets, states, batch) after each of the n - 1 steps of the
        recursion, from rest, yielded in one reused buffer: one set per parameter
        override, all advanced by one stacked product per step.  The kick inputs
        are scaled ``_KICK_TILE`` steps at a time into one reused tile.

        The 2-state oscillator (u, u'), or with ``full`` the 6-state system
        that appends the sensitivity states (u_zeta, u_zeta', u_omega, u_omega').
        """
        ad, bd = map(np.stack, zip(*(self._matrices(**kw, full=full) for kw in overrides)))
        state = np.zeros(bd.shape + (x.shape[0],))
        nxt = np.empty_like(state)
        kick = bd[:, :, None]
        tile = np.empty((min(_KICK_TILE, self.n - 1), x.shape[0]))
        for j0 in range(0, self.n - 1, _KICK_TILE):
            w = x[:, j0:min(j0 + _KICK_TILE, self.n - 1)].T
            for wj in np.multiply(w, self.scale, out=tile[: w.shape[0]]):
                np.matmul(ad, state, out=nxt)  # one BLAS product per set, as for one set
                np.multiply(kick, wj, out=state)  # the kick, once state is spent
                np.add(nxt, state, out=state)
                yield state

    def response_sets(self, x, overrides):
        best = np.zeros((len(overrides), x.shape[0]))
        for state in self._states(x, overrides):
            np.maximum(best, np.abs(state[:, 0]), out=best)
        return best

    def response_batch(self, x, zeta=None, omega=None):
        return self.response_sets(x, ({"zeta": zeta, "omega": omega},))[0]

    def evaluate_batch(self, x):
        nb = x.shape[0]
        traj = np.zeros((self.n, 3, nb))  # u, u_zeta, u_omega
        for j, state in enumerate(self._states(x, full=True), start=1):
            traj[j] = state[0, ::2]
        u = traj[:, 0]
        # |u| into a (batch, n) buffer: argmax(axis=0) would copy its input
        peak = np.abs(u.T, out=np.empty((nb, self.n)))
        jstar = np.argmax(peak, axis=1)  # first maximum wins ties
        rows = np.arange(nb)
        upeak = u[jstar, rows]
        chi = np.where(upeak < 0.0, -1.0, 1.0)
        g = chi[:, None] * traj[jstar, 1:, rows]
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
        self.B, self.D = _as_real(diameter, "diameter", 0.0), _as_real(depth, "depth", 0.0)
        self.mu, self.d = _as_real(mean_phi, "mean_phi", 0.0), _as_real(layer, "layer", 0.0)
        cov_phi = _as_real(cov_phi, "cov_phi", 0.0)
        corr_length = _as_real(corr_length, "corr_length", 0.0)
        self.n = round(_as_real(column_depth, "column_depth", 0.0) / self.d)
        self._tip_zone(self.B)
        self.z = (np.arange(self.n) + 0.5) * self.d
        self.n_side = int(self.D / self.d)
        r = np.exp(-2.0 / corr_length * np.abs(self.z[:, None] - self.z[None, :]))
        self.chol = numkit.cholesky_lower(r)
        self.u_ln, self.s_ln = lognormal_shift(cov_phi)
        self.spec = ModelSpec(
            name="pile",
            input_dim=self.n,
            params=(
                ("B", self.B),
                ("mu", self.mu),
                ("depth", self.D),
                ("cov_phi", cov_phi),
                ("corr_length", corr_length),
            ),
            sensitivity_params=("B", "mu"),
            # the field's product rounds by the block's row count (its GEMM remainder rows)
            rows_independent=False,
        )

    def param_unit(self, name):
        return {"B": "m", "mu": "rad"}.get(name, "-")

    def _tip_zone(self, B):
        """Top and bottom of the tip influence zone for diameter B.  It must end in
        the soil column, or the side friction and zone average would be cut short."""
        hi = self.D + 3.5 * B
        if not hi <= self.n * self.d:
            raise ModelDomainError(
                f"tip influence zone ends at {hi:g} m, below the {self.n * self.d:g} m soil column")
        return self.D - min(8.0 * B, self.D), hi

    def _unit_field(self, x):
        """The friction-angle field of a (batch, n) input block at unit mean."""
        # BLAS picks its kernel for a few rows by layout, and the kernels round
        # differently, so a Fortran-order block is read as a C-order copy
        return np.exp(self.u_ln + self.s_ln * (np.ascontiguousarray(x) @ self.chol.T))

    def response_batch(self, x, B=None, mu=None):
        return self._response(self._unit_field(x), B, mu)

    def response_sets(self, x, overrides):
        unit = self._unit_field(x)  # built once: each set scales it by its mean
        return np.stack([self._response(unit, **kw) for kw in overrides])

    def _response(self, unit, B=None, mu=None):
        B = self.B if B is None else B
        phi = (self.mu if mu is None else mu) * unit
        gw = self.gamma - self.gamma_w
        sigma_eff = gw * self.z[: self.n_side]
        q_side = math.pi * B * self.d * self.k_ratio * (
            np.tan(phi[:, : self.n_side]) * sigma_eff
        ).sum(axis=1)

        lo, hi = self._tip_zone(B)
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
        raise ConfigError(f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")
    return builder(**kwargs)
