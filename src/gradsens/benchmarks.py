"""Ground-truth references: analytic CCDF/sensitivity for the normal and
buckling models, and common-random-numbers central differences for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .model import ResponseModel, central_steps
from .numkit import RngStream, std_normal_ccdf, std_normal_ccdf_inv, std_normal_pdf
from .responses import lognormal_shift

_CRN_BLOCK = 16384  # rows per input block; part of the deterministic layout


@dataclass
class BenchmarkResult:
    """Reference CCDF and sensitivities on a threshold grid."""

    y: np.ndarray
    f: np.ndarray
    df: np.ndarray  # (grid, n_params)
    params: tuple
    provenance: str  # "analytic" or "crn_fd"
    n_samples: int | None = None
    fd_step: float | None = None

    def column(self, param: str) -> np.ndarray:
        return self.df[:, self.params.index(param)]

    def fractional(self, values) -> np.ndarray:
        """(a / F) dF/da columns for the given parameter values."""
        v = np.asarray(values, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.f[:, None] > 0.0, self.df * v[None, :] / self.f[:, None], np.nan)


def analytic_normal(y_grid, loc=1.0, scale=1.0, mix=0.5) -> BenchmarkResult:
    """Exact references for the affine-normal response.

    F = P(Z >= z) with z = (y - loc)/scale; dF/dloc = pdf(z)/scale,
    dF/dscale = z pdf(z)/scale, and the mix parameter has exactly zero
    sensitivity despite its nonzero response gradient.
    """
    if not scale * scale > mix * mix:
        raise ValueError("requires scale > |mix| >= 0")
    y = np.asarray(y_grid, dtype=float)
    z = (y - loc) / scale
    f = std_normal_ccdf(z)
    pdf = std_normal_pdf(z)
    df = np.stack([pdf / scale, z * pdf / scale, np.zeros_like(y)], axis=1)
    return BenchmarkResult(y=y, f=f, df=df, params=("loc", "scale", "mix"),
                           provenance="analytic")


def _hazard_ratio(x):
    # pdf(x)/cdf(x), stable where cdf underflows
    return np.exp(-0.5 * x * x - 0.5 * math.log(2.0 * math.pi) - special.log_ndtr(x))


def analytic_buckling(y_grid, load=100.0, k2=250.0, *, stiffness=250.0, height=3.5,
                      stories=5, load_cov=0.1, lam0) -> BenchmarkResult:
    """Exact references for the shear-building buckling response.

    P(Y < y) = cdf(x1)^(n-1) cdf(x2) with x1, x2 the log-standardized story
    margins of the nominal and second story; sensitivities follow from the
    log-derivative of the product.
    """
    y = np.asarray(y_grid, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("thresholds must be positive")
    a, b = lognormal_shift(load_cov)
    x1 = (np.log(stiffness * height * y / (load * lam0)) - a) / b
    x2 = (np.log(k2 * height * y / (load * lam0)) - a) / b
    p_below = np.exp((stories - 1) * special.log_ndtr(x1) + special.log_ndtr(x2))
    h1, h2 = _hazard_ratio(x1), _hazard_ratio(x2)
    dp_load = -((stories - 1) * h1 + h2) * p_below / (b * load)
    dp_k2 = h2 * p_below / (b * k2)
    df = np.stack([-dp_load, -dp_k2], axis=1)
    return BenchmarkResult(y=y, f=1.0 - p_below, df=df, params=("load", "k2"),
                           provenance="analytic")


def crn_central_difference(model: ResponseModel, params=None, n_samples=10**6,
                           rel_step=0.01, seed=0, y_grid=None,
                           grid_points=256) -> BenchmarkResult:
    """Central differences of direct-MC exceedance estimates on common inputs.

    The same input draws feed the up- and down-perturbed responses, so the
    difference variance scales with the step instead of its square.  CCDFs are
    empirical step functions (exceedance counts), no smoothing.  When no grid
    is given, one is placed at log-spaced exceedance quantiles of the base run,
    down to the level 10 / n_samples, so at least 10 samples are needed then.
    """
    if n_samples < 1 or (y_grid is None and n_samples < 10):
        raise ValueError(f"n_samples={n_samples}: needs 1, or 10 without a y_grid")
    params = tuple(params or model.spec.sensitivity_params)
    steps = [central_steps(model.spec.value(name), rel_step) for name in params]
    n_dim = model.spec.input_dim

    # pass 1: base responses fix the grid and the reference CCDF
    stream = RngStream(seed)
    base = np.empty(n_samples)
    for lo in range(0, n_samples, _CRN_BLOCK):
        hi = min(lo + _CRN_BLOCK, n_samples)
        base[lo:hi] = model.response_batch(stream.standard_normal((hi - lo, n_dim)))
    base.sort()
    if y_grid is None:
        levels = np.logspace(math.log10(0.999), math.log10(max(10.0 / n_samples, 1e-6)),
                             grid_points)
        y_grid = np.quantile(base, 1.0 - levels)
    y_grid = np.asarray(y_grid, dtype=float)
    f_base = (n_samples - np.searchsorted(base, y_grid, side="left")) / n_samples

    # pass 2: identical draws, perturbed parameters
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
    return BenchmarkResult(y=y_grid, f=f_base, df=df, params=params,
                           provenance="crn_fd", n_samples=n_samples, fd_step=rel_step)


def _buckling_reference(model, y):
    return analytic_buckling(y, load=model.load, k2=model.k2, stiffness=model.k[0],
                             height=model.height, stories=model.stories,
                             load_cov=model.load_cov, lam0=model.lam0)


def _analytic_grid(model, grid_points=256):
    """Threshold grid at log-spaced exceedance levels of the analytic CCDF."""
    levels = np.logspace(math.log10(0.999), -4, grid_points)
    if model.spec.name == "normal":
        return model.loc + model.scale * std_normal_ccdf_inv(levels)
    # bisection on the buckling CCDF; it is strictly decreasing in y
    lo = np.full_like(levels, 1e-6)
    hi = np.ones_like(levels)
    while np.any(_buckling_reference(model, hi).f > levels):
        hi = np.where(_buckling_reference(model, hi).f > levels, hi * 2.0, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = _buckling_reference(model, mid).f > levels
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def run_benchmark(model: ResponseModel, params, n_samples, rel_step, seed,
                  grid_points=256) -> BenchmarkResult:
    """Analytic references when the model has them, CRN differences otherwise."""
    if model.spec.name == "normal":
        grid = _analytic_grid(model, grid_points)
        return analytic_normal(grid, loc=model.loc, scale=model.scale, mix=model.mix)
    if model.spec.name == "buckling":
        return _buckling_reference(model, _analytic_grid(model, grid_points))
    return crn_central_difference(model, params=params, n_samples=n_samples,
                                  rel_step=rel_step, seed=seed, grid_points=grid_points)
