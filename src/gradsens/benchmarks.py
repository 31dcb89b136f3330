"""Ground-truth references: analytic CCDF/sensitivity for the normal and
buckling models, and common-random-numbers central differences for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .model import ResponseModel, _as_int, _as_real, _check_finite, _response_sets, central_steps
from .numkit import RngStream, std_normal_ccdf, std_normal_ccdf_inv, std_normal_pdf
from .responses import lognormal_shift
from .sensest import fractional_measure

# rows per input block and model call, part of the deterministic layout: sdof's
# five stacked state sets and their next states (0.66 MB) stay in cache
_CRN_BLOCK = 4096
_CRN_CHUNK = 256  # rows per draw into a block; chunked draws equal one draw bit for bit


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

    def fractional(self, values) -> np.ndarray:
        """(a / F) dF/da columns for the given parameter values."""
        v = np.asarray(values, dtype=float)
        return fractional_measure(self.df * v[None, :], self.f)


def analytic_normal(y_grid, loc=1.0, scale=1.0, mix=0.5) -> BenchmarkResult:
    """Exact references for the affine-normal response.

    F = P(Z >= z) with z = (y - loc)/scale; dF/dloc = pdf(z)/scale,
    dF/dscale = z pdf(z)/scale, and the mix parameter has exactly zero
    sensitivity despite its nonzero response gradient.
    """
    loc, scale, mix = _as_real(loc, "loc"), _as_real(scale, "scale", 0.0), _as_real(mix, "mix")
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
    stories = _as_int(stories, "stories", 2)
    reals = dict(load=load, k2=k2, stiffness=stiffness, height=height, load_cov=load_cov, lam0=lam0)
    load, k2, stiffness, height, load_cov, lam0 = (_as_real(v, n, 0.0) for n, v in reals.items())
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
                           rel_step=0.01, seed=0, grid_points=256) -> BenchmarkResult:
    """Central differences of direct-MC exceedance estimates on common inputs.

    The same input draws feed the up- and down-perturbed responses, so the
    difference variance scales with the step instead of its square.  CCDFs are
    empirical step functions (exceedance counts), no smoothing.  The grid is
    placed at ``grid_points`` log-spaced exceedance quantiles of the base run,
    from 0.999 down to 10 / n_samples, so it needs at least 11 samples.
    """
    n_samples = _as_int(n_samples, "n_samples", 11)
    grid_points = _as_int(grid_points, "grid_points", 1)
    params = tuple(params or model.spec.sensitivity_params)
    steps = [central_steps(model.spec.value(name), rel_step) for name in params]
    n_dim = model.spec.input_dim

    # one pass over the input blocks, with one model call per block for the base
    # response and each parameter moved up and down.  A block is laid out in the
    # model's memory order and filled chunk by chunk, so a change of order happens
    # once, while the chunk is in cache, not in the model.  Every block refills
    # one buffer, so one block is resident.
    overrides = [{}] + [{name: v} for name, s in zip(params, steps) for v in s[:2]]
    out = np.empty((len(overrides), n_samples))
    stream = RngStream(seed)
    buf = np.empty(min(_CRN_BLOCK, n_samples) * n_dim)
    for lo in range(0, n_samples, _CRN_BLOCK):
        hi = min(lo + _CRN_BLOCK, n_samples)
        x = buf[:(hi - lo) * n_dim].reshape((hi - lo, n_dim), order=model.spec.input_order)
        for r in range(0, hi - lo, _CRN_CHUNK):
            x[r:r + _CRN_CHUNK] = stream.standard_normal((min(_CRN_CHUNK, hi - lo - r), n_dim))
        where = f"in CRN rows {lo}-{hi}"
        y = _response_sets(model, x, overrides, where)
        for k, kw in enumerate(overrides):
            _check_finite([f"{where} with overrides {kw}"], hi - lo, len(params), y[k])
            out[k, lo:hi] = y[k]
    base, moved = out[0], out[1:].reshape(len(params), 2, n_samples)
    base.sort()
    levels = np.logspace(math.log10(0.999), math.log10(max(10.0 / n_samples, 1e-6)),
                         grid_points)
    y_grid = np.quantile(base, 1.0 - levels)
    f_base = (n_samples - np.searchsorted(base, y_grid, side="left")) / n_samples
    moved.sort(axis=-1)
    # (n - below_up) - (n - below_down) exceedances: an exact integer difference
    below = [[np.searchsorted(yb, y_grid, side="left") for yb in pair] for pair in moved]
    df = np.stack([(down - up) / (n_samples * s[2])
                   for (up, down), s in zip(below, steps)], axis=1)
    return BenchmarkResult(y=y_grid, f=f_base, df=df, params=params,
                           provenance="crn_fd", n_samples=n_samples, fd_step=rel_step)


def _analytic_reference(model, grid_points):
    """Analytic references of the normal or buckling model, on a threshold grid
    at log-spaced exceedance levels of its CCDF."""
    levels = np.logspace(math.log10(0.999), -4, grid_points)
    if model.spec.name == "normal":
        grid = model.loc + model.scale * std_normal_ccdf_inv(levels)
        return analytic_normal(grid, loc=model.loc, scale=model.scale, mix=model.mix)

    def reference(y):
        return analytic_buckling(y, load=model.load, k2=model.k2, stiffness=model.k[0],
                                 height=model.height, stories=model.stories,
                                 load_cov=model.load_cov, lam0=model.lam0)

    # bisection on the buckling CCDF; it is strictly decreasing in y
    lo = np.full_like(levels, 1e-6)
    hi = np.ones_like(levels)
    while np.any(reference(hi).f > levels):
        hi = np.where(reference(hi).f > levels, hi * 2.0, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = reference(mid).f > levels
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return reference(0.5 * (lo + hi))


def run_benchmark(model: ResponseModel, params, n_samples, rel_step, seed,
                  grid_points=256) -> BenchmarkResult:
    """Analytic references when the model has them, CRN differences otherwise;
    either way, the CRN's sample count, step and seed rules apply."""
    _as_int(grid_points, "grid_points", 2)
    _as_int(n_samples, "n_samples", 11)
    central_steps(1.0, rel_step)
    _as_int(seed, "seed")
    if model.spec.name in ("normal", "buckling"):
        return _analytic_reference(model, grid_points)
    return crn_central_difference(model, params=params, n_samples=n_samples,
                                  rel_step=rel_step, seed=seed, grid_points=grid_points)
