"""Kernel-smoothed sensitivity estimation.

The sensitivity of the exceedance probability at threshold y equals the
expectation of the response gradient weighted by a normalized kernel centered
at y.  With direct Monte Carlo samples:

    dF/da(y) ~= (1/N) sum_k G_k K((Y_k - y) / w) / w

and with Subset Simulation bins, each bin contributes its sample average
weighted by the bin probability:

    dF/da(y) ~= sum_i P_i (1/N_i) sum_k G_ik K((Y_ik - y) / w_i) / w_i

Kernels deliberately cross bin boundaries.  The default width per bin is
Scott's rule w_i = sigma_i (4 / (3 N_i))^(1/5) with sigma_i the standard
deviation of the samples in bin i, the data actually being smoothed; plugging
the unconditional response spread into every bin ('scott-global') inflates
the smoothing bias of the upper-tail bins several-fold and is kept only as a
selectable variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .model import ModelSpec
from .subsim import Bin, BinPartition, CcdfCurve

# Grid rows per kernel matrix.  Each chunk is reduced by one BLAS matmul, whose
# summation order depends on the row count, so this size fixes the output bits.
_GRID_CHUNK = 1024
# Rows filled per elementwise pass, so that each pass over a sub-block stays
# in L2; the fill is elementwise, so this size does not change any value.
_FILL_ROWS = 32
# exp(x) is exactly +0.0 for every x below -745.1332...  numpy's vectorized exp
# takes a slow path for any vector holding an underflowing lane, so such
# arguments are replaced by 0 before exp and their results by +0.0 after it.
_EXP_UNDERFLOW = -746.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class DegenerateResponseError(RuntimeError):
    """Response variance vanished (or went negative from roundoff)."""


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel with a per-bin Scott, global-spread Scott, or fixed width."""

    width_rule: str = "scott"
    width: float | None = None

    def __post_init__(self):
        if self.width_rule not in ("scott", "scott-global", "fixed"):
            raise ValueError(f"unknown width rule {self.width_rule!r}")
        if self.width_rule == "fixed" and not (self.width and 0.0 < self.width < math.inf):
            raise ValueError("fixed width rule needs a finite positive width")

    @classmethod
    def parse(cls, width: str) -> "KernelSpec":
        """Parse CLI-style width spec: 'scott', 'scott-global' or 'fixed:<w>'."""
        if width in ("scott", "scott-global"):
            return cls(width_rule=width)
        if width.startswith("fixed:"):
            return cls(width_rule="fixed", width=float(width.split(":", 1)[1]))
        raise ValueError(f"width must be 'scott', 'scott-global' or 'fixed:<w>', got {width!r}")


@dataclass
class SensitivityCurve:
    """Sensitivity estimates per parameter on a threshold grid.

    ``raw`` is dF/da; ``scaled`` is a * dF/da (response-scale measure) and
    ``fractional`` is (a / F) * dF/da, both filled by ``normalize_curve``.
    """

    y: np.ndarray
    params: tuple
    raw: np.ndarray
    widths: tuple
    scaled: np.ndarray | None = None
    fractional: np.ndarray | None = None
    ccdf: np.ndarray | None = None

    def column(self, param: str, which: str = "raw") -> np.ndarray:
        j = self.params.index(param)
        return getattr(self, which)[:, j]


def scott_width(sigma_y: float, n_i: int) -> float:
    """Scott's-rule kernel width sigma_Y * (4 / (3 N_i))^(1/5)."""
    if not (np.isfinite(sigma_y) and sigma_y > 0.0):
        raise DegenerateResponseError(f"needs a positive response spread, got {sigma_y}")
    if n_i < 2:
        raise ValueError("need at least 2 samples")
    return sigma_y * (4.0 / (3.0 * n_i)) ** 0.2


def response_moments(bins: BinPartition):
    """(mean, variance) of the response, combining bins by total probability.

    E[Y^r] = sum_i P_i mean(Y_i^r).  Zero variance is returned as-is (the
    width rule rejects it downstream); a negative value, which can only come
    from roundoff, raises.
    """
    if not bins.bins:
        raise ValueError("empty bin partition")
    m1 = sum(b.probability * np.mean(b.y) for b in bins.bins)
    m2 = sum(b.probability * np.mean(b.y * b.y) for b in bins.bins)
    var = m2 - m1 * m1
    if var < 0.0:
        raise DegenerateResponseError(f"response variance {var} negative from roundoff")
    return m1, var


def _bin_widths(bins: BinPartition, kernel: KernelSpec):
    if kernel.width_rule == "fixed":
        return tuple(float(kernel.width) for _ in bins.bins)
    if kernel.width_rule == "scott-global":
        _, var = response_moments(bins)
        sigma = math.sqrt(var)
        return tuple(scott_width(sigma, b.count) for b in bins.bins)
    return tuple(scott_width(float(np.std(b.y)), b.count) for b in bins.bins)


def sensitivity_subsim(bins: BinPartition, kernel: KernelSpec = KernelSpec(),
                       y_grid=None) -> SensitivityCurve:
    """Kernel estimate of dF/da on a threshold grid from SS bins.

    The grid defaults to all bin sample values, sorted.  Every bin contributes
    at every grid point; bin i is smoothed with its own width w_i (Scott's
    rule on the bin's samples unless the kernel says otherwise).
    """
    if not bins.bins:
        raise ValueError("empty bin partition")
    if y_grid is None:
        y_grid = np.sort(np.concatenate([b.y for b in bins.bins]))
    y_grid = np.asarray(y_grid, dtype=float)
    widths = _bin_widths(bins, kernel)

    grid, inverse = np.unique(y_grid, return_inverse=True)
    npar = bins.bins[0].g.shape[1]
    raw = np.zeros((grid.shape[0], npar))
    ncol = max(b.y.shape[0] for b in bins.bins)
    kbuf = np.empty(min(_GRID_CHUNK, grid.shape[0]) * ncol)
    zbuf = np.empty(_FILL_ROWS * ncol)
    under_buf = np.empty(_FILL_ROWS * ncol, dtype=bool)
    for b, w in zip(bins.bins, widths):
        scale = b.probability / (b.count * w)
        for lo in range(0, grid.shape[0], _GRID_CHUNK):
            chunk = grid[lo : lo + _GRID_CHUNK]
            kmat = kbuf[: chunk.shape[0] * b.y.shape[0]].reshape(chunk.shape[0], -1)
            for r in range(0, chunk.shape[0], _FILL_ROWS):
                _fill_pdf(kmat[r : r + _FILL_ROWS], b.y, chunk[r : r + _FILL_ROWS], w,
                          zbuf, under_buf)
            raw[lo : lo + _GRID_CHUNK] += scale * (kmat @ b.g)
    return SensitivityCurve(y=y_grid, params=bins.param_names, raw=raw[inverse], widths=widths)


def _fill_pdf(out, y, c, w, zbuf, under_buf):
    """out[i, k] = std_normal_pdf((y[k] - c[i]) / w), bit for bit.

    The operations and their order are those of ``numkit.std_normal_pdf``;
    ``zbuf`` and ``under_buf`` are scratch space of at least ``out.size``.
    """
    z = zbuf[: out.size].reshape(out.shape)
    under = under_buf[: out.size].reshape(out.shape)
    np.subtract(y[None, :], c[:, None], out=z)
    np.divide(z, w, out=z)
    np.multiply(z, -0.5, out=out)
    np.multiply(out, z, out=out)
    np.less(out, _EXP_UNDERFLOW, out=under)
    np.copyto(out, 0.0, where=under)
    np.exp(out, out=out)
    np.divide(out, _SQRT_2PI, out=out)
    np.copyto(out, 0.0, where=under)


def sensitivity_direct_mc(samples, kernel: KernelSpec = KernelSpec(),
                          y_grid=None, params: tuple = ()) -> SensitivityCurve:
    """Direct-MC kernel estimate: the single-bin case of the SS estimator.

    ``samples`` is the (y, g) pair of responses and gradients.
    """
    y, g = samples
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    if y.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not params:
        params = tuple(f"p{j}" for j in range(g.shape[1]))
    one_bin = BinPartition(
        thresholds=np.array([]),
        bins=[Bin(y=y, g=g, probability=1.0, probability_exact=Fraction(1), count=y.shape[0])],
        param_names=tuple(params),
    )
    return sensitivity_subsim(one_bin, kernel, y_grid)


def normalize_curve(curve: SensitivityCurve, ccdf: CcdfCurve,
                    spec: ModelSpec) -> SensitivityCurve:
    """Fill the a * dF/da and (a / F) * dF/da columns against the CCDF.

    Grids must align.  Points where the CCDF estimate is not positive get NaN
    in the fractional measure.
    """
    if curve.y.shape != ccdf.y.shape or not np.array_equal(curve.y, ccdf.y):
        raise ValueError("sensitivity and CCDF grids are not aligned")
    values = np.array([spec.value(p) for p in curve.params])
    scaled = curve.raw * values[None, :]
    f = ccdf.f
    with np.errstate(divide="ignore", invalid="ignore"):
        fractional = np.where(f[:, None] > 0.0, scaled / f[:, None], np.nan)
    return replace(curve, scaled=scaled, fractional=fractional, ccdf=f.copy())
