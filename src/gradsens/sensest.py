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
deviation of the samples in bin i, the data actually being smoothed.  The
'scott-global' variant plugs into every bin the response's spread about its
mean, the bins combined by their probabilities; that inflates the smoothing
bias of the upper-tail bins several-fold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigError, ModelSpec
from .subsim import BinPartition, CcdfCurve

# Grid rows per kernel matrix.  Each chunk is reduced by one BLAS matmul, whose
# summation order depends on the row count, so this size fixes the output bits;
# a smaller chunk would also fall under OpenBLAS's small-matrix kernel.
_GRID_CHUNK = 1024
# Rows filled per elementwise pass, in place in the kernel matrix or through a
# gather buffer, so that each pass over a sub-block stays in L2; the fill is
# elementwise, so this size does not change any value.
_FILL_ROWS = 32
# Below ln(DBL_MIN sqrt(2 pi)) = -707.477479999059433... the pdf is subnormal or
# +0.0, and each subnormal costs a microcode assist in exp, divide and matmul.
# Such arguments go to exp as 0 and their results are overwritten with +0.0, so
# every entry is +0.0 or normal.  This is the smallest double whose exact pdf is
# normal (the next one down is 4.9e-14 below DBL_MIN = 2.23e-308).  So an output
# moves by at most sum_b P_b / w_b * 2.23e-308 * max|g_b|, an absolute bound.
_EXP_UNDERFLOW = -707.4774799990594
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class DegenerateResponseError(RuntimeError):
    """Response spread vanished."""


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel with a per-bin Scott, global-spread Scott, or fixed width."""

    width_rule: str = "scott"
    width: float | None = None

    def __post_init__(self):
        if self.width_rule not in ("scott", "scott-global", "fixed"):
            raise ConfigError(f"width rule {self.width_rule!r}: not scott, scott-global or fixed")
        tiny = sys.float_info.min  # below it, P_i / (N_i w) overflows and inf * 0 is NaN
        if self.width_rule == "fixed" and not (self.width and tiny <= self.width < math.inf):
            raise ConfigError(f"fixed width rule needs a finite positive width, at least {tiny}")
        if self.width_rule != "fixed" and self.width is not None:
            raise ConfigError(f"the {self.width_rule} width rule takes no width")

    @classmethod
    def parse(cls, width: str) -> "KernelSpec":
        """Parse CLI-style width spec: 'scott', 'scott-global' or 'fixed:<w>'."""
        rule, sep, w = width.partition(":")
        try:
            value = float(w) if sep else None
        except ValueError:
            raise ConfigError(f"kernel width must be a number, got {width!r}") from None
        return cls(width_rule=rule, width=value)


@dataclass
class SensitivityCurve:
    """Sensitivity estimates per parameter on a threshold grid.

    ``raw`` is dF/da; ``column`` derives a * dF/da and (a / F) * dF/da from it
    and the ``ccdf`` and parameter ``values`` that ``normalize_curve`` adds.
    """

    y: np.ndarray
    params: tuple
    raw: np.ndarray
    widths: tuple
    ccdf: np.ndarray | None = None
    values: np.ndarray | None = None

    def column(self, param: str, which: str = "raw") -> np.ndarray:
        """dF/da ("raw"), a dF/da ("scaled") or (a / F) dF/da ("fractional")."""
        j = self.params.index(param)
        if which == "raw":
            return self.raw[:, j]
        scaled = self.raw[:, j] * self.values[j]
        if which == "scaled":
            return scaled
        if which == "fractional":
            return fractional_measure(scaled[:, None], self.ccdf)[:, 0]
        raise ValueError(f"unknown measure {which!r}")


def scott_width(sigma_y: float, n_i: int, mean: float = 0.0, where: str = "") -> float:
    """Scott's-rule kernel width sigma_Y * (4 / (3 N_i))^(1/5).

    A bin of one sample has no spread: that is a configuration error, checked
    before the spread itself.  A spread at or below 8 eps |mean| is a constant
    response's roundoff (at most about 3 eps |mean|) and counts as none.
    """
    if n_i < 2:
        raise ConfigError(f"a kernel width needs at least 2 samples per bin, got {n_i}")
    if not (np.isfinite(sigma_y) and sigma_y > 8.0 * sys.float_info.epsilon * abs(mean)):
        raise DegenerateResponseError(f"needs a positive response spread, got {sigma_y}{where}")
    return sigma_y * (4.0 / (3.0 * n_i)) ** 0.2


def _bin_widths(bins: BinPartition, kernel: KernelSpec):
    if kernel.width_rule == "fixed":
        return tuple(float(kernel.width) for _ in bins.bins)
    if kernel.width_rule == "scott-global":  # two passes; E[Y^2] - E[Y]^2 would cancel
        mean = sum(b.probability * np.mean(b.y) for b in bins.bins)
        sigma = math.sqrt(sum(b.probability * np.mean((b.y - mean) ** 2) for b in bins.bins))
        spreads = [(sigma, mean)] * len(bins.bins)
    else:
        spreads = [(float(np.std(b.y)), np.mean(b.y)) for b in bins.bins]
    return tuple(scott_width(sigma, b.count, mean, f" in bin {i} of {b.count} samples")
                 for i, (b, (sigma, mean)) in enumerate(zip(bins.bins, spreads)))


def sensitivity_subsim(bins: BinPartition, kernel: KernelSpec, y_grid,
                       rows=None) -> SensitivityCurve:
    """Kernel estimate of dF/da at each threshold of ``y_grid`` from SS bins.

    Every bin contributes at every grid point; bin i is smoothed with its own
    width w_i (Scott's rule on the bin's samples unless the kernel says
    otherwise).  ``rows``, if given, indexes ``y_grid``: the estimate is
    evaluated at those points and at every copy of their values, with the bits
    of the full grid's, and is NaN at the others.
    """
    if not bins.bins:
        raise ValueError("empty bin partition")
    y_grid = np.asarray(y_grid, dtype=float)
    widths = _bin_widths(bins, kernel)

    grid, inverse = np.unique(y_grid, return_inverse=True)
    npar = bins.bins[0].g.shape[1]
    raw = np.zeros((grid.shape[0], npar))
    ncol = max(b.count for b in bins.bins)
    # A chunk keeps its full row count in its product, which rounds a row by the
    # row count; its rows not filled are +0.0 there.  A row is filled when it is
    # wanted and not dead for the bin (``_dead_rows``); a chunk with none is
    # skipped, as its product would add only +-0.0 to ``raw``, which is never
    # -0.0.  Consecutive rows are filled in place, scattered ones (``repeat``'s
    # knots) in blocks of _FILL_ROWS gathered and then copied into place.
    wanted = np.zeros(grid.shape[0], dtype=bool)
    wanted[slice(None) if rows is None else inverse[rows]] = True
    kbuf = np.empty(min(_GRID_CHUNK, grid.shape[0]) * ncol)
    fill = min(_FILL_ROWS, np.count_nonzero(wanted)) * ncol
    part_buf = np.empty(fill)
    under_buf = np.empty(fill, dtype=bool)
    with np.errstate(over="ignore"):  # a tiny width overflows z: pdf(inf) is +0.0
        for b, w in zip(bins.bins, widths):
            scale = b.probability / (b.count * w)
            live = wanted & ~_dead_rows(grid, b.y, w)
            for lo in range(0, grid.shape[0], _GRID_CHUNK):
                want = live[lo : lo + _GRID_CHUNK]
                sel = np.flatnonzero(want)
                if not sel.size:
                    continue
                chunk = grid[lo : lo + _GRID_CHUNK]
                kmat = kbuf[: chunk.shape[0] * b.count].reshape(chunk.shape[0], -1)
                kmat[~want] = 0.0
                for r in range(0, sel.shape[0], _FILL_ROWS):
                    some = sel[r : r + _FILL_ROWS]
                    first, last = some[0], some[-1] + 1
                    if last - first == some.shape[0]:
                        _fill_pdf(kmat[first:last], b.y, chunk[first:last], w, under_buf)
                        continue
                    part = part_buf[: some.shape[0] * b.count].reshape(some.shape[0], -1)
                    _fill_pdf(part, b.y, chunk[some], w, under_buf)
                    kmat[some] = part
                raw[lo : lo + _GRID_CHUNK] += scale * (kmat @ b.g)
    raw[~wanted] = np.nan
    return SensitivityCurve(y=y_grid, params=bins.param_names, raw=raw[inverse], widths=widths)


def _dead_rows(grid, y, w):
    """Rows of ``grid`` at which every pdf argument against the samples ``y`` is
    below _EXP_UNDERFLOW, so that the whole kernel row is +0.0.

    Only a row outside [min y, max y] is tested, at its nearest sample: there
    the rounded argument (z * z) * -0.5 with z = (y - c) / w, as ``_fill_pdf``
    forms it, is monotone in |y - c|, so no farther sample has a larger one.
    """
    lo, hi = y.min(), y.max()
    z = (np.where(grid < lo, lo, hi) - grid) / w
    return ((grid < lo) | (grid > hi)) & (z * z * -0.5 < _EXP_UNDERFLOW)


def _fill_pdf(out, y, c, w, under_buf):
    """out[i, k] = std_normal_pdf((y[k] - c[i]) / w), bit for bit, or +0.0 where that is subnormal.

    The argument is formed in ``out`` as (z * z) * -0.5, where std_normal_pdf
    takes (z * -0.5) * z: scaling by -0.5 is exact, so they differ only where
    z * z underflows (exp gives 1.0 either way) or overflows (both are below
    _EXP_UNDERFLOW).  ``under_buf`` is scratch of at least ``out.size``.  The
    difference is taken row by row, which is faster than numpy's broadcast, and
    a block with no argument below _EXP_UNDERFLOW skips both clamp passes.
    """
    under = under_buf[: out.size].reshape(out.shape)
    for i in range(c.shape[0]):
        np.subtract(y, c[i], out=out[i])
    np.divide(out, w, out=out)
    np.multiply(out, out, out=out)
    np.multiply(out, -0.5, out=out)
    np.less(out, _EXP_UNDERFLOW, out=under)
    clamp = under.any()
    if clamp:
        np.copyto(out, 0.0, where=under)
    np.exp(out, out=out)
    np.divide(out, _SQRT_2PI, out=out)
    if clamp:
        np.copyto(out, 0.0, where=under)


def normalize_curve(curve: SensitivityCurve, ccdf: CcdfCurve,
                    spec: ModelSpec) -> SensitivityCurve:
    """Attach the CCDF and the parameter values, from which ``column`` derives
    the a * dF/da and (a / F) * dF/da measures.

    Grids must align.  Points where the CCDF estimate is not positive get NaN
    in the fractional measure.
    """
    if not np.array_equal(curve.y, ccdf.y):
        raise ValueError("sensitivity and CCDF grids are not aligned")
    values = np.array([spec.value(p) for p in curve.params])
    return replace(curve, ccdf=ccdf.f.copy(), values=values)


def fractional_measure(scaled, f) -> np.ndarray:
    """(a / F) dF/da from the a dF/da columns ``scaled``; NaN where F is not positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(f[:, None] > 0.0, scaled / f[:, None], np.nan)
