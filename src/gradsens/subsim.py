"""Subset Simulation engine with per-sample response gradients.

Level 0 is direct Monte Carlo.  Each subsequent level takes the p0*N
highest-response samples of the previous level as seeds, sets the entry
threshold to the (p0*N)-th largest response (so the conditional level
probability is p0 on a sample basis), and grows one Markov chain of length
1/p0 from each seed with the Gaussian conditional-sampling proposal
x' = a x + sqrt(1 - a^2) z.  Rejected candidates repeat the current state,
and the repeat is stored as a distinct record.

Samples are grouped into threshold bins: bin i holds the level-i records not
promoted to seeds (exactly (1-p0)N of them), carrying probability
p0^i (1-p0); the last bin holds all N top-level records with probability
p0^(m-1).  Candidate batches are evaluated per step in chain order, so a run
is bit-reproducible from its seed alone, independent of thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ResponseModel, _check_finite
from .numkit import RngStream, std_normal_ccdf_inv

_LEVEL0_STREAM = 1
_CHAIN_STREAM_BASE = 2


def _chain_stream(level: int, chain: int) -> int:
    return _CHAIN_STREAM_BASE + (level << 32) + chain


class ThresholdTieWarning(UserWarning):
    """More than 1% of a level's seeds are distinct inputs sharing the threshold
    response value, i.e. the response has an atom there.  Copies of one state
    left by rejected chain moves count once."""


@dataclass(frozen=True)
class SsConfig:
    """Run configuration: m levels of N samples at level probability p0."""

    m: int = 3
    p0: float = 0.1
    n_per_level: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("need at least one level")
        if not 0.0 < self.p0 < 1.0:
            raise ConfigError("p0 must lie in (0, 1)")
        nc = self.p0 * self.n_per_level
        if self.n_per_level < 2 or abs(nc - round(nc)) > 1e-9 or round(nc) < 1:
            raise ConfigError("p0 * n_per_level must be a positive integer")
        if self.n_per_level % round(nc):
            raise ConfigError("n_per_level must be a multiple of the seed count p0 * n_per_level")
        if self.m > 1 and self.n_per_level // round(nc) < 2:
            raise ConfigError("chains need length 1/p0 >= 2, so p0 <= 0.5")
        if self.p0**self.m == 0.0:
            raise ConfigError(f"p0^m underflows to 0 at m={self.m}: too many levels")

    @property
    def n_chains(self) -> int:
        return round(self.p0 * self.n_per_level)

    @property
    def chain_len(self) -> int:
        return self.n_per_level // self.n_chains

    @property
    def model_evaluations(self) -> int:
        # seeds are carried over, not re-evaluated
        return self.n_per_level + (self.m - 1) * (self.n_per_level - self.n_chains)


@dataclass
class Bin:
    """Samples of one threshold bin with their gradients and bin probability."""

    y: np.ndarray
    g: np.ndarray
    probability: float

    @property
    def count(self) -> int:
        """The bin size N_i, read from ``y``."""
        return self.y.shape[0]


@dataclass
class BinPartition:
    thresholds: np.ndarray  # b_1 < ... < b_{m-1}
    bins: list
    param_names: tuple


@dataclass
class CcdfCurve:
    """Exceedance estimates at every generated sample value (sorted)."""

    y: np.ndarray
    f: np.ndarray


def correlation_param(i: int, p0: float):
    """Proposal correlation (a_i, s_i) for conditional sampling at level i >= 1.

    a_i = (1 + u_i / v_i) / 2 with u_i, v_i the standard-normal upper-tail
    quantiles at p0^i and p0^(i+1); this roughly minimizes the chain
    autocorrelation of a Normal response, and u_i/v_i -> 1 as p0 -> 1.
    s_i = sqrt(1 - a_i^2).  The formula stays inside (0, 1) only when the
    u-quantile is nonnegative, i.e. p0^i <= 0.5; larger level probabilities
    are rejected (they also break the chain layout).
    """
    if i < 1:
        raise ValueError("conditional levels start at i = 1")
    u = std_normal_ccdf_inv(p0**i)
    v = std_normal_ccdf_inv(p0 ** (i + 1))
    a = 0.5 * (1.0 + u / v)
    if not 0.0 < a < 1.0:
        raise ValueError(f"correlation parameter {a} outside (0, 1); needs p0^i <= 0.5")
    return a, math.sqrt(1.0 - a * a)


def _advance_chains(model, x, y, g, threshold, a, s, streams, level):
    """One synchronous step of all chains; candidates evaluated as one batch."""
    rows, n = x.shape
    npar = g.shape[1]
    z = np.empty_like(x)
    for c, stream in enumerate(streams):
        z[c] = stream.standard_normal(n)
    xc = a * x + s * z
    if model.eager_gradients:
        yc, gc = model.evaluate_batch(xc)
        _check_finite(f"at level {level}", rows, npar, yc, gc)
        acc = yc >= threshold
        gnew = gc[acc]
    else:
        yc = model.response_batch(xc)
        _check_finite(f"at level {level}", rows, npar, yc)
        acc = yc >= threshold
        gnew = model.gradient_batch(xc[acc]) if acc.any() else g[:0]
        _check_finite(f"at level {level}", int(np.count_nonzero(acc)), npar, yc[acc], gnew)
    x[acc] = xc[acc]
    y[acc] = yc[acc]
    g[acc] = gnew
    return acc


def run_subset_simulation(model: ResponseModel, config: SsConfig):
    """Full run: returns the threshold-bin partition and the CCDF curve.

    Gradients are computed for every stored record at generation time; for
    models with ``eager_gradients`` unset they are computed only for accepted
    candidates, rejected ones reuse the current record.  A NaN or infinite
    response or gradient, or one of the wrong shape, raises ``ModelDomainError``
    naming the level, before it can reach a threshold or a bin.
    """
    N, m = config.n_per_level, config.m
    nc, clen = config.n_chains, config.chain_len
    n = model.spec.input_dim
    root = RngStream(config.seed)

    x_lv = root.split(_LEVEL0_STREAM).standard_normal((N, n))
    y_lv, g_lv = model.evaluate_batch(x_lv)
    _check_finite("at level 0", N, len(model.spec.sensitivity_params), y_lv, g_lv)

    thresholds = []
    bins = []
    levels_y = [y_lv]
    p0 = config.p0

    for level in range(1, m):
        order = np.lexsort((np.arange(N), -y_lv))
        b = float(y_lv[order[nc - 1]])
        seeds = order[:nc]
        rest = order[nc:]
        # a rejected move repeats its state, so count distinct inputs only
        n_tied = len({row.tobytes() for row in x_lv[seeds[y_lv[seeds] == b]]})
        if n_tied > max(1, 0.01 * nc):
            warnings.warn(
                f"more than 1% of level-{level} seeds are distinct inputs tied at the threshold",
                ThresholdTieWarning,
                stacklevel=2,
            )
        thresholds.append(b)
        bins.append(Bin(y=y_lv[rest], g=g_lv[rest], probability=p0 ** (level - 1) * (1.0 - p0)))

        a, s = correlation_param(level, p0)
        streams = [root.split(_chain_stream(level, c)) for c in range(nc)]
        # chain states by step: row t * nc + c of the level is step t of chain c
        xs, ys, gs = (np.empty((clen, nc) + v.shape[1:], v.dtype) for v in (x_lv, y_lv, g_lv))
        xs[0], ys[0], gs[0] = x_lv[seeds], y_lv[seeds], g_lv[seeds]
        for t in range(1, clen):
            xs[t], ys[t], gs[t] = xs[t - 1], ys[t - 1], gs[t - 1]
            _advance_chains(model, xs[t], ys[t], gs[t], b, a, s, streams, level)
        x_lv, y_lv, g_lv = xs.reshape(N, n), ys.reshape(N), gs.reshape(N, -1)
        levels_y.append(y_lv)

    bins.append(Bin(y=y_lv, g=g_lv, probability=p0 ** (m - 1)))

    partition = BinPartition(
        thresholds=np.array(thresholds),
        bins=bins,
        param_names=tuple(model.spec.sensitivity_params),
    )
    return partition, _assemble_ccdf(levels_y, partition.thresholds, p0)


def _assemble_ccdf(levels_y, thresholds, p0) -> CcdfCurve:
    """Piecewise SS exceedance estimate at every generated sample value.

    For v between b_j and b_{j+1} the estimate uses level j alone:
    F(v) = p0^j * #{level-j samples >= v} / N, which equals p0^j exactly at
    v = b_j and is non-increasing across level boundaries.
    """
    n = levels_y[0].shape[0]
    sorted_levels = [np.sort(ly) for ly in levels_y]
    pooled = np.sort(np.concatenate(levels_y))
    level_of = np.searchsorted(thresholds, pooled, side="right")
    f = np.empty_like(pooled)
    for j, ly in enumerate(sorted_levels):
        sel = level_of == j
        if sel.any():
            f[sel] = p0**j * (n - np.searchsorted(ly, pooled[sel], side="left")) / n
    return CcdfCurve(y=pooled, f=f)
