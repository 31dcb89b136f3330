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
p0^(m-1).  Candidate batches are evaluated per step in chain order.  No
level's inputs are held whole: level 0 is drawn in row blocks, a chain level
holds its current states, and the seeds come from a running top of each
level's records.  ``run_lockstep`` advances the runs of one configuration at a
group of seeds together; a run is bit-reproducible from its seed alone,
independent of thread count and of the group it ran in.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ResponseModel, _as_int, _as_real, _check_finite
from .numkit import RngStream, std_normal_ccdf_inv

_LEVEL0_STREAM = 1
_CHAIN_STREAM_BASE = 2
_BLOCK_BYTES = 2 << 20  # inputs per level-0 block of a rows_independent model


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
        for name, least in (("m", 1), ("n_per_level", 2), ("seed", 0)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, least))
        object.__setattr__(self, "p0", _as_real(self.p0, "p0", 0.0, 1.0))
        nc = self.p0 * self.n_per_level
        if abs(nc - self.n_chains) > 1e-9 or self.n_chains < 1:
            raise ConfigError("p0 * n_per_level must be a positive integer")
        if self.n_per_level % self.n_chains:
            raise ConfigError("n_per_level must be a multiple of the seed count p0 * n_per_level")
        if self.m > 1 and self.chain_len < 2:
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
    u = std_normal_ccdf_inv(p0**i)
    v = std_normal_ccdf_inv(p0 ** (i + 1))
    a = 0.5 * (1.0 + u / v)
    if not 0.0 < a < 1.0:
        raise ValueError(f"correlation parameter {a} outside (0, 1); needs p0^i <= 0.5")
    return a, math.sqrt(1.0 - a * a)


def _advance_chains(model, x, y, g, b, a, s, streams, where, calls, z, xc):
    """One synchronous step of every chain of a group of runs, in place.

    ``x``, ``y`` and ``g`` hold the chain states as (runs, chains, ...) arrays,
    ``b`` the runs' thresholds, ``streams`` one stream per chain, run by run, and
    ``where`` the runs' error labels.  ``z`` and ``xc`` are C-contiguous scratch
    arrays of the shape of ``x``, reused by every step of a level.  Each slice of
    runs in ``calls`` has its candidates evaluated in one model call; deferred
    gradients are one call per run.  Returns the accept mask.
    """
    runs, nc, n = x.shape
    npar = g.shape[2]
    for row, stream in zip(z.reshape(-1, n), streams):
        stream.standard_normal(out=row)
    np.multiply(x, a, out=xc)  # xc = a x + s z
    np.multiply(z, s, out=z)
    np.add(xc, z, out=xc)
    yc, gc = np.empty((runs, nc)), np.empty((runs, nc, npar))
    eager = model.eager_gradients
    for part in calls:
        xb = xc[part].reshape(-1, n)
        yb, gb = model.evaluate_batch(xb) if eager else (model.response_batch(xb), None)
        _check_finite(where[part], nc, npar, yb, gb)
        yc[part] = yb.reshape(-1, nc)
        if eager:
            gc[part] = gb.reshape(-1, nc, npar)
    acc = yc >= b[:, None]
    if not eager:
        for k, kept in enumerate(acc):
            if kept.any():
                gk = model.gradient_batch(xc[k][kept])
                _check_finite(where[k : k + 1], int(np.count_nonzero(kept)), npar, yc[k][kept], gk)
                gc[k][kept] = gk
    x[acc] = xc[acc]
    y[acc] = yc[acc]
    g[acc] = gc[acc]
    return acc


def _keep_top(top, y, x, size):
    """The running top of a level: ``top`` = (responses, inputs) of the first
    ``size`` records of the rows seen so far in the order (-y, row), updated with
    the responses ``y`` and inputs ``x`` of the next rows.  Over every row this is
    ``argsort(-y, kind="stable")[:size]``: ``top`` holds only earlier rows, so a
    stable sort keeps ties in row order.  The result shares no memory with ``x``.
    """
    ty, tx = top
    if ty.shape[0] == size:  # a later row enters only above the last one kept
        new = y > ty[-1]
        y, x = y[new], x[new]
    both = np.concatenate([ty, y])
    keep = np.argsort(-both, kind="stable")[:size]
    return both[keep], np.concatenate([tx, x])[keep]


def run_subset_simulation(model: ResponseModel, config: SsConfig):
    """Full run: returns the threshold-bin partition and the CCDF curve.

    Gradients are computed for every stored record at generation time; for
    models with ``eager_gradients`` unset they are computed only for accepted
    candidates, rejected ones reuse the current record.  A NaN or infinite
    response or gradient, or one of the wrong shape, raises ``ModelDomainError``
    naming the level and the seed, before it can reach a threshold or a bin.
    """
    return run_lockstep(model, config, (config.seed,))[0]


def run_lockstep(model: ResponseModel, config: SsConfig, seeds) -> list:
    """The runs of ``config`` at each of ``seeds`` (``config.seed`` is not read),
    advanced level by level and chain step by chain step together: one
    (partition, CCDF) per seed, each bit-equal to ``run_subset_simulation`` at it.

    Level 0 is drawn and evaluated run by run: for a ``model.spec.rows_independent``
    model in even blocks of 2 rows or more and at most about ``_BLOCK_BYTES`` of
    inputs, otherwise in one call.  A chain step evaluates the candidates of every
    run in one call, each row against its run's threshold, when
    ``rows_independent`` is set and each run has at least 2 chains (a 1-row block
    may round differently); otherwise it makes one call per run.  Deferred
    gradients are one call per run.  No level's inputs are held: each run keeps
    the chain states and a running top of p0*N records (``_keep_top``), the next
    level's seeds; the responses and gradients of every record stay for the bins.
    """
    runs = len(seeds)
    N, m, p0 = config.n_per_level, config.m, config.p0
    nc, clen = config.n_chains, config.chain_len
    n = model.spec.input_dim
    npar = len(model.spec.sensitivity_params)
    stack = model.spec.rows_independent
    calls = [slice(0, runs)] if stack and nc >= 2 else [slice(k, k + 1) for k in range(runs)]
    blocks = max(1, min(-(-8 * n * N // _BLOCK_BYTES), N // 2)) if stack else 1
    edges = [N * i // blocks for i in range(blocks + 1)]
    roots = [RngStream(seed) for seed in seeds]
    levels_y, thresholds, bins = ([[] for _ in seeds] for _ in range(3))
    heads = [None] * runs  # per run, the next level's chain seeds (x, y, g)

    for level in range(m):
        where = [f"at level {level} (seed {seed})" for seed in seeds]
        tops = [(np.empty(0), np.empty((0, n)))] * runs
        ranked = level < m - 1  # the last level is one bin and seeds no level
        if level:
            b = np.array([t[-1] for t in thresholds])
            # free the previous level's states before allocating this level's; row
            # t * nc + c of a run's level is step t of chain c
            buf = x = ys = gs = z = xc = None
            x = np.stack([head[0] for head in heads])
            ys, gs = np.empty((runs, clen, nc)), np.empty((runs, clen, nc, npar))
            for k, (_, hy, hg) in enumerate(heads):
                ys[k, 0], gs[k, 0] = hy, hg
            heads = [None] * runs
            z, xc = np.empty_like(x), np.empty_like(x)
            a, s = correlation_param(level, p0)
            streams = [root.split(_chain_stream(level, c)) for root in roots for c in range(nc)]
            for t in range(clen):
                if t:
                    ys[:, t], gs[:, t] = ys[:, t - 1], gs[:, t - 1]
                    _advance_chains(model, x, ys[:, t], gs[:, t], b, a, s, streams, where,
                                    calls, z, xc)
                if ranked:
                    tops = [_keep_top(top, ys[k, t], x[k], nc) for k, top in enumerate(tops)]
        else:
            buf = np.empty((-(-N // blocks), n))  # refilled by every level-0 block
        for k, (root, seed) in enumerate(zip(roots, seeds)):
            if level:
                y, g = ys[k].reshape(N), gs[k].reshape(N, npar)
            else:
                y, g = np.empty(N), np.empty((N, npar))
                stream = root.split(_LEVEL0_STREAM)
                for lo, hi in zip(edges, edges[1:]):
                    xb = stream.standard_normal(out=buf[: hi - lo])
                    yb, gb = model.evaluate_batch(xb)
                    label = where[k] if blocks == 1 else f"at level 0 rows {lo}-{hi} (seed {seed})"
                    _check_finite([label], hi - lo, npar, yb, gb)
                    y[lo:hi], g[lo:hi] = yb, gb
                    if ranked:
                        tops[k] = _keep_top(tops[k], yb, xb, nc)
            levels_y[k].append(y)
            rest = slice(None)
            if ranked:
                order = np.argsort(-y, kind="stable")
                rest = order[nc:]
                ty, tx = tops[k]
                bk = float(ty[-1])
                # a rejected move repeats its state, so count distinct inputs only
                if len({row.tobytes() for row in tx[ty == bk]}) > max(1, 0.01 * nc):
                    # stacklevel 3 names the caller of run_subset_simulation or repeat_runs
                    warnings.warn(f"more than 1% of level-{level + 1} seeds are distinct inputs "
                                  "tied at the threshold", ThresholdTieWarning, stacklevel=3)
                thresholds[k].append(bk)
                heads[k] = tx, ty, g[order[:nc]]
            bins[k].append(Bin(y=y[rest], g=g[rest],
                               probability=p0**level * (1.0 - p0 if ranked else 1.0)))

    names = tuple(model.spec.sensitivity_params)
    partitions = [BinPartition(thresholds=np.array(t), bins=bs, param_names=names)
                  for t, bs in zip(thresholds, bins)]
    return [(p, _assemble_ccdf(ly, p.thresholds, p0)) for p, ly in zip(partitions, levels_y)]


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
