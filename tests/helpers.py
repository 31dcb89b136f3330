"""Probes that only tests need, built on the package's own code paths, and a
model with a fault in its output."""

import dataclasses
import math

import numpy as np

from gradsens.numkit import std_normal_pdf
from gradsens.responses import NormalResponse
from gradsens.subsim import Bin, BinPartition


def one_bin(y, g):
    """Direct Monte Carlo responses ``y`` and gradients ``g`` (one column per
    parameter) as the one-bin partition of probability 1, from which
    ``sensitivity_subsim`` gives the direct-MC kernel estimate."""
    return BinPartition(thresholds=np.array([]), bins=[Bin(y=y, g=g, probability=1.0)],
                        param_names=tuple(f"p{j}" for j in range(g.shape[1])))


def dense_reference(bins, widths, y_grid):
    """The estimator as first written: a std_normal_pdf matrix over 1024-row
    chunks of the unique grid, its subnormal entries set to +0.0 as README's
    kernel section states, reduced by one matmul per chunk and bin."""
    grid, inverse = np.unique(np.asarray(y_grid, dtype=float), return_inverse=True)
    raw = np.zeros((grid.shape[0], bins.bins[0].g.shape[1]))
    for b, w in zip(bins.bins, widths):
        scale = b.probability / (b.count * w)
        for lo in range(0, grid.shape[0], 1024):
            chunk = grid[lo : lo + 1024]
            with np.errstate(over="ignore"):
                kmat = std_normal_pdf((b.y[None, :] - chunk[:, None]) / w)
            kmat[kmat < np.finfo(float).tiny] = 0.0
            raw[lo : lo + 1024] += scale * (kmat @ b.g)
    return raw[inverse]


def simulate(model, x, zeta=None, omega=None):
    """Displacement trajectories u(j dt) of an ``SdofResponse``, shape (batch, n),
    recorded from the recursion that ``response_batch`` runs."""
    u = np.zeros((x.shape[0], model.n))
    for j, state in enumerate(model._states(x, ({"zeta": zeta, "omega": omega},)), start=1):
        u[:, j] = state[0, 0]
    return u


def pile_field(model, x, mu=None):
    """Friction-angle field phi'(z_i) of a ``PileResponse`` for a (batch, n) input block."""
    return (model.mu if mu is None else mu) * model._unit_field(x)


def critical_story(model, x, load=None, k2=None):
    """0-based index of the story governing a ``BucklingResponse`` buckling load."""
    load = model.load if load is None else load
    k2 = model.k2 if k2 is None else k2
    return model._terms(x, load, k2).argmax(axis=1)


def bits(a):
    """The float64 values of ``a`` as their uint64 bit patterns, so -0.0 and NaN compare exactly."""
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_same_rows(a, b):
    """Two ``RepeatResult``s hold the same grid, seeds and rows, bit for bit."""
    assert a.seeds == b.seeds and np.array_equal(bits(a.grid), bits(b.grid))
    assert np.array_equal(bits(a.log_ccdf), bits(b.log_ccdf))
    assert a.measures.keys() == b.measures.keys()
    for key, rows in a.measures.items():
        assert np.array_equal(bits(rows), bits(b.measures[key])), key


def mean_ccdf(agg, y):
    """Mean over the runs of a ``RepeatResult`` of their CCDFs at ``y``."""
    return np.nanmean(agg.ccdf_runs(y), axis=0)


def y_at_mean_ccdf(agg, f_target: float) -> float:
    """Threshold where the mean CCDF of a ``RepeatResult`` crosses f_target,
    interpolated in log F over its grid."""
    f = mean_ccdf(agg, agg.grid)
    ok = np.isfinite(f) & (f > 0.0)
    logf = np.log(f[ok])[::-1]
    ygrid = agg.grid[ok][::-1]
    if not (logf[0] <= math.log(f_target) <= logf[-1]):
        raise ValueError(f"target CCDF {f_target} outside the aggregated range")
    return float(np.interp(math.log(f_target), logf, ygrid))


class FaultyNormal(NormalResponse):
    """The normal model with one fault in ``response_batch``: "nan" on the rows
    with x2 > 1.476 (about 7%), "nan-moved" the same under a parameter override
    only, or "column" a (rows, 1) array in place of (rows,); or with "sets" in
    ``response_sets``, which drops the last override set.  It is not named
    "normal", so ``run_benchmark`` takes the CRN reference for it."""

    def __init__(self, fault):
        super().__init__()
        self.fault = fault
        self.spec = dataclasses.replace(self.spec, name="faulty")

    def response_batch(self, x, **overrides):
        y = super().response_batch(x, **overrides)
        if self.fault == "column":
            return y[:, None]
        if self.fault == "nan" or (self.fault == "nan-moved" and overrides):
            y[x[:, 1] > 1.476] = np.nan
        return y

    def response_sets(self, x, overrides):
        y = super().response_sets(x, overrides)
        return y[:-1] if self.fault == "sets" else y
