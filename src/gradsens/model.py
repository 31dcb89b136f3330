"""Response-model contract and finite-difference gradients.

A model maps an i.i.d. standard-normal input vector x to a scalar response y
and, for each declared sensitivity parameter, the derivative of y with respect
to that parameter at the same x.  Evaluation is batched: the engine always
hands the model a float64 (batch, n) array of inputs, which models use as
given; to evaluate one input, pass x[None].  A block arrives contiguous in C
or Fortran order.  ``spec.input_order`` names the order a model reads fastest,
and the CRN reference builds its blocks in it; it is a speed hint only, so a
model's outputs must not depend on the layout of its input.  The CRN reference
refills one buffer for every block, so a model must not keep a reference to
its input block after a call returns.  The module owns both rules for a number the
caller chose, ``_as_int`` (counts, seeds, stream ids) and ``_as_real`` (reals).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class ModelDomainError(RuntimeError):
    """Model-specific domain failure (non-SPD correlation, non-physical state...)."""


class ConfigError(ValueError):
    """An argument the caller chose is invalid: the command line exits 2 on it."""


def _as_int(value, name, least=0) -> int:
    """``value`` as a Python int in [least, 2**64): any ``numbers.Integral`` but bool;
    never a float truncated or a string parsed."""
    if type(value) is bool or not (isinstance(value, numbers.Integral)
                                   and least <= int(value) < 2**64):
        raise ConfigError(f"{name}={value!r}: needs an integer in [{least}, 2**64)")
    return int(value)


def _as_real(value, name, lo=-math.inf, hi=math.inf) -> float:
    """``value`` as a Python float in the open range (lo, hi), so never NaN or infinite:
    any ``numbers.Real`` but bool; never a string parsed."""
    if type(value) is bool or not (isinstance(value, numbers.Real) and lo < value < hi):
        raise ConfigError(f"{name}={value!r}: needs a finite real in ({lo}, {hi})")
    return float(value)


@dataclass(frozen=True)
class ModelSpec:
    """Identity of a response model: name, input dimension, parameter values.

    ``params`` holds every named parameter in declaration order;
    ``sensitivity_params`` names the subset gradients are requested for.
    ``input_order`` is the memory order, "C" or "F", in which the model reads an
    input block fastest.  ``rows_independent`` declares that the outputs for a
    row are the same bits in every block of 2 rows or more that holds it, so
    the engine may stack the chain candidates of several runs into one call.
    """

    name: str
    input_dim: int
    params: tuple
    sensitivity_params: tuple
    input_order: str = "C"
    rows_independent: bool = False

    def __post_init__(self):
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        unknown = set(self.sensitivity_params) - set(names)
        if unknown:
            raise ValueError(f"unknown sensitivity parameters: {sorted(unknown)}")
        object.__setattr__(self, "input_dim", _as_int(self.input_dim, "input_dim", 1))
        if self.input_order not in ("C", "F"):
            raise ValueError(f"input_order must be 'C' or 'F', not {self.input_order!r}")
        if not isinstance(self.rows_independent, bool):
            raise ValueError(f"rows_independent must be a bool, not {self.rows_independent!r}")

    def value(self, name: str) -> float:
        for n, v in self.params:
            if n == name:
                return v
        raise ConfigError(f"model {self.name!r} has no parameter {name!r}")

    def select(self, names=None) -> tuple:
        """The named sensitivity parameters in declaration order, each once; all of
        them for ``None`` or an empty selection.  The one rule for choosing them."""
        chosen = set(names or self.sensitivity_params)
        bad = chosen - set(self.sensitivity_params)
        if bad:
            raise ConfigError(f"unknown sensitivity parameters for {self.name}: {sorted(bad)}")
        return tuple(p for p in self.sensitivity_params if p in chosen)


class ResponseModel:
    """Base class for response models.

    Subclasses must set ``spec`` and implement ``response_batch``; models with
    analytic gradients override ``evaluate_batch``, and models that can share
    work between the parameter overrides of one block, ``response_sets``.
    ``eager_gradients`` tells the sampling engine whether gradients come
    essentially for free with the response (analytic models) or are expensive
    and should be computed only for samples that will be kept
    (finite-difference models).
    """

    spec: ModelSpec
    eager_gradients = True
    analytic_gradients = True
    fd_rel_step = 1e-3
    response_unit = "-"

    def response_batch(self, x: np.ndarray, **overrides) -> np.ndarray:
        """Responses for a (batch, n) input block.

        Keyword overrides replace named parameter values for this call only;
        models use them for finite differences and perturbation benchmarks.
        """
        raise NotImplementedError

    def response_sets(self, x: np.ndarray, overrides) -> np.ndarray:
        """(len(overrides), batch) responses for one input block: row k has the
        bits of ``response_batch(x, **overrides[k])``."""
        return np.stack([self.response_batch(x, **kw) for kw in overrides])

    def gradient_batch(self, x: np.ndarray) -> np.ndarray:
        """(batch, n_params) gradients; default is central finite differences."""
        return fd_gradient_batch(self, x, self.fd_rel_step)

    def evaluate_batch(self, x: np.ndarray):
        """(y, g) for a (batch, n) input block."""
        return self.response_batch(x), self.gradient_batch(x)

    def param_unit(self, name: str) -> str:
        return "-"


def _check_finite(where, rows, npar, y, g=None):
    """Reject one model call over stacked blocks of ``rows`` inputs, one per label
    in ``where``, if a response or gradient has the wrong shape or is not finite.
    The message ends with the label of the first block for a wrong shape, or of
    the first block with a non-finite row, counted over that block's rows."""
    total = len(where) * rows
    if y.shape != (total,) or (g is not None and g.shape != (total, npar)):
        out = [a for a in (y, g) if a is not None]
        if all(a.shape[:1] == (total,) for a in out):  # whole blocks: show the first
            out, total = [a[:rows] for a in out], rows
        raise ModelDomainError(f"model returned shapes {' and '.join(str(a.shape) for a in out)}"
                               f" for {total} rows and {npar} sensitivity parameters {where[0]}")
    bad = ~np.isfinite(y)
    if g is not None:
        bad |= ~np.isfinite(g).all(axis=1)
    if bad.any():
        blocks = bad.reshape(len(where), rows)
        k = int(blocks.any(axis=1).argmax())
        raise ModelDomainError(f"model returned non-finite output for "
                               f"{np.count_nonzero(blocks[k])} of {rows} rows {where[k]}")


def central_steps(value: float, rel_step: float):
    """(a (1+h), a (1-h), 2 a h): the two perturbed values of a parameter with
    nominal value a and the divisor of their central difference; h < 1 keeps
    both values on the side of zero that a is on.  A parameter whose nominal
    value is exactly zero falls back to the absolute step h * 1.0.
    """
    rel_step = _as_real(rel_step, "rel_step", 0.0, 1.0)
    if value != 0.0:
        return value * (1.0 + rel_step), value * (1.0 - rel_step), 2.0 * value * rel_step
    return rel_step, -rel_step, 2.0 * rel_step


def _response_sets(model, x, overrides, where):
    """``model.response_sets``, rejecting a result without one row per override set;
    the message ends with ``where``."""
    y = model.response_sets(x, overrides)
    if np.shape(y)[:1] != (len(overrides),):
        raise ModelDomainError(f"model returned shape {np.shape(y)} for {len(overrides)} "
                               f"parameter override sets {where}")
    return y


def fd_gradient_batch(model: ResponseModel, x: np.ndarray, rel_step: float) -> np.ndarray:
    """Central-difference gradients in each sensitivity parameter (``central_steps``),
    from one ``response_sets`` call over the up and down values of every parameter."""
    names = model.spec.sensitivity_params
    steps = [central_steps(model.spec.value(name), rel_step) for name in names]
    sets = [{name: v} for name, s in zip(names, steps) for v in s[:2]]
    y = _response_sets(model, x, sets, "in finite-difference gradients")
    return np.stack([(y[2 * i] - y[2 * i + 1]) / s[2] for i, s in enumerate(steps)], axis=1)
