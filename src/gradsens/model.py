"""Response-model contract and finite-difference gradients.

A model maps an i.i.d. standard-normal input vector x to a scalar response y
and, for each declared sensitivity parameter, the derivative of y with respect
to that parameter at the same x.  Evaluation is batched: the engine always
hands the model a (batch, n) block of inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ModelDomainError(RuntimeError):
    """Model-specific domain failure (non-SPD correlation, non-physical state...)."""


@dataclass(frozen=True)
class ModelSpec:
    """Identity of a response model: name, input dimension, parameter values.

    ``params`` holds every named parameter in declaration order;
    ``sensitivity_params`` names the subset gradients are requested for.
    """

    name: str
    input_dim: int
    params: tuple
    sensitivity_params: tuple

    def __post_init__(self):
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        unknown = set(self.sensitivity_params) - set(names)
        if unknown:
            raise ValueError(f"unknown sensitivity parameters: {sorted(unknown)}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")

    def value(self, name: str) -> float:
        for n, v in self.params:
            if n == name:
                return v
        raise KeyError(name)


class ResponseModel:
    """Base class for response models.

    Subclasses must set ``spec`` and implement ``response_batch``; models with
    analytic gradients override ``evaluate_batch``.  ``eager_gradients`` tells
    the sampling engine whether gradients come essentially for free with the
    response (analytic models) or are expensive and should be computed only
    for samples that will be kept (finite-difference models).
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

    def gradient_batch(self, x: np.ndarray) -> np.ndarray:
        """(batch, n_params) gradients; default is central finite differences."""
        return fd_gradient_batch(self, x, self.fd_rel_step)

    def evaluate_batch(self, x: np.ndarray):
        """(y, g) for a (batch, n) input block."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.response_batch(x), self.gradient_batch(x)

    def param_unit(self, name: str) -> str:
        return "-"


def central_steps(value: float, rel_step: float):
    """(a (1+h), a (1-h), 2 a h): the two perturbed values of a parameter with
    nominal value a and the divisor of their central difference.  A parameter
    whose nominal value is exactly zero falls back to the absolute step h * 1.0.
    """
    if not rel_step > 0.0:
        raise ValueError("rel_step must be positive")
    if value != 0.0:
        return value * (1.0 + rel_step), value * (1.0 - rel_step), 2.0 * value * rel_step
    return rel_step, -rel_step, 2.0 * rel_step


def fd_gradient_batch(model: ResponseModel, x: np.ndarray, rel_step: float) -> np.ndarray:
    """Central-difference gradients in each sensitivity parameter (``central_steps``)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cols = []
    for name in model.spec.sensitivity_params:
        up, down, denom = central_steps(model.spec.value(name), rel_step)
        cols.append((model.response_batch(x, **{name: up})
                     - model.response_batch(x, **{name: down})) / denom)
    return np.stack(cols, axis=1)
