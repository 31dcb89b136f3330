import numpy as np
import pytest

from gradsens.model import ModelDomainError, ModelSpec, ResponseModel, fd_gradient_batch
from gradsens.numkit import RngStream
from gradsens.responses import NormalResponse
from gradsens.subsim import _check_finite


class QuadraticModel(ResponseModel):
    """f = alpha^2, independent of x; central differences are exact here."""

    analytic_gradients = False

    def __init__(self, alpha=3.0):
        self.alpha = alpha
        self.spec = ModelSpec(name="quadratic", input_dim=1,
                              params=(("alpha", alpha),), sensitivity_params=("alpha",))

    def response_batch(self, x, alpha=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a = self.alpha if alpha is None else alpha
        return np.full(x.shape[0], a * a)


class ShiftModel(ResponseModel):
    """f = x1 + used; 'unused' is a declared parameter with no effect."""

    def __init__(self, used=2.0, unused=0.0):
        self.used, self.unused = used, unused
        self.spec = ModelSpec(name="shift", input_dim=1,
                              params=(("used", used), ("unused", unused)),
                              sensitivity_params=("used", "unused"))

    def response_batch(self, x, used=None, unused=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x[:, 0] + (self.used if used is None else used)


def test_evaluate_normal_at_origin():
    y, g = NormalResponse().evaluate_batch(np.zeros(2)[None])
    assert y[0] == 1.0
    assert np.array_equal(g[0], [1.0, 0.0, 0.0])


def test_evaluate_deterministic():
    m = NormalResponse()
    x = RngStream(3).standard_normal(2)[None]
    (y1, g1), (y2, g2) = m.evaluate_batch(x), m.evaluate_batch(x)
    assert y1[0] == y2[0]
    assert np.array_equal(g1, g2)


def test_fd_linear_parameter_exact():
    # response linear in loc: derivative 1 to roundoff
    g = fd_gradient_batch(NormalResponse(), np.array([[0.3, -1.2]]), 1e-5)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_fd_quadratic_exact():
    g = fd_gradient_batch(QuadraticModel(alpha=3.0), np.zeros((1, 1)), 1e-3)
    assert g[0, 0] == pytest.approx(6.0, rel=1e-12)


def test_fd_unused_parameter_zero_and_zero_value_fallback():
    m = ShiftModel(used=2.0, unused=0.0)
    g = fd_gradient_batch(m, np.array([[0.7]]), 1e-3)
    assert g[0, 0] == pytest.approx(1.0, rel=1e-9)
    # 'unused' has nominal value 0: absolute-step fallback, exact cancellation
    assert g[0, 1] == 0.0


def test_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_gradient_batch(ShiftModel(), np.array([[0.0]]), 0.0)


def test_fd_matches_analytic_normal():
    m = NormalResponse()
    x = RngStream(5).standard_normal((100, 2))
    _, g = m.evaluate_batch(x)
    g_fd = fd_gradient_batch(m, x, 1e-5)
    assert np.allclose(g_fd, g, rtol=1e-3, atol=1e-6)


def test_sample_record_rejects_nonfinite():
    # the engine's entry check on every model batch
    with pytest.raises(ModelDomainError):
        _check_finite(0, 1, 1, np.array([float("nan")]), np.zeros((1, 1)))
    with pytest.raises(ModelDomainError):
        _check_finite(0, 1, 1, np.zeros(1), np.array([[float("inf")]]))
    _check_finite(0, 1, 1, np.zeros(1), np.zeros((1, 1)))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(name="dup", input_dim=1, params=(("a", 1.0), ("a", 2.0)),
                  sensitivity_params=("a",))
    with pytest.raises(ValueError):
        ModelSpec(name="missing", input_dim=1, params=(("a", 1.0),),
                  sensitivity_params=("b",))
