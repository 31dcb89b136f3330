import re

import numpy as np
import pytest

from gradsens.benchmarks import crn_central_difference, run_benchmark
from gradsens.cli import _select_params, repeat_runs
from gradsens.model import (ConfigError, ModelDomainError, ModelSpec, ResponseModel,
                            _check_finite, central_steps, fd_gradient_batch)
from gradsens.numkit import RngStream
from gradsens.responses import MODEL_BUILDERS, NormalResponse, build_model
from gradsens.sensest import KernelSpec, scott_width
from gradsens.subsim import SsConfig, run_subset_simulation

from helpers import FaultyNormal


class QuadraticModel(ResponseModel):
    """f = alpha^2, independent of x; central differences are exact here."""

    analytic_gradients = False

    def __init__(self, alpha=3.0):
        self.alpha = alpha
        self.spec = ModelSpec(name="quadratic", input_dim=1,
                              params=(("alpha", alpha),), sensitivity_params=("alpha",))

    def response_batch(self, x, alpha=None):
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


def test_default_response_sets_stacks_response_batch():
    m = ShiftModel(used=2.0)
    x = np.array([[0.5], [-1.0], [3.0]])
    overrides = ({}, {"used": 1.5}, {"unused": 7.0})
    y = m.response_sets(x, overrides)
    assert np.array_equal(y, [m.response_batch(x, **kw) for kw in overrides])


def test_fd_rejects_a_missing_override_set():
    message = "shape (5, 4) for 6 parameter override sets in finite-difference gradients"
    with pytest.raises(ModelDomainError, match=re.escape(message)):
        fd_gradient_batch(FaultyNormal("sets"), np.zeros((4, 2)), 1e-3)


def test_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_gradient_batch(ShiftModel(), np.array([[0.0]]), 0.0)


@pytest.mark.parametrize("rel_step", [0.0, -0.01, 1.0, 2.0, float("nan")])
def test_central_steps_needs_step_inside_unit_interval(rel_step):
    # h >= 1 would put a (1 - h) at or past zero: a damping ratio of -zeta
    with pytest.raises(ValueError, match="needs 0 < rel_step < 1"):
        central_steps(0.01, rel_step)


def test_fd_matches_analytic_normal():
    m = NormalResponse()
    x = RngStream(5).standard_normal((100, 2))
    _, g = m.evaluate_batch(x)
    g_fd = fd_gradient_batch(m, x, 1e-5)
    assert np.allclose(g_fd, g, rtol=1e-3, atol=1e-6)


def test_sample_record_rejects_nonfinite():
    # the engine's entry check on every model batch
    with pytest.raises(ModelDomainError):
        _check_finite(["at level 0"], 1, 1, np.array([float("nan")]), np.zeros((1, 1)))
    with pytest.raises(ModelDomainError):
        _check_finite(["at level 0"], 1, 1, np.zeros(1), np.array([[float("inf")]]))
    _check_finite(["at level 0"], 1, 1, np.zeros(1), np.zeros((1, 1)))


@pytest.mark.parametrize("check", [
    lambda: SsConfig(m=0),
    lambda: SsConfig(p0=0.3),
    lambda: SsConfig(m=330, p0=0.1),
    lambda: KernelSpec("silverman"),
    lambda: KernelSpec.parse("fixed:abc"),
    lambda: KernelSpec.parse("fixed:0"),
    lambda: KernelSpec("scott-global", -5.0),
    lambda: central_steps(1.0, 0.0),
    lambda: RngStream(-1),
    lambda: scott_width(1.0, 1),
    lambda: crn_central_difference(NormalResponse(), n_samples=0),
    lambda: run_benchmark(NormalResponse(), ("loc",), 100, 0.01, 0, grid_points=1),
    lambda: repeat_runs(NormalResponse(), SsConfig(), KernelSpec(), [1]),
    lambda: _select_params(NormalResponse(), ["bogus"]),
    lambda: build_model("nope"),
    lambda: NormalResponse().spec.value("bogus"),
    lambda: crn_central_difference(NormalResponse(), params=("bogus",), n_samples=11),
], ids=["levels", "p0", "p0-to-the-m", "width-rule", "width-number", "width-zero", "scott-width",
        "fd-step", "seed", "one-sample-bin", "crn-samples", "grid-points", "one-run", "param",
        "model-name", "spec-value", "crn-param"])
def test_argument_checks_raise_config_error(check):
    with pytest.raises(ConfigError):
        check()


class SpyNormal(NormalResponse):
    """The normal model recording the input block of every model call."""

    def __init__(self, eager):
        super().__init__()
        self.eager_gradients = eager
        self.seen = []

    def _record(self, method, x, overrides=None):
        self.seen.append((method, type(x), x.dtype, x.shape, bool(overrides)))

    def response_batch(self, x, **overrides):
        self._record("response_batch", x, overrides)
        return super().response_batch(x, **overrides)

    def evaluate_batch(self, x):
        self._record("evaluate_batch", x)
        return super().evaluate_batch(x)

    def gradient_batch(self, x):
        self._record("gradient_batch", x)
        return super().gradient_batch(x)


def assert_float64_blocks(model, methods):
    assert {s[0] for s in model.seen} == methods
    for method, kind, dtype, shape, _ in model.seen:
        assert kind is np.ndarray and dtype == np.float64, method
        assert len(shape) == 2 and shape[0] >= 1 and shape[1] == model.spec.input_dim, method


@pytest.mark.parametrize("eager", [True, False], ids=["eager", "deferred-gradients"])
def test_engine_hands_models_float64_blocks(eager):
    # what lets models (and fd_gradient_batch) use x as given, without coercion
    model = SpyNormal(eager)
    run_subset_simulation(model, SsConfig(m=3, p0=0.1, n_per_level=200, seed=5))
    assert_float64_blocks(model, {"evaluate_batch"} if eager
                          else {"evaluate_batch", "response_batch", "gradient_batch"})


def test_crn_reference_hands_models_float64_blocks():
    model = SpyNormal(True)
    crn_central_difference(model, n_samples=300, rel_step=0.01, seed=2)
    assert_float64_blocks(model, {"response_batch"})
    assert any(s[4] for s in model.seen) and not all(s[4] for s in model.seen)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(name="dup", input_dim=1, params=(("a", 1.0), ("a", 2.0)),
                  sensitivity_params=("a",))
    with pytest.raises(ValueError):
        ModelSpec(name="missing", input_dim=1, params=(("a", 1.0),),
                  sensitivity_params=("b",))
    with pytest.raises(ValueError, match="input_order"):
        ModelSpec(name="order", input_dim=1, params=(("a", 1.0),),
                  sensitivity_params=("a",), input_order="A")
    with pytest.raises(ValueError, match="rows_independent"):
        ModelSpec(name="rows", input_dim=1, params=(("a", 1.0),),
                  sensitivity_params=("a",), rows_independent=1)
    assert not ModelSpec(name="plain", input_dim=1, params=(("a", 1.0),),
                         sensitivity_params=("a",)).rows_independent


def bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_outputs_do_not_depend_on_input_layout(name):
    # ``spec.input_order`` is a speed hint: C and Fortran copies of one block
    # give the same bits, nominal and with each parameter moved
    model = build_model(name)
    overrides = [{}] + [{p: v} for p in model.spec.sensitivity_params
                        for v in central_steps(model.spec.value(p), 0.01)[:2]]
    for rows in (1, 2, 100, 257, 8192):
        xc = RngStream(rows).standard_normal((rows, model.spec.input_dim))
        xf = np.asfortranarray(xc)
        for kw in overrides:
            assert np.array_equal(bits(model.response_batch(xc, **kw)),
                                  bits(model.response_batch(xf, **kw))), (rows, kw)
        for got_c, got_f in zip(model.evaluate_batch(xc), model.evaluate_batch(xf)):
            assert np.array_equal(bits(got_c), bits(got_f)), rows


ROW_COUNTS = (1, 2, 3, 6, 7, 15, 31, 50, 99, 333)


def row_counts_that_round_differently(model):
    """The ``ROW_COUNTS`` k at which the first k rows of a 1200-row block, given
    alone, change any bit of ``response_batch`` or ``evaluate_batch``."""
    x = RngStream(12).standard_normal((1200, model.spec.input_dim))
    full = (model.response_batch(x), *model.evaluate_batch(x))
    differ = []
    for k in ROW_COUNTS:
        part = (model.response_batch(x[:k]), *model.evaluate_batch(x[:k]))
        if any(not np.array_equal(bits(got), bits(want[:k])) for got, want in zip(part, full)):
            differ.append(k)
    return differ


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_rows_independent_declaration(name):
    # a model that declares ``rows_independent`` gives the same bits for a row in
    # every block of 2 rows or more, which lets the engine stack runs' chain steps
    model = build_model(name)
    differ = row_counts_that_round_differently(model)
    if model.spec.rows_independent:
        # sdof takes numpy's matrix-vector path at 1 row, and may round differently there
        assert set(differ) <= {1}, differ
    # with this OpenBLAS, pile's field product rounds by the block's row count at
    # every k here (its GEMM remainder rows), so it must not declare independence
    assert model.spec.rows_independent == (name != "pile")
