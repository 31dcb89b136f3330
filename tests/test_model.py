import inspect
import math
import re
import sys
from functools import partial

import numpy as np
import pytest

from gradsens.benchmarks import (analytic_buckling, analytic_normal, crn_central_difference,
                                 run_benchmark)
from gradsens.cli import repeat_runs
from gradsens.model import (ConfigError, ModelDomainError, ModelSpec, ResponseModel,
                            _check_finite, central_steps, fd_gradient_batch)
from gradsens.numkit import RngStream
from gradsens.responses import (MODEL_BUILDERS, BucklingResponse, NormalResponse, PileResponse,
                                SdofResponse, build_model)
from gradsens.sensest import KernelSpec, scott_width
from gradsens.subsim import SsConfig, run_subset_simulation

from helpers import FaultyNormal, assert_same_rows, bits


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
    with pytest.raises(ConfigError, match=re.escape("needs a finite real in (0.0, 1.0)")):
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
    lambda: NormalResponse().spec.select(["bogus"]),
    lambda: build_model("nope"),
    lambda: NormalResponse().spec.value("bogus"),
    lambda: crn_central_difference(NormalResponse(), params=("bogus",), n_samples=11),
    # counts that are not integers: a TypeError deep in numpy, or truncated
    lambda: SsConfig(m=2.5),
    lambda: SsConfig(m=3.0),
    lambda: SsConfig(n_per_level=1000.0),
    lambda: repeat_runs(NormalResponse(), SsConfig(), KernelSpec(), (1, 2), grid_points=50.0),
    lambda: crn_central_difference(NormalResponse(), n_samples=1e4),
    lambda: RngStream(1, 1.5),
    lambda: BucklingResponse(stories=3.7),
    # an empty reference, numpy's ValueError, and a seed only the CRN path checked
    lambda: crn_central_difference(NormalResponse(), n_samples=11, grid_points=0),
    lambda: crn_central_difference(NormalResponse(), n_samples=11, grid_points=-1),
    lambda: run_benchmark(NormalResponse(), ("loc",), 100, 0.01, seed=-1),
], ids=["levels", "p0", "p0-to-the-m", "width-rule", "width-number", "width-zero", "scott-width",
        "fd-step", "seed", "one-sample-bin", "crn-samples", "grid-points", "one-run", "param",
        "model-name", "spec-value", "crn-param", "levels-float", "levels-integral-float",
        "n-per-level-float", "repeat-grid-float", "crn-samples-float", "stream-float",
        "stories-float", "crn-grid-zero", "crn-grid-negative", "analytic-seed"])
def test_argument_checks_raise_config_error(check):
    with pytest.raises(ConfigError):
        check()


# every place a count, seed or stream id enters: (call with the value, its name, least value)
COUNTS = {
    "stream-seed": (lambda v: RngStream(v), "seed", 0),
    "stream-id": (lambda v: RngStream(1, v), "stream", 0),
    "levels": (lambda v: SsConfig(m=v), "m", 1),
    "n-per-level": (lambda v: SsConfig(n_per_level=v), "n_per_level", 2),
    "config-seed": (lambda v: SsConfig(seed=v), "seed", 0),
    "repeat-seed": (lambda v: repeat_runs(NormalResponse(), SsConfig(), KernelSpec(), (v, 7)),
                    "seed", 0),
    "repeat-grid": (lambda v: repeat_runs(NormalResponse(), SsConfig(), KernelSpec(), (1, 2),
                                          grid_points=v), "grid_points", 2),
    "crn-samples": (lambda v: crn_central_difference(NormalResponse(), n_samples=v),
                    "n_samples", 11),
    "crn-grid": (lambda v: crn_central_difference(NormalResponse(), n_samples=11, grid_points=v),
                 "grid_points", 2),
    "crn-seed": (lambda v: crn_central_difference(NormalResponse(), n_samples=11, seed=v),
                 "seed", 0),
    "benchmark-samples": (lambda v: run_benchmark(NormalResponse(), ("loc",), v, 0.01, 0),
                          "n_samples", 11),
    "benchmark-grid": (lambda v: run_benchmark(NormalResponse(), ("loc",), 100, 0.01, 0,
                                               grid_points=v), "grid_points", 2),
    "benchmark-seed": (lambda v: run_benchmark(NormalResponse(), ("loc",), 100, 0.01, v),
                       "seed", 0),
    "stories": (lambda v: BucklingResponse(stories=v), "stories", 2),
    "analytic-stories": (lambda v: analytic_buckling([1.0], stories=v, lam0=1.0), "stories", 2),
    "input-dim": (lambda v: ModelSpec("x", v, (("a", 1.0),), ("a",)), "input_dim", 1),
}


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True, "below"])
def test_counts_are_integers_checked_where_they_enter(entry, bad):
    call, name, least = COUNTS[entry]
    value = least - 1 if bad == "below" else bad
    with pytest.raises(ConfigError, match=re.escape(f"{name}={value!r}: needs an integer in "
                                                    f"[{least}, 2**64)")):
        call(value)


def test_numpy_integers_give_the_python_ints_bits():
    i = np.int64
    assert np.array_equal(bits(RngStream(i(7), i(3)).standard_normal(8)),
                          bits(RngStream(7, 3).standard_normal(8)))
    config = SsConfig(m=i(2), n_per_level=i(100), seed=i(4))
    assert config == SsConfig(m=2, n_per_level=100, seed=4)
    assert all(type(v) is int for v in (config.m, config.n_per_level, config.seed))
    assert_same_rows(repeat_runs(NormalResponse(), config, KernelSpec(), i([3, 4]),
                                 grid_points=i(8)),
                     repeat_runs(NormalResponse(), config, KernelSpec(), (3, 4), grid_points=8))
    for run in (crn_central_difference, lambda model, **kw: run_benchmark(model, None, **kw)):
        got, want = (run(NormalResponse(), n_samples=n, grid_points=g, seed=s, rel_step=0.01)
                     for n, g, s in ((i(300), i(16), i(2)), (300, 16, 2)))
        for field in ("y", "f", "df"):
            assert np.array_equal(bits(getattr(got, field)), bits(getattr(want, field)))
    got = crn_central_difference(NormalResponse(), n_samples=i(300))
    assert type(got.n_samples) is int
    got, want = BucklingResponse(stories=i(3)), BucklingResponse(stories=3)
    assert type(got.stories) is int
    x = RngStream(6).standard_normal((50, 3))
    for a, b in zip(got.evaluate_batch(x), want.evaluate_batch(x)):
        assert np.array_equal(bits(a), bits(b))


ANY, ABOVE_0, UNIT = (-math.inf, math.inf), (0.0, math.inf), (0.0, 1.0)
# every parameter of a model or an analytic reference: (builder, fixed arguments, ranges)
REAL_PARAMS = {
    "normal": (NormalResponse, {}, {"loc": ANY, "scale": ABOVE_0, "mix": ANY}),
    "buckling": (BucklingResponse, {}, dict.fromkeys(
        ("stiffness", "height", "load", "load_cov", "k2"), ABOVE_0)),
    "sdof": (SdofResponse, {}, {"zeta": UNIT, **dict.fromkeys(
        ("omega", "psd", "dt", "duration"), ABOVE_0)}),
    "pile": (PileResponse, {}, dict.fromkeys(
        ("diameter", "depth", "mean_phi", "cov_phi", "corr_length", "layer", "column_depth"),
        ABOVE_0)),
    "analytic-normal": (partial(analytic_normal, [1.0]), {},
                        {"loc": ANY, "scale": ABOVE_0, "mix": ANY}),
    "analytic-buckling": (partial(analytic_buckling, [1.0]), {"lam0": 1.0}, dict.fromkeys(
        ("load", "k2", "stiffness", "height", "load_cov", "lam0"), ABOVE_0)),
}
# every place a real enters: (call with the value, its name, its open range)
REALS = {
    "p0": (lambda v: SsConfig(p0=v), "p0", UNIT),
    "central-steps": (lambda v: central_steps(1.0, v), "rel_step", UNIT),
    "fd-step": (lambda v: fd_gradient_batch(NormalResponse(), np.zeros((1, 2)), v),
                "rel_step", UNIT),
    "crn-step": (lambda v: crn_central_difference(NormalResponse(), n_samples=11, rel_step=v),
                 "rel_step", UNIT),
    "benchmark-step": (lambda v: run_benchmark(NormalResponse(), ("loc",), 100, v, 0),
                       "rel_step", UNIT),
    # DBL_MIN is the least fixed width
    "fixed-width": (lambda v: KernelSpec("fixed", v), "width",
                    (math.nextafter(sys.float_info.min, 0.0), math.inf)),
    **{f"{entry}-{name}": (lambda v, build=build, fixed=fixed, name=name:
                           build(**{**fixed, name: v}), name, bounds)
       for entry, (build, fixed, params) in REAL_PARAMS.items()
       for name, bounds in params.items()},
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in REALS for bad in ("0.1", None, True, math.nan, math.inf, "outside")
    if (entry, bad) != ("buckling-k2", None)])  # k2=None is buckling's k2 = stiffness
def test_reals_are_finite_and_checked_where_they_enter(entry, bad):
    call, name, (lo, hi) = REALS[entry]
    value = lo if bad == "outside" else bad  # the open range's lower end, or -inf
    with pytest.raises(ConfigError, match=re.escape(f"{name}={value!r}: needs a finite real in "
                                                    f"({lo}, {hi})")):
        call(value)


@pytest.mark.parametrize("kind", [np.float64, np.int64])
@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_numpy_reals_give_the_python_floats_bits(name, kind):
    defaults = {k: p.default for k, p in inspect.signature(MODEL_BUILDERS[name]).parameters.items()
                if isinstance(p.default, float) and (kind is np.float64 or p.default.is_integer())}
    got = build_model(name, **{k: kind(v) for k, v in defaults.items()})
    want = build_model(name)
    assert got.spec == want.spec
    assert all(type(v) is float for _, v in got.spec.params)
    x = RngStream(6).standard_normal((50, got.spec.input_dim))
    for a, b in zip(got.evaluate_batch(x), want.evaluate_batch(x)):
        assert np.array_equal(bits(a), bits(b))


def test_numpy_level_probability_width_and_step_are_python_floats():
    config = SsConfig(p0=np.float64(0.1))
    assert config == SsConfig(p0=0.1) and type(config.p0) is float
    for width in (np.float64(0.05), np.int64(2), sys.float_info.min):
        kernel = KernelSpec("fixed", width)
        assert kernel.width == width and type(kernel.width) is float
    steps = central_steps(2.0, np.float64(0.01))
    assert steps == central_steps(2.0, 0.01) and all(type(v) is float for v in steps)
    # float32 0.1 is 0.10000000149..., and p0 * N is then not an integer
    with pytest.raises(ConfigError, match=re.escape("p0 * n_per_level must be a positive integer")):
        SsConfig(p0=np.float32(0.1))


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


@pytest.mark.parametrize("names, chosen", [
    (None, ("loc", "scale", "mix")),
    ((), ("loc", "scale", "mix")),
    (["mix", "loc"], ("loc", "mix")),
    (("scale", "loc", "scale", "scale"), ("loc", "scale")),
], ids=["none", "empty", "declaration-order", "duplicates"])
def test_spec_select_takes_declaration_order_each_once(names, chosen):
    assert NormalResponse().spec.select(names) == chosen


# both references refuse an unknown name, and also a declared parameter that takes
# no sensitivity (buckling's stiffness, sdof's psd, pile's depth)
@pytest.mark.parametrize("name, param", [("normal", "bogus"), ("buckling", "stiffness"),
                                         ("sdof", "psd"), ("pile", "depth")])
@pytest.mark.parametrize("reference", [
    lambda model, params: crn_central_difference(model, params, n_samples=100),
    lambda model, params: run_benchmark(model, params, 100, 0.01, 0),
], ids=["crn", "run-benchmark"])
def test_references_choose_parameters_by_the_spec_rule(reference, name, param):
    message = f"unknown sensitivity parameters for {name}: ['{param}']"
    with pytest.raises(ConfigError, match=re.escape(message)):
        reference(build_model(name), (param,))


def test_crn_columns_follow_declaration_order():
    # each column is computed on its own: the bits of a one-parameter reference
    both = crn_central_difference(NormalResponse(), ("scale", "loc"), n_samples=500, seed=3)
    assert both.params == ("loc", "scale")
    for j, p in enumerate(both.params):
        one = crn_central_difference(NormalResponse(), (p,), n_samples=500, seed=3)
        assert np.array_equal(bits(both.df[:, j]), bits(one.df[:, 0]))
        assert np.array_equal(bits(both.y), bits(one.y))


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
