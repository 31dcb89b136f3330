"""The names the benchmark's tracer patches and copies must stay in the package.

``perfbench/tracing.py`` swaps module attributes of ``gradsens`` for timing
wrappers and wraps every model in ``CountingModel``.  These tests load that file
as it is checked in, so a deletion or rename in ``src`` that would break a
traced benchmark run fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gradsens import benchmarks, cli, numkit
from gradsens.responses import MODEL_BUILDERS, build_model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# every object whose attributes the tracer may patch
OWNERS = (cli, benchmarks, numkit, numkit.RngStream)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def test_install_then_uninstall_restores_every_attribute(tracing):
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = snapshot()
    finally:
        tracer.uninstall()
    after = snapshot()
    patched = {(owner.__name__, name) for owner, b, d in zip(OWNERS, before, during)
               for name in b if d[name] is not b[name]}
    assert {("gradsens.cli", "main"), ("gradsens.cli", "single_run"),
            ("gradsens.cli", "run_subset_simulation"), ("gradsens.cli", "normalize_curve"),
            ("gradsens.cli", "sensitivity_subsim"), ("gradsens.cli", "repeat_runs"),
            ("gradsens.cli", "_write_run_outputs"), ("gradsens.cli", "_write_repeat_outputs"),
            ("gradsens.cli", "build_model"),
            ("gradsens.benchmarks", "crn_central_difference"),
            ("RngStream", "standard_normal"), ("gradsens.numkit", "smallest_gen_eigenpair"),
            ("gradsens.numkit", "eigen_derivative")} <= patched
    for b, a in zip(before, after):
        assert a.keys() == b.keys()
        assert all(a[name] is b[name] for name in b)


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_counting_model_wraps_each_builtin_model(tracing, name):
    inner = build_model(name)
    tracer = tracing.Tracer()
    model = tracing.CountingModel(inner, tracer)
    for attr in ("spec", "eager_gradients", "analytic_gradients", "fd_rel_step",
                 "response_unit"):
        assert getattr(model, attr) == getattr(inner, attr)
    # the engine reads the stacking declaration from ``spec``, which the wrapper copies
    assert model.spec.rows_independent is inner.spec.rows_independent is (name != "pile")
    x = numkit.RngStream(3).standard_normal((4, inner.spec.input_dim))
    y, g = model.evaluate_batch(x)
    y_ref, g_ref = inner.evaluate_batch(x)
    assert np.array_equal(y, y_ref) and np.array_equal(g, g_ref)
    assert np.array_equal(model.response_batch(x), inner.response_batch(x))
    assert [s[0] for s in tracer.spans] == ["responses.evaluate_batch",
                                            "responses.response_batch"]


def test_traced_crn_hands_sdof_fortran_blocks(tracing):
    # the wrapper keeps the model's input order, so a traced reference job takes
    # the untraced path
    inner = build_model("sdof")
    respond = inner.response_batch
    layouts = []

    def recording(x, **overrides):
        layouts.append((x.flags.f_contiguous, x.flags.c_contiguous))
        return respond(x, **overrides)

    inner.response_batch = recording
    tracer = tracing.Tracer()
    model = tracing.CountingModel(inner, tracer)
    assert model.spec.input_order == "F"
    tracer.install()
    try:
        benchmarks.crn_central_difference(model, n_samples=300, grid_points=8)
    finally:
        tracer.uninstall()
    assert layouts == [(True, False)] * 5
    names = [s[0] for s in tracer.spans]
    # 300 rows are drawn in a 256-row chunk and a 44-row one
    assert names.count("numkit.rng") == 2 and names.count("responses.response_batch") == 5


def csv_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


def test_traced_run_writes_the_untraced_bytes(tracing, tmp_path):
    argv = ["run", "--model", "normal", "--n", "200", "--m", "3", "--p0", "0.1",
            "--seed", "5", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    plain = csv_bytes(tmp_path / "plain")
    assert plain and csv_bytes(tmp_path / "traced") == plain
    # the reduction reads the run's config, its bins (``Bin.count``) and kernel curve
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["subsim.evals_vs_formula"] == 1.0
    assert metrics["sensest.pairs"] > 0
    # the workloads check their outputs with ``cli.read_csv``
    assert cli.read_csv(tmp_path / "traced" / "ccdf.csv")["ccdf[-]"].shape == (600,)


@pytest.mark.parametrize("model", ["sdof", "pile"])
def test_traced_repeat_writes_the_untraced_bytes(tracing, tmp_path, model):
    # ``repeat`` reaches the lockstep engine through ``cli.run_lockstep``, which the
    # tracer leaves alone, so its ``subsim.run`` wrapper never sees a list of runs
    argv = ["repeat", "--model", model, "--runs", "2", "--n", "200", "--m", "3",
            "--p0", "0.1", "--seed", "5", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    plain = csv_bytes(tmp_path / "plain")
    assert plain and csv_bytes(tmp_path / "traced") == plain
    names = {s[0] for s in tracer.spans}
    assert "subsim.run" not in names and "sensest.kernel" in names
