"""Acceptance suite: one test per exit criterion.

Each criterion prints a `[criterion N] PASS/FAIL` line with the measured
numbers (run with `pytest -s` to see them live).  Heavy shared artifacts
(200-run aggregates, million-sample benchmarks) are module-scoped fixtures;
all seeds are fixed, so the whole suite is deterministic.
"""

import json

import numpy as np
import pytest
import scipy.stats

from gradsens.benchmarks import analytic_buckling, crn_central_difference
from gradsens.cli import repeat_runs
from gradsens.model import fd_gradient_batch
from gradsens.numkit import RngStream, smallest_gen_eigenpair
from gradsens.responses import (BucklingResponse, NormalResponse, PileResponse,
                                SdofResponse, _shear_matrix)
from gradsens.sensest import KernelSpec, sensitivity_direct_mc
from gradsens.subsim import SsConfig

DEFAULT = dict(m=3, p0=0.1, n_per_level=1000)
RUNS = 200


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def within(value, center, rel):
    return abs(value - center) <= rel * abs(center)


@pytest.fixture(scope="module")
def normal_agg():
    model = NormalResponse()
    cfg = SsConfig(**DEFAULT, seed=1000)
    return model, repeat_runs(model, cfg, KernelSpec(), range(1000, 1000 + RUNS))


@pytest.fixture(scope="module")
def buckling_agg():
    model = BucklingResponse()
    cfg = SsConfig(**DEFAULT, seed=2000)
    return model, repeat_runs(model, cfg, KernelSpec(), range(2000, 2000 + RUNS))


@pytest.fixture(scope="module")
def sdof_agg():
    model = SdofResponse()
    cfg = SsConfig(**DEFAULT, seed=3000)
    return model, repeat_runs(model, cfg, KernelSpec(), range(3000, 3000 + RUNS))


@pytest.fixture(scope="module")
def sdof_bench(sdof_agg):
    model, _ = sdof_agg
    return crn_central_difference(model, n_samples=10**6, rel_step=0.01, seed=77)


@pytest.fixture(scope="module")
def pile_agg():
    model = PileResponse()
    cfg = SsConfig(**DEFAULT, seed=4000)
    return model, repeat_runs(model, cfg, KernelSpec(), range(4000, 4000 + RUNS))


def test_criterion_1_normal_fractional_sensitivities(normal_agg):
    model, agg = normal_agg
    checks, parts = [], []
    for f_target, probes in [
        (1e-3, (("loc", 3.0, 0.20), ("scale", 10.0, 0.20))),
        (1e-2, (("loc", 2.665, 0.10), ("scale", 6.200, 0.10))),
    ]:
        ystar = agg.y_at_mean_ccdf(f_target)
        for param, center, rel in probes:
            mean, _ = agg.mean_measure(param, ystar)
            ok = within(mean[0], center, rel)
            checks.append(ok)
            parts.append(f"{param}@F={f_target:g}: {mean[0]:.3f} vs {center}+-{rel:.0%}")
    # the mix parameter has exactly zero sensitivity: its fractional measure
    # must stay below 0.02 in magnitude wherever mean F-hat >= 1e-2
    grid_f = agg.mean_ccdf(agg.grid)
    band = np.isfinite(grid_f) & (grid_f >= 1e-2)
    mix_mean, _ = agg.mean_measure("mix", agg.grid)
    worst_mix = np.nanmax(np.abs(mix_mean[band]))
    checks.append(worst_mix < 0.02)
    parts.append(f"max|mix|={worst_mix:.4f}<0.02")
    assert report(1, all(checks), "; ".join(parts))


def test_repeat_mix_band_dominates_mean(normal_agg):
    # the mix parameter is pure estimation noise: its +-1 sigma band must
    # swallow the mean everywhere the CCDF is resolved down to 1e-1
    _, agg = normal_agg
    grid_f = agg.mean_ccdf(agg.grid)
    band = np.isfinite(grid_f) & (grid_f <= 1e-1) & (grid_f >= 1e-3)
    mean, std = agg.mean_measure("mix", agg.grid)
    assert np.all(std[band] > np.abs(mean[band]))


def test_criterion_2_normal_ccdf_fidelity(normal_agg):
    _, agg = normal_agg
    y = 1.0 + 3.0902
    mean_f = agg.mean_ccdf(np.array([y]))[0]
    ok = within(mean_f, 1e-3, 0.15)
    assert report(2, ok, f"mean F at y={y:.4f}: {mean_f:.3e} vs 1e-3 +-15%")


def test_criterion_3_kernel_bias_order():
    model = NormalResponse()
    exact = scipy.stats.norm.pdf(0.0)
    grid = np.array([1.0])
    means = {}
    for w in (0.2, 0.1):
        kern = KernelSpec(width_rule="fixed", width=w)
        est = []
        for r in range(100):
            x = RngStream(5000 + r, 1).standard_normal((10**6, 2))
            y, g = model.evaluate_batch(x)
            est.append(sensitivity_direct_mc((y, g[:, :1]), kern, grid).raw[0, 0])
        means[w] = float(np.mean(est))
    ratio = abs(means[0.2] - exact) / abs(means[0.1] - exact)
    ok = 2.5 <= ratio <= 6.0
    assert report(3, ok,
                  f"bias(w=0.2)={means[0.2] - exact:+.2e}, "
                  f"bias(w=0.1)={means[0.1] - exact:+.2e}, ratio={ratio:.2f} in [2.5, 6]")


def test_criterion_4_buckling_equivalences(buckling_agg):
    model, agg = buckling_agg
    checks, parts = [], []

    # eigen path vs closed-form story maximum
    x = RngStream(6000).standard_normal((10**4, 5))
    y_eig, g = model.evaluate_batch(x)
    y_max = model.response_batch(x)
    worst = np.max(np.abs(y_eig - y_max) / np.abs(y_max))
    checks.append(worst <= 1e-9)
    parts.append(f"eigen-vs-closed rel {worst:.1e}<=1e-9 on 1e4")

    # augmented-system derivative vs finite differences of the eigen path
    xs = x[:100]
    h = 1e-6
    keep = (model.critical_story(xs, k2=model.k2 * (1 + h))
            == model.critical_story(xs, k2=model.k2 * (1 - h)))
    fd = np.empty((keep.sum(), 2))
    for row, xi in enumerate(xs[keep]):
        w = model._loads(xi[None, :], model.load)[0]
        lam = {}
        for sgn in (1, -1):
            kg = _shear_matrix(w * (1 + sgn * h) / model.height)
            lam[("load", sgn)] = smallest_gen_eigenpair(model._K, kg)[0]
            k = model.k.copy()
            k[1] = model.k2 * (1 + sgn * h)
            kg0 = _shear_matrix(w / model.height)
            lam[("k2", sgn)] = smallest_gen_eigenpair(_shear_matrix(k), kg0)[0]
        for col, (name, v) in enumerate((("load", model.load), ("k2", model.k2))):
            y_p = model.lam0 / lam[(name, 1)]
            y_m = model.lam0 / lam[(name, -1)]
            fd[row, col] = (y_p - y_m) / (2.0 * v * h)
    g_kept = g[:100][keep]
    fd_ok = np.allclose(fd, g_kept, rtol=1e-5, atol=1e-9)
    checks.append(fd_ok and keep.mean() > 0.9)
    live = np.abs(g_kept) > 1e-9  # exactly-zero k2 gradients are compared absolutely
    worst_fd = np.max(np.abs(fd[live] - g_kept[live]) / np.abs(g_kept[live]))
    parts.append(f"deriv-vs-FD rel {worst_fd:.1e}<=1e-5 on {keep.sum()} draws")

    # zero-gradient fraction of the second-story stiffness
    xz = RngStream(6001).standard_normal((10**5, 5))
    _, gz = model.evaluate_batch(xz)
    frac0 = float(np.mean(np.abs(gz[:, 1]) * model.k2 < 1e-6))
    checks.append(0.78 <= frac0 <= 0.82)
    parts.append(f"P(dY/dk2=0)={frac0:.4f} in [0.78, 0.82]")

    # 200-run mean fractional sensitivities vs the analytic references
    sens_ok = True
    for f_target in (1e-3, 1e-2, 1e-1):
        ystar = agg.y_at_mean_ccdf(f_target)
        ref = analytic_buckling(np.array([ystar]), load=model.load, k2=model.k2,
                                stiffness=model.k[0], height=model.height,
                                stories=model.stories, load_cov=model.load_cov,
                                lam0=model.lam0)
        frac_ref = ref.fractional([model.load, model.k2])[0]
        for j, param in enumerate(("load", "k2")):
            mean, _ = agg.mean_measure(param, ystar)
            if not within(mean[0], frac_ref[j], 0.20):
                sens_ok = False
            parts.append(f"{param}@F={f_target:g}: {mean[0]:+.2f} vs {frac_ref[j]:+.2f}")
    checks.append(sens_ok)
    assert report(4, all(checks), "; ".join(parts))


def test_criterion_5_sdof_gradient_consistency():
    model = SdofResponse()
    x = RngStream(7000).standard_normal((100, 400))
    h = 1e-4
    keep = np.ones(100, dtype=bool)
    for name, v in (("zeta", model.zeta), ("omega", model.omega)):
        up = np.argmax(np.abs(model.simulate(x, **{name: v * (1 + h)})), axis=1)
        dn = np.argmax(np.abs(model.simulate(x, **{name: v * (1 - h)})), axis=1)
        keep &= up == dn
    skipped = 1.0 - keep.mean()
    _, g = model.evaluate_batch(x[keep])
    g_fd = fd_gradient_batch(model, x[keep], h)
    rel = np.linalg.norm(g_fd - g, axis=1) / np.linalg.norm(g, axis=1)
    grad_ok = bool(np.all(rel <= 1e-3)) and skipped < 0.10

    x1 = RngStream(7001).standard_normal((5, 400))
    x2 = RngStream(7002).standard_normal((5, 400))
    u_sum = model.simulate(x1 + x2)
    resid = np.max(np.abs(u_sum - model.simulate(x1) - model.simulate(x2)))
    lin_ok = resid <= 1e-12 * np.max(np.abs(u_sum))

    ok = grad_ok and lin_ok
    assert report(5, ok,
                  f"grad rel err max {rel.max():.2e}<=1e-3 on {keep.sum()} draws "
                  f"(skipped {skipped:.0%}<10%); superposition resid "
                  f"{resid / np.max(np.abs(u_sum)):.1e}<=1e-12")


def test_criterion_6_sdof_sensitivity_sanity(sdof_agg, sdof_bench):
    model, agg = sdof_agg
    bench = sdof_bench
    checks, parts = [], []

    grid_f = agg.mean_ccdf(agg.grid)
    band = np.isfinite(grid_f) & (grid_f <= 1e-1) & (grid_f >= 1e-3)
    zeta_mean, zeta_std = agg.mean_measure("zeta", agg.grid)
    neg_ok = bool(np.all(zeta_mean[band] < 0.0))
    checks.append(neg_ok)
    parts.append(f"zeta measure negative on F<=0.1: {neg_ok}")

    frac_ref = bench.fractional([model.zeta, model.omega])
    bench_ok = True
    for f_target in (1e-1, 10 ** -1.5, 1e-2):
        ystar = agg.y_at_mean_ccdf(f_target)
        mean, _ = agg.mean_measure("zeta", ystar)
        ref = float(np.interp(ystar, bench.y, frac_ref[:, 0]))
        if not within(mean[0], ref, 0.30):
            bench_ok = False
        parts.append(f"zeta@F={f_target:.3g}: {mean[0]:+.2f} vs CRN {ref:+.2f}")
    checks.append(bench_ok)

    omega_mean, omega_std = agg.mean_measure("omega", agg.grid)
    ratio = float(np.nanmedian(omega_std[band] / zeta_std[band]))
    checks.append(ratio >= 3.0)
    parts.append(f"sigma-band ratio omega/zeta {ratio:.1f}>=3")
    assert report(6, all(checks), "; ".join(parts))


def test_criterion_7_pile_sensitivities(pile_agg):
    model, agg = pile_agg
    checks, parts = [], []
    mean_f = agg.mean_ccdf(np.array([1.0]))[0]
    for param, center in (("B", 25.0), ("mu", 50.0)):
        mean, _ = agg.mean_measure(param, 1.0)
        ok = within(abs(mean[0]), center, 0.40)
        checks.append(ok)
        parts.append(f"|{param}|@y=1: {abs(mean[0]):.1f} vs {center}+-40%")
    parts.append(f"(mean F at y=1: {mean_f:.2e})")

    x = RngStream(8000).standard_normal((10**5, 120))
    lg = np.log(model.field(x))
    corr = np.corrcoef(lg, rowvar=False)
    target = np.exp(-2.0 / 4.0 * np.abs(model.z[:, None] - model.z[None, :]))
    worst = float(np.max(np.abs(corr - target)))
    checks.append(worst < 0.02)
    parts.append(f"field corr err {worst:.3f}<0.02")
    assert report(7, all(checks), "; ".join(parts))


def test_criterion_8_determinism(tmp_path, run_cli):
    checks, parts = [], []

    for sub in ("a", "b"):
        r = run_cli(["run", "--model", "normal", "--seed", "31", "--out", sub], tmp_path)
        assert r.returncode == 0, r.stderr
    same_csv = all((tmp_path / "a" / p.name).read_bytes() == p.read_bytes()
                   for p in (tmp_path / "b").glob("*.csv"))
    man = []
    for sub in ("a", "b"):
        d = json.loads((tmp_path / sub / "manifest.json").read_text())
        d.pop("wall_time_s")  # timing is the one legitimately varying field
        man.append(d)
    checks.append(same_csv and man[0] == man[1])
    parts.append(f"rerun byte-identical: {checks[-1]}")

    outs = {}
    for name, threads in (("t1", "1"), ("t4", "4")):
        r = run_cli(["repeat", "--model", "normal", "--runs", "4", "--seed", "9",
                     "--out", name], tmp_path, env={"GRADSENS_THREADS": threads})
        assert r.returncode == 0, r.stderr
        outs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).glob("*.csv")}
    checks.append(outs["t1"] == outs["t4"])
    parts.append(f"thread-count invariant: {checks[-1]}")
    assert report(8, all(checks), "; ".join(parts))
