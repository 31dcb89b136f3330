"""Command-line orchestration: single runs, repeated-run statistics, and
benchmark generation, all emitting CSV plot data plus a JSON manifest.

Exit codes: 0 success, 2 configuration error, 3 model error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import run_benchmark
from .model import ModelDomainError, ResponseModel
from .numkit import NumericalError
from .responses import MODEL_BUILDERS, build_model
from .sensest import KernelSpec, SensitivityCurve, normalize_curve, sensitivity_subsim
from .subsim import SsConfig, run_subset_simulation


def _unit_inv(unit: str) -> str:
    return "-" if unit == "-" else f"1/{unit}"


def _write_atomic(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header, columns):
    """Header line, then one row per sample with every value as '%.17g'."""
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    body = row * data.shape[0] % tuple(data.ravel().tolist())
    _write_atomic(path, ",".join(header) + "\n" + body)


def read_csv(path) -> dict:
    """Round-trip reader for the CSVs written here: column name -> array."""
    lines = Path(path).read_text().strip().split("\n")
    names = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(names)}


def _write_manifest(outdir: Path, command, model, params, **fields):
    """manifest.json: the command and model identity, then ``fields`` in order."""
    manifest = {
        "command": command,
        "version": __version__,
        "model": model.spec.name,
        "response_unit": model.response_unit,
        "params": {n: v for n, v in model.spec.params},
        "sensitivity_params": list(params),
        **fields,
    }
    _write_atomic(outdir / "manifest.json", json.dumps(manifest, indent=1) + "\n")


# ---------------------------------------------------------------------------
# single run


@dataclass
class RunResult:
    bins: object
    ccdf: object
    curve: object
    wall_time_s: float


def single_run(model: ResponseModel, config: SsConfig, kernel: KernelSpec) -> RunResult:
    """One SS run with the sensitivity curve evaluated at all sample values."""
    t0 = time.perf_counter()
    bins, ccdf = run_subset_simulation(model, config)
    curve = sensitivity_subsim(bins, kernel, y_grid=ccdf.y)
    curve = normalize_curve(curve, ccdf, model.spec)
    return RunResult(bins=bins, ccdf=ccdf, curve=curve, wall_time_s=time.perf_counter() - t0)


def _write_run_outputs(outdir: Path, model, config, kernel, result, params):
    _write_manifest(
        outdir, "run", model, params,
        config={"m": config.m, "p0": config.p0, "n_per_level": config.n_per_level,
                "seed": config.seed, "correlation_rule": "quantile-ratio"},
        kernel={"kind": "gaussian", "width_rule": kernel.width_rule,
                "width": kernel.width, "bin_widths": list(result.curve.widths)},
        model_evaluations=config.model_evaluations,
        wall_time_s=result.wall_time_s,
        outputs=["ccdf.csv"] + [f"sensitivity_{p}.csv" for p in params]
        + [f"scatter_{p}.csv" for p in params],
    )

    yu = model.response_unit
    curve, ccdf, bins = result.curve, result.ccdf, result.bins
    _write_csv(outdir / "ccdf.csv", [f"y[{yu}]", "ccdf[-]"], [ccdf.y, ccdf.f])
    ys = np.concatenate([b.y for b in bins.bins])
    which = np.concatenate([np.full(b.count, i) for i, b in enumerate(bins.bins)])
    for p in params:
        pu = model.param_unit(p)
        _write_csv(
            outdir / f"sensitivity_{p}.csv",
            [f"y[{yu}]", "ccdf[-]", f"dF_d{p}[{_unit_inv(pu)}]", f"{p}_dF_d{p}[-]",
             f"frac_dF_d{p}[-]"],
            [curve.y, curve.ccdf, curve.column(p), curve.column(p, "scaled"),
             curve.column(p, "fractional")],
        )
        gs = np.concatenate([b.g[:, curve.params.index(p)] for b in bins.bins])
        _write_csv(outdir / f"scatter_{p}.csv",
                   [f"y[{yu}]", f"{p}_times_gradient[{yu}]", "bin[-]"],
                   [ys, model.spec.value(p) * gs, which])


# ---------------------------------------------------------------------------
# repeated runs


def _collapse(result: RunResult) -> SensitivityCurve:
    """The run's curve cut down to its unique thresholds, ready for interpolation."""
    c = result.curve
    y, idx = np.unique(c.y, return_index=True)
    return replace(c, y=y, raw=c.raw[idx], scaled=c.scaled[idx],
                   fractional=c.fractional[idx], ccdf=c.ccdf[idx])


def _nanstd_runs(vals):
    """Sample std (ddof=1) over runs (axis 0), ignoring NaN.

    A grid point with fewer than 2 finite values has no sample std: it is NaN,
    set here instead of leaving numpy to warn about the degrees of freedom.
    """
    ok = np.count_nonzero(np.isfinite(vals), axis=0) >= 2
    std = np.full(vals.shape[1:], np.nan)
    std[ok] = np.nanstd(vals[:, ok], axis=0, ddof=1)
    return std


def _interp_guarded(x, xp, fp):
    out = np.interp(x, xp, fp)
    return np.where((x >= xp[0]) & (x <= xp[-1]), out, np.nan)


@dataclass
class RepeatResult:
    """Aggregated curves over independent seeded runs.

    CCDF interpolation is linear in (y, log F); sensitivity measures are
    linear in y.  Grid points outside a run's sample range are NaN for that
    run and excluded from the statistics.
    """

    grid: np.ndarray
    runs: list  # per seed, the run's SensitivityCurve at its unique thresholds
    seeds: tuple
    wall_time_s: float = 0.0

    def ccdf_runs(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.stack([np.exp(_interp_guarded(y, r.y, np.log(r.ccdf))) for r in self.runs])

    def measure_runs(self, param: str, y, which: str = "fractional") -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.stack([_interp_guarded(y, r.y, r.column(param, which)) for r in self.runs])

    def mean_ccdf(self, y):
        return np.nanmean(self.ccdf_runs(y), axis=0)

    def mean_measure(self, param, y, which="fractional"):
        vals = self.measure_runs(param, y, which)
        return np.nanmean(vals, axis=0), _nanstd_runs(vals)

    def y_at_mean_ccdf(self, f_target: float) -> float:
        """Threshold where the mean CCDF curve crosses f_target (log interp)."""
        f = self.mean_ccdf(self.grid)
        ok = np.isfinite(f) & (f > 0.0)
        logf = np.log(f[ok])[::-1]
        ygrid = self.grid[ok][::-1]
        if not (logf[0] <= math.log(f_target) <= logf[-1]):
            raise ValueError(f"target CCDF {f_target} outside the aggregated range")
        return float(np.interp(math.log(f_target), logf, ygrid))


def repeat_runs(model: ResponseModel, config: SsConfig, kernel: KernelSpec, seeds,
                grid_points: int = 200) -> RepeatResult:
    """One run per seed (at least 2, distinct), aggregated onto a fixed threshold grid.

    The model is shared read-only across ``thread_count()`` workers; results
    are reduced in seed order, so the output is invariant to the worker count.
    The grid is placed at quantiles of the first run's pooled sample values.
    """
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 2:
        raise ValueError("need at least 2 runs")
    if len(set(seeds)) != len(seeds):
        raise ValueError("run seeds must be distinct")
    t0 = time.perf_counter()

    def one(seed):
        return single_run(model, replace(config, seed=seed), kernel)

    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        results = list(pool.map(one, seeds))
    grid = np.unique(np.quantile(results[0].ccdf.y, np.linspace(0.0, 1.0, grid_points)))
    return RepeatResult(grid=grid, runs=[_collapse(r) for r in results], seeds=seeds,
                        wall_time_s=time.perf_counter() - t0)


def thread_count() -> int:
    env = os.environ.get("GRADSENS_THREADS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def _write_repeat_outputs(outdir: Path, model, config, kernel, agg: RepeatResult,
                          params, grid_points):
    runs = len(agg.seeds)
    _write_manifest(
        outdir, "repeat", model, params,
        config={"m": config.m, "p0": config.p0, "n_per_level": config.n_per_level,
                "correlation_rule": "quantile-ratio"},
        kernel={"kind": "gaussian", "width_rule": kernel.width_rule, "width": kernel.width},
        runs=runs,
        base_seed=config.seed,
        seeds=list(agg.seeds),
        grid_points=grid_points,
        model_evaluations=runs * config.model_evaluations,
        wall_time_s=agg.wall_time_s,
        outputs=["repeat_ccdf.csv"] + [f"repeat_sensitivity_{p}.csv" for p in params],
    )

    yu = model.response_unit
    g = agg.grid
    fvals = agg.ccdf_runs(g)
    fm = np.nanmean(fvals, axis=0)
    fs = _nanstd_runs(fvals)
    _write_csv(outdir / "repeat_ccdf.csv",
               [f"y[{yu}]", "ccdf_mean[-]", "ccdf_std[-]", "ccdf_lo[-]", "ccdf_hi[-]"],
               [g, fm, fs, fm - fs, fm + fs])
    for p in params:
        pu = model.param_unit(p)
        frac_m, frac_s = agg.mean_measure(p, g, "fractional")
        sc_m, sc_s = agg.mean_measure(p, g, "scaled")
        raw_m, raw_s = agg.mean_measure(p, g, "raw")
        _write_csv(
            outdir / f"repeat_sensitivity_{p}.csv",
            [f"y[{yu}]", "ccdf_mean[-]",
             f"frac_d{p}_mean[-]", f"frac_d{p}_std[-]", f"frac_d{p}_lo[-]", f"frac_d{p}_hi[-]",
             f"scaled_d{p}_mean[-]", f"scaled_d{p}_std[-]",
             f"raw_d{p}_mean[{_unit_inv(pu)}]", f"raw_d{p}_std[{_unit_inv(pu)}]"],
            [g, fm, frac_m, frac_s, frac_m - frac_s, frac_m + frac_s,
             sc_m, sc_s, raw_m, raw_s],
        )


# ---------------------------------------------------------------------------
# benchmarks


def _write_benchmark_outputs(outdir: Path, model, res, params, seed, wall):
    _write_manifest(
        outdir, "benchmark", model, params,
        provenance=res.provenance,
        n_samples=res.n_samples,
        fd_step=res.fd_step,
        seed=seed if res.provenance == "crn_fd" else None,
        wall_time_s=wall,
        outputs=[f"benchmark_{p}.csv" for p in params],
    )
    yu = model.response_unit
    values = {n: v for n, v in model.spec.params}
    frac = res.fractional([values[p] for p in res.params])
    for p in params:
        pu = model.param_unit(p)
        j = res.params.index(p)
        _write_csv(
            outdir / f"benchmark_{p}.csv",
            [f"y[{yu}]", "ccdf_ref[-]", f"dF_d{p}_ref[{_unit_inv(pu)}]", f"frac_d{p}_ref[-]"],
            [res.y, res.f, res.df[:, j], frac[:, j]],
        )


# ---------------------------------------------------------------------------
# argument handling


def _build_parser():
    p = argparse.ArgumentParser(prog="gradsens",
                                description="Failure probabilities and their parameter "
                                            "sensitivities from one Subset Simulation run")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_ss=True):
        sp.add_argument("--model", required=True, choices=sorted(MODEL_BUILDERS))
        sp.add_argument("--param", action="append", default=None,
                        help="sensitivity parameter (repeatable; default: all)")
        sp.add_argument("--out", default="gradsens_out", help="output directory")
        if with_ss:
            sp.add_argument("--m", type=int, default=3, help="number of levels")
            sp.add_argument("--p0", type=float, default=0.1, help="level probability")
            sp.add_argument("--n", type=int, default=1000, help="samples per level")
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--width", default="scott",
                            help="'scott', 'scott-global' or 'fixed:<w>'")

    sp = sub.add_parser("run", help="single SS run with sensitivity curves")
    common(sp)

    sp = sub.add_parser("repeat", help="repeated seeded runs with mean/std curves")
    common(sp)
    sp.add_argument("--runs", type=int, required=True)
    sp.add_argument("--seeds", default=None,
                    help="comma-separated explicit seeds (must be distinct)")
    sp.add_argument("--grid-points", type=int, default=200)

    sp = sub.add_parser("benchmark", help="analytic or CRN-FD reference curves")
    common(sp, with_ss=False)
    sp.add_argument("--samples", type=int, default=10**6)
    sp.add_argument("--step", type=float, default=0.01, help="relative FD step")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid-points", type=int, default=256)
    return p


def _select_params(model, requested):
    if not requested:
        return tuple(model.spec.sensitivity_params)
    bad = set(requested) - set(model.spec.sensitivity_params)
    if bad:
        raise ValueError(f"unknown sensitivity parameters for {model.spec.name}: {sorted(bad)}")
    return tuple(p for p in model.spec.sensitivity_params if p in set(requested))


def cmd_run(args) -> int:
    model = build_model(args.model)
    params = _select_params(model, args.param)
    config = SsConfig(m=args.m, p0=args.p0, n_per_level=args.n, seed=args.seed)
    kernel = KernelSpec.parse(args.width)
    result = single_run(model, config, kernel)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_run_outputs(outdir, model, config, kernel, result, params)
    return 0


def cmd_repeat(args) -> int:
    model = build_model(args.model)
    params = _select_params(model, args.param)
    config = SsConfig(m=args.m, p0=args.p0, n_per_level=args.n, seed=args.seed)
    kernel = KernelSpec.parse(args.width)
    seeds = args.seeds.split(",") if args.seeds else range(args.seed, args.seed + args.runs)
    if len(seeds) != args.runs:
        raise ValueError("number of seeds must match the run count")
    agg = repeat_runs(model, config, kernel, seeds, grid_points=args.grid_points)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_repeat_outputs(outdir, model, config, kernel, agg, params, args.grid_points)
    return 0


def cmd_benchmark(args) -> int:
    model = build_model(args.model)
    params = _select_params(model, args.param)
    t0 = time.perf_counter()
    res = run_benchmark(model, params, args.samples, args.step, args.seed,
                        grid_points=args.grid_points)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_benchmark_outputs(outdir, model, res, params, args.seed,
                             time.perf_counter() - t0)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": cmd_run, "repeat": cmd_repeat, "benchmark": cmd_benchmark}[args.command]
    try:
        return handler(args)
    except (ModelDomainError, NumericalError) as exc:
        print(f"gradsens: model error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"gradsens: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"gradsens: internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
