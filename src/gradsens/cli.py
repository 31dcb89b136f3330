"""Command-line orchestration: single runs, repeated-run statistics, and
benchmark generation, all emitting CSV plot data plus a JSON manifest.

Exit codes: 0 success, 2 configuration error (``ConfigError``), 3 model error
(model, numerical or degenerate-response failure), 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import run_benchmark
from .model import ConfigError, ModelDomainError, ResponseModel, _as_int
from .numkit import NumericalError
from .responses import MODEL_BUILDERS, build_model
from .sensest import (DegenerateResponseError, KernelSpec, SensitivityCurve, normalize_curve,
                      sensitivity_subsim)
from .subsim import BinPartition, CcdfCurve, SsConfig, run_lockstep, run_subset_simulation

# Candidate rows per chain step of a lockstep group in ``repeat_runs``: about
# where sdof's per-row cost bottoms out, 10 runs at the default 100 chains.
_GROUP_ROWS = 1000


def _unit_inv(unit: str) -> str:
    return "-" if unit == "-" else f"1/{unit}"


def _write_atomic(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header, columns):
    """Header line, then one row per sample with every value as '%.17g'; a column
    given as a list holds its values already formatted."""
    row = ",".join("%s" if isinstance(c, list) else "%.17g" for c in columns) + "\n"
    cells = zip(*(c if isinstance(c, list) else c.tolist() for c in columns))
    body = row * len(columns[0]) % tuple(chain.from_iterable(cells))
    _write_atomic(path, ",".join(header) + "\n" + body)


def read_csv(path) -> dict:
    """Round-trip reader for the CSVs written here: column name -> array."""
    lines = Path(path).read_text().strip().split("\n")
    names = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(names)}


def _write_outputs(outdir: Path, command, model, params, files, **fields):
    """Create ``outdir`` and write manifest.json (the command and model identity,
    ``fields`` in order, then the file list), then each CSV of ``files``, a
    name -> (header, columns) dict in output order."""
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "version": __version__,
        "model": model.spec.name,
        "response_unit": model.response_unit,
        "params": {n: v for n, v in model.spec.params},
        "sensitivity_params": list(params),
        **fields,
        "outputs": list(files),
    }
    _write_atomic(outdir / "manifest.json", json.dumps(manifest, indent=1) + "\n")
    uses = Counter(id(c) for _, columns in files.values() for c in columns)
    text = {}  # a column object shared by several files, formatted once
    for name, (header, columns) in files.items():
        for c in columns:
            if uses[id(c)] > 1 and id(c) not in text:
                text[id(c)] = list(map("%.17g".__mod__, c.tolist()))
        _write_csv(outdir / name, header, [text.get(id(c), c) for c in columns])


# ---------------------------------------------------------------------------
# single run


@dataclass
class Run:
    """A ``single_run``: its bins, and its normalized sensitivity curve at every sample value."""

    bins: BinPartition
    curve: SensitivityCurve


def single_run(model: ResponseModel, config: SsConfig, kernel: KernelSpec) -> Run:
    """One SS run with the sensitivity curve evaluated at all sample values."""
    bins, ccdf = run_subset_simulation(model, config)
    return Run(bins, _estimate(model, kernel, bins, ccdf))


def _estimate(model, kernel, bins, ccdf, rows=None) -> SensitivityCurve:
    """A run's normalized curve on ``ccdf.y``, or at its ``rows`` only (NaN elsewhere)."""
    curve = sensitivity_subsim(bins, kernel, y_grid=ccdf.y, rows=rows)
    return normalize_curve(curve, ccdf, model.spec)


def _write_run_outputs(outdir: Path, model, config, kernel, run: Run, params, wall):
    yu = model.response_unit
    curve, bins = run.curve, run.bins
    files = {"ccdf.csv": ([f"y[{yu}]", "ccdf[-]"], [curve.y, curve.ccdf])}
    for p in params:
        files[f"sensitivity_{p}.csv"] = (
            [f"y[{yu}]", "ccdf[-]", f"dF_d{p}[{_unit_inv(model.param_unit(p))}]",
             f"{p}_dF_d{p}[-]", f"frac_dF_d{p}[-]"],
            [curve.y, curve.ccdf, curve.column(p), curve.column(p, "scaled"),
             curve.column(p, "fractional")])
    ys = np.concatenate([b.y for b in bins.bins])
    which = np.concatenate([np.full(b.count, i) for i, b in enumerate(bins.bins)])
    for p in params:
        gs = np.concatenate([b.g[:, curve.params.index(p)] for b in bins.bins])
        files[f"scatter_{p}.csv"] = ([f"y[{yu}]", f"{p}_times_gradient[{yu}]", "bin[-]"],
                                     [ys, model.spec.value(p) * gs, which])
    _write_outputs(
        outdir, "run", model, params, files,
        config={"m": config.m, "p0": config.p0, "n_per_level": config.n_per_level,
                "seed": config.seed, "correlation_rule": "quantile-ratio"},
        kernel={"kind": "gaussian", "width_rule": kernel.width_rule,
                "width": kernel.width, "bin_widths": list(curve.widths)},
        model_evaluations=config.model_evaluations,
        wall_time_s=wall,
    )


# ---------------------------------------------------------------------------
# repeated runs


def _mean_std(vals):
    """Mean and sample std (ddof=1) over runs (axis 0), ignoring NaN.

    A grid point with no value has no mean, and one with fewer than 2 finite
    values no sample std: they are NaN, set here instead of leaving numpy to warn.
    A std whose squares overflowed is taken again from its values scaled by a power of 2.
    """
    empty = np.isnan(vals).all(axis=0)
    mean = np.where(empty, np.nan, np.nanmean(np.where(empty, 0.0, vals), axis=0))
    ok = np.count_nonzero(np.isfinite(vals), axis=0) >= 2
    std = np.full(vals.shape[1:], np.nan)
    with np.errstate(over="ignore"):
        std[ok] = np.nanstd(vals[:, ok], axis=0, ddof=1)
    big = np.isinf(std)
    if big.any():
        e = np.frexp(np.nanmax(np.abs(vals[:, big]), axis=0))[1]
        std[big] = np.ldexp(np.nanstd(np.ldexp(vals[:, big], -e), axis=0, ddof=1), e)
    return mean, std


def _knots(xp, x) -> np.ndarray:
    """Indices of the knots ``xp`` (sorted, distinct) that ``np.interp`` reads to
    interpolate at ``x``: both ends of the interval holding each query in
    ``[xp[0], xp[-1]]``, or the last knot alone for a query equal to it."""
    x = np.asarray(x, dtype=float).ravel()
    j = np.searchsorted(xp, x[(x >= xp[0]) & (x <= xp[-1])], side="right") - 1
    return np.unique(np.concatenate([j, np.minimum(j + 1, xp.shape[0] - 1)]))


_MEASURES = ("raw", "scaled", "fractional")  # what a RepeatResult keeps per parameter
_interp = partial(np.interp, left=np.nan, right=np.nan)  # (x, xp, fp), NaN off [xp[0], xp[-1]]


@dataclass
class RepeatResult:
    """Seeded runs, each kept as its rows on ``grid``: run k's log F in row k of ``log_ccdf``
    and its measure ``which`` in row k of ``measures[param, which]``.  A read at ``y``
    interpolates them, linearly in (y, log F) and in y, exact at a grid point; a point
    outside a run's sample range is NaN for that run and left out of the statistics."""

    grid: np.ndarray
    seeds: tuple
    log_ccdf: np.ndarray
    measures: dict

    def ccdf_runs(self, y) -> np.ndarray:
        return np.exp(np.stack([_interp(y, self.grid, row) for row in self.log_ccdf]))

    def mean_measure(self, param, y, which="fractional"):
        if (param, which) not in self.measures:
            bad = f"parameter {param!r}" if which in _MEASURES else f"measure {which!r}"
            raise ValueError(f"unknown {bad}")
        return _mean_std(np.stack([_interp(y, self.grid, row)
                                   for row in self.measures[param, which]]))


def repeat_runs(model: ResponseModel, config: SsConfig, kernel: KernelSpec, seeds,
                grid_points: int = 200) -> RepeatResult:
    """One run per seed (at least 2, distinct integers), aggregated onto a fixed threshold grid.

    The seeds run in lockstep groups of ``max(1, _GROUP_ROWS // n_chains)`` on the
    calling thread.  A pool of ``thread_count()`` workers sharing the model read-only
    evaluates each finished run's kernel at the thresholds that interpolation onto
    the grid reads, and keeps only the run's rows on the grid.  Results are reduced
    in seed order, so the output is invariant to the worker count and the grouping.
    The grid is placed at quantiles of the first run's pooled sample values.
    """
    seeds = tuple(_as_int(seed, "seed") for seed in seeds)
    if len(seeds) < 2:
        raise ConfigError("need at least 2 runs")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("run seeds must be distinct")
    grid_points = _as_int(grid_points, "grid_points", 2)
    size = max(1, _GROUP_ROWS // config.n_chains)

    def finish(bins, ccdf):
        y, first = np.unique(ccdf.y, return_index=True)
        curve = _estimate(model, kernel, bins, CcdfCurve(y, ccdf.f[first]), _knots(y, grid))
        return _interp(grid, y, np.log(curve.ccdf)), {(p, w): _interp(grid, y, curve.column(p, w))
                                                      for p in curve.params for w in _MEASURES}

    pending = []
    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        for i in range(0, len(seeds), size):
            try:
                group = run_lockstep(model, config, seeds[i : i + size])
            except Exception:
                for run in pending:  # the failure of an earlier run is reported first
                    run.result()
                raise
            if i == 0:
                grid = np.unique(np.quantile(group[0][1].y, np.linspace(0.0, 1.0, grid_points)))
            pending += [pool.submit(finish, bins, ccdf) for bins, ccdf in group]
        log_ccdf, measures = zip(*(run.result() for run in pending))
    return RepeatResult(grid=grid, seeds=seeds, log_ccdf=np.stack(log_ccdf),
                        measures={key: np.stack([m[key] for m in measures]) for key in measures[0]})


def thread_count() -> int:
    """``GRADSENS_THREADS`` if set, else the number of CPUs this process may run on."""
    env = os.environ.get("GRADSENS_THREADS")
    if env:
        if not env.strip().isdecimal():
            raise ConfigError(f"GRADSENS_THREADS must be a positive integer, got {env!r}")
        return _as_int(int(env), "GRADSENS_THREADS", 1)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def _write_repeat_outputs(outdir: Path, model, config, kernel, agg: RepeatResult,
                          params, grid_points, wall):
    yu = model.response_unit
    g = agg.grid
    fm, fs = _mean_std(agg.ccdf_runs(g))
    files = {"repeat_ccdf.csv": (
        [f"y[{yu}]", "ccdf_mean[-]", "ccdf_std[-]", "ccdf_lo[-]", "ccdf_hi[-]"],
        [g, fm, fs, fm - fs, fm + fs])}
    for p in params:
        pu = _unit_inv(model.param_unit(p))
        (frac_m, frac_s), (sc_m, sc_s), (raw_m, raw_s) = (
            agg.mean_measure(p, g, which) for which in ("fractional", "scaled", "raw"))
        files[f"repeat_sensitivity_{p}.csv"] = (
            [f"y[{yu}]", "ccdf_mean[-]",
             f"frac_d{p}_mean[-]", f"frac_d{p}_std[-]", f"frac_d{p}_lo[-]", f"frac_d{p}_hi[-]",
             f"scaled_d{p}_mean[-]", f"scaled_d{p}_std[-]",
             f"raw_d{p}_mean[{pu}]", f"raw_d{p}_std[{pu}]"],
            [g, fm, frac_m, frac_s, frac_m - frac_s, frac_m + frac_s,
             sc_m, sc_s, raw_m, raw_s])
    runs = len(agg.seeds)
    _write_outputs(
        outdir, "repeat", model, params, files,
        config={"m": config.m, "p0": config.p0, "n_per_level": config.n_per_level,
                "correlation_rule": "quantile-ratio"},
        kernel={"kind": "gaussian", "width_rule": kernel.width_rule, "width": kernel.width},
        runs=runs,
        seeds=list(agg.seeds),
        grid_points=grid_points,
        model_evaluations=runs * config.model_evaluations,
        wall_time_s=wall,
    )


# ---------------------------------------------------------------------------
# benchmarks


def _write_benchmark_outputs(outdir: Path, model, res, params, seed, wall):
    yu = model.response_unit
    frac = res.fractional([model.spec.value(p) for p in res.params])
    files = {}
    for p in params:
        j = res.params.index(p)
        files[f"benchmark_{p}.csv"] = (
            [f"y[{yu}]", "ccdf_ref[-]", f"dF_d{p}_ref[{_unit_inv(model.param_unit(p))}]",
             f"frac_d{p}_ref[-]"],
            [res.y, res.f, res.df[:, j], frac[:, j]])
    _write_outputs(
        outdir, "benchmark", model, params, files,
        provenance=res.provenance,
        n_samples=res.n_samples,
        fd_step=res.fd_step,
        seed=seed if res.provenance == "crn_fd" else None,
        wall_time_s=wall,
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
        sp.add_argument("--seed", type=int, default=0)
        if with_ss:
            sp.add_argument("--m", type=int, default=3, help="number of levels")
            sp.add_argument("--p0", type=float, default=0.1, help="level probability")
            sp.add_argument("--n", type=int, default=1000, help="samples per level")
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
    sp.add_argument("--grid-points", type=int, default=256)
    return p


def _ss_inputs(args):
    """The run configuration and kernel that ``run`` and ``repeat`` share."""
    return (SsConfig(m=args.m, p0=args.p0, n_per_level=args.n, seed=args.seed),
            KernelSpec.parse(args.width))


def cmd_run(args, model, params) -> int:
    config, kernel = _ss_inputs(args)
    t0 = time.perf_counter()
    run = single_run(model, config, kernel)
    _write_run_outputs(Path(args.out), model, config, kernel, run, params,
                       time.perf_counter() - t0)
    return 0


def cmd_repeat(args, model, params) -> int:
    config, kernel = _ss_inputs(args)
    try:
        seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds is not None
                 else range(args.seed, args.seed + args.runs))
    except ValueError:
        raise ConfigError(f"--seeds {args.seeds!r}: needs comma-separated integers") from None
    if len(seeds) != args.runs:
        raise ConfigError("number of seeds must match the run count")
    t0 = time.perf_counter()
    agg = repeat_runs(model, config, kernel, seeds, grid_points=args.grid_points)
    _write_repeat_outputs(Path(args.out), model, config, kernel, agg, params, args.grid_points,
                          time.perf_counter() - t0)
    return 0


def cmd_benchmark(args, model, params) -> int:
    t0 = time.perf_counter()
    res = run_benchmark(model, params, args.samples, args.step, args.seed,
                        grid_points=args.grid_points)
    _write_benchmark_outputs(Path(args.out), model, res, params, args.seed,
                             time.perf_counter() - t0)
    return 0


def _check_out(out: str):
    """``--out`` must be a directory, or its nearest existing ancestor must be one;
    an empty path, as from an unset variable, is refused, not taken as "."."""
    if not out:
        raise ConfigError("--out '': needs a directory path")
    path = Path(out).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"--out {out!r}: {existing} is not a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": cmd_run, "repeat": cmd_repeat, "benchmark": cmd_benchmark}[args.command]
    try:
        _check_out(args.out)
        model = build_model(args.model)
        return handler(args, model, model.spec.select(args.param))
    except (ModelDomainError, NumericalError, DegenerateResponseError) as exc:
        print(f"gradsens: model error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"gradsens: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"gradsens: internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
