"""One benchmark run of one workload: set-up probes, golden job, timed loop, report."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import gradsens
from gradsens.subsim import ThresholdTieWarning

import tracing
import workloads

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"
WORK = HERE / "_work"
GOLDEN_SEED = 0
SETUP_PROBES = 9
SPEEDUP_PAIRS = 2
ALL_CPUS = os.sched_getaffinity(0)

# Timed in a fresh interpreter: importing gradsens (numpy and scipy with it)
# and building the workload's models (sdof expm, pile Cholesky, buckling lam0).
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from gradsens.responses import build_model
for name in sys.argv[2:]:
    build_model(name)
print(time.perf_counter() - t0)
"""

UNITS = {"setup_s": "s", "job_s_p50": "s", "job_s_tail": "s", "jobs_per_s": "jobs/s",
         "peak_rss_mb": "MB"}
# per-layer metrics, per traced job unless a ratio
LAYER_UNITS = {
    "responses.calls": "count", "responses.rows": "count", "responses.rows_per_call": "rows",
    "responses.evaluate_batch.busy_s": "s", "responses.response_batch.busy_s": "s",
    "responses.gradient_batch.busy_s": "s", "responses.self_s": "s",
    "subsim.busy_s": "s", "subsim.self_s": "s", "subsim.accept_rate.l1": "ratio",
    "subsim.accept_rate.l2": "ratio", "subsim.evals_vs_formula": "ratio",
    "numkit.rng.calls": "count", "numkit.rng.busy_s": "s", "numkit.eigen.busy_s": "s",
    "numkit.self_s": "s",
    "sensest.busy_s": "s", "sensest.self_s": "s", "sensest.pairs": "count",
    "sensest.pairs_per_s": "1/s", "sensest.window_frac": "ratio",
    "sensest.bytes_computed": "B",
    "cli.self_s": "s", "cli.output.busy_s": "s", "cli.output.bytes": "B",
    "cli.repeat.speedup": "ratio", "cli.repeat.aggregate_s": "s",
    "benchmarks.self_s": "s", "benchmarks.crn.busy_s": "s", "benchmarks.crn.self_s": "s",
    "trace_overhead_frac": "ratio", "trace.jobs": "count",
    "warnings.threshold_tie": "count", "warnings.ddof": "count",
}


def job_seed(seed: int, j: int) -> int:
    """Seed of the j-th job of a run; 16 apart, so a repeat's runs never overlap."""
    return seed * 10**6 + 16 * j


@dataclass
class Job:
    seed: int
    seconds: float
    ok: bool
    info: dict
    digest: str = ""
    output_bytes: int = 0
    warnings: dict = field(default_factory=dict)


def _count_warnings(caught) -> dict:
    counts = {"threshold_tie": 0, "ddof": 0, "other": 0}
    for w in caught:
        if issubclass(w.category, ThresholdTieWarning):
            counts["threshold_tie"] += 1
        elif issubclass(w.category, RuntimeWarning) and "Degrees of freedom" in str(w.message):
            counts["ddof"] += 1
        else:
            counts["other"] += 1
    return counts


def attempt(wl, seed: int, tracer=None) -> Job:
    """The record of one job, timed and checked.

    A raised error or a failed check marks the job failed.
    """
    outdir = WORK / "job"
    workloads.clear(outdir)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out = wl.job(seed, outdir, tracer)
        except Exception as exc:  # a failed job is counted, not fatal
            out, error = None, repr(exc)
        elapsed = time.perf_counter() - t0
    counts = _count_warnings(caught)
    if out is None:
        return Job(seed, elapsed, False, {"error": error}, warnings=counts)
    info = wl.check(out)
    ok = info.pop("ok")
    for key, (limit, _) in workloads.TOL.get(wl.name, {}).items():
        ok &= info[key] <= limit
    return Job(seed, elapsed, ok, info, wl.digest(out), wl.output_bytes(out), counts)


def next_cpu(wl, j: int):
    """Pin job ``j`` of a single-threaded workload to CPU ``j mod nproc``.

    Host contention comes in spells that hit one CPU at a time, so taking the
    CPUs in turn makes every run sample all of them alike.
    """
    if wl.single_threaded:
        cpus = sorted(ALL_CPUS)
        os.sched_setaffinity(0, {cpus[j % len(cpus)]})


def timed_loop(wl, seed: int, seconds: float, tracer=None, between=None) -> list:
    """Jobs back to back for ``seconds``; ``between(elapsed)`` runs after each job."""
    jobs = []
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        next_cpu(wl, len(jobs))
        jobs.append(attempt(wl, job_seed(seed, len(jobs)), tracer))
        if between:
            between(time.perf_counter() - start)
    return jobs


def setup_once(wl, src: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(src), *wl.models],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.strip())


def tail(values) -> tuple:
    """(value, percentile): the highest percentile with at least ten values beyond it."""
    v = sorted(values)
    if len(v) < 11:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    return {"nproc": len(ALL_CPUS), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "gradsens": gradsens.__version__, "blas_threads": blas_threads(),
            "repeat_threads": int(os.environ["GRADSENS_THREADS"]),
            "machine": platform.machine(), "seed": args.seed,
            "job_seeds": f"{args.seed}*10^6 + 16*j", "golden_seed": GOLDEN_SEED}


def golden(wl, record: bool):
    """The fixed-seed job, checked against the digest in expected.json.

    Any digest mismatch fails the job.  After an intended change to the
    numbers, re-record with ``--record`` and say by how much they moved.
    """
    job = attempt(wl, GOLDEN_SEED)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if record and job.ok:
        expected[wl.name] = {"seed": GOLDEN_SEED, "sha256": job.digest}
        EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    want = expected.get(wl.name)
    if want is None:
        job.ok, status = False, "no expected digest recorded"
    elif job.digest == want["sha256"]:
        status = "digest match"
    else:
        job.ok, status = False, "digest differs from expected.json"
    job.info["golden"] = status
    return job


def speedup(wl) -> float:
    """Time of one job at one `repeat` thread over its time at nproc threads."""
    threads = os.environ["GRADSENS_THREADS"]
    times = {"1": [], threads: []}
    try:
        for _ in range(SPEEDUP_PAIRS):
            for count, acc in times.items():
                os.environ["GRADSENS_THREADS"] = count
                acc.append(attempt(wl, GOLDEN_SEED).seconds)
    finally:
        os.environ["GRADSENS_THREADS"] = threads
    return statistics.median(times["1"]) / statistics.median(times[threads])


def measure_plain(wl, args, src: Path) -> tuple:
    """(jobs, end-to-end metric values, note) of an untraced run."""
    setup = []

    def probe(elapsed):
        # probes spread over the run, so that their median does not hang on
        # one spell of host contention
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_once(wl, src))

    jobs = timed_loop(wl, args.seed, args.seconds, between=probe)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_once(wl, src))
    times = [j.seconds for j in jobs]
    tail_s, pct = tail(times)
    values = {"setup_s": statistics.median(setup), "job_s_p50": statistics.median(times),
              "job_s_tail": tail_s, "jobs_per_s": len(times) / sum(times),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    notes = [f"job_s_tail is p{pct:.0f} of {len(times)} jobs; setup_s is the median of "
             f"{len(setup)} fresh interpreters"]
    if wl.ss_runs_per_job:
        notes.append(f"ss_runs_per_s = {values['jobs_per_s'] * wl.ss_runs_per_job:.6g} runs/s")
    else:
        notes.append(f"crn_samples_per_s = {values['jobs_per_s'] * workloads.CRN_SAMPLES:.6g}"
                     " samples/s")
    return jobs, {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, notes


def measure_traced(wl, args) -> tuple:
    """(jobs, per-layer metric values, notes) of a run that alternates untraced
    and traced jobs on the same seeds.

    Pairs see the same spell of host load, so their time ratio gives the
    tracing overhead; a traced job whose output digest differs from its
    untraced twin fails.
    """
    repeat_speedup = speedup(wl) if wl.name == "chain_bound" else 0.0
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() < start + args.seconds:
        next_cpu(wl, len(plain))
        seed = job_seed(args.seed, len(plain))
        plain.append(attempt(wl, seed))
        tracer.install()
        try:
            twin = attempt(wl, seed, tracer)
        finally:
            tracer.uninstall()
        if twin.digest != plain[-1].digest:
            twin.ok = False
            twin.info["identity"] = "traced output differs from untraced"
        traced.append(twin)
    jobs = plain + traced

    layer = tracing.layer_metrics(tracer.spans, len(traced))
    layer["cli.output.bytes"] = statistics.fmean(j.output_bytes for j in traced)
    layer["cli.repeat.speedup"] = repeat_speedup
    layer["trace_overhead_frac"] = statistics.median(
        t.seconds / p.seconds for p, t in zip(plain, traced)) - 1.0
    for key in ("threshold_tie", "ddof"):
        layer[f"warnings.{key}"] = sum(j.warnings[key] for j in jobs) / len(jobs)
    layer["trace.jobs"] = len(traced)
    own = {name: layer[f"{name}.self_s"] for name in tracing.LAYERS}
    holds, claim = wl.design(own)
    notes = [f"design check: {claim}: {'yes' if holds else 'NO'} (self s/job: "
             + ", ".join(f"{k}={v:.4g}" for k, v in own.items()) + ")"]
    (RESULTS / f"{wl.name}-seed{args.seed}-spans.json").write_text(
        json.dumps(tracer.export()))
    return jobs, {k: {"value": layer[k], "unit": u} for k, u in LAYER_UNITS.items()}, notes


def run(args, src: Path) -> int:
    wl = workloads.WORKLOADS[args.workload]()
    RESULTS.mkdir(exist_ok=True)
    try:
        gold = golden(wl, args.record)
        jobs, metrics, notes = (measure_traced(wl, args) if args.trace
                                else measure_plain(wl, args, src))
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
        workloads.clear(WORK)

    attempted = len(jobs) + 1
    failed = sum(not j.ok for j in jobs) + (not gold.ok)
    env = environment(args)
    counts = {k: sum(j.warnings[k] for j in jobs) for k in ("threshold_tie", "ddof", "other")}
    print(f"# {wl.name}: {wl.why}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# golden job (seed {GOLDEN_SEED}): {gold.info['golden']}, sha256 {gold.digest}")
    accurate = True
    for key, (limit, median_limit) in workloads.TOL.get(wl.name, {}).items():
        values = [j.info[key] for j in jobs if key in j.info]
        if values:
            median = statistics.median(values)
            accurate &= median <= median_limit
            print(f"# {key} = median {median:.4g} (limit {median_limit}), "
                  f"max {max(values):.4g} (limit {limit}) ratio")
    if not accurate:
        print("# the median analytic error of the run's jobs is over its limit")
    print(f"# warnings over {len(jobs)} jobs: ThresholdTieWarning={counts['threshold_tie']}, "
          f"ddof RuntimeWarning={counts['ddof']}, other={counts['other']}")
    print(f"# failed_frac = {failed}/{attempted} = {failed / attempted:.4g} ratio")
    for j in [gold, *jobs]:
        if not j.ok:
            print(f"# failed job seed {j.seed}: {j.info}")
    for note in notes:
        print(f"# {note}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")

    record = {"workload": wl.name, "trace": args.trace, "environment": env,
              "golden": {"seed": GOLDEN_SEED, "sha256": gold.digest,
                         "status": gold.info["golden"]},
              "warnings": counts, "attempted": attempted, "failed": failed,
              "accurate": accurate, "notes": notes, "metrics": metrics,
              "jobs": [{"seed": j.seed, "seconds": j.seconds, "ok": j.ok, **j.info}
                       for j in jobs]}
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and accurate, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
