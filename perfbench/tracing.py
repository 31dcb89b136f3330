"""Spans and counters recorded from outside the gradsens package.

Nothing here edits the package: ``Tracer.install`` swaps module attributes
(the names ``cli``, ``benchmarks``, ``responses`` and ``numkit`` look up at
call time) for thin wrappers that time each call, and ``uninstall`` puts the
originals back.  Models reach the engine through ``CountingModel``, a
``ResponseModel`` that forwards every call to the real model and records
calls, rows and time.

A span is ``[name, start, end, parent, data]``.  Spans live in one list and
are written out only when the run ends.  The layer of a span is its name up
to the first dot, one per module of ``src/gradsens``.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

from gradsens import benchmarks, cli, numkit
from gradsens.model import ResponseModel

LAYERS = ("responses", "subsim", "numkit", "sensest", "cli", "benchmarks")
WINDOW_WIDTHS = 8.5  # beyond this many kernel widths the Gaussian pdf is below 1e-16


class Tracer:
    """In-memory span recorder, safe to use from ``repeat``'s worker threads."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # worker threads of ``repeat`` start with an empty stack; their outermost
        # span hangs under the span the installing thread has open at that moment
        self._root_stack = self._stack()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        source = stack or self._root_stack
        parent = source[-1] if source else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        stack.append(idx)
        return idx

    def end(self, idx: int, data=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = data
        self._stack().pop()

    def wrap(self, name, fn, keep=None):
        """``fn`` timed as span ``name``; ``keep(args, kwargs, result)`` gives its data."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, keep(args, kwargs, result) if keep and result is not None
                         else None)

        return traced

    def install(self):
        """Route the package's layer entry points through spans."""
        build_model = cli.build_model
        patches = [
            (cli, "main", self.wrap("cli.main", cli.main)),
            (cli, "single_run", self.wrap("cli.single_run", cli.single_run)),
            (cli, "repeat_runs", self.wrap("cli.repeat", cli.repeat_runs)),
            (cli, "_write_run_outputs", self.wrap("cli.output", cli._write_run_outputs)),
            (cli, "_write_repeat_outputs",
             self.wrap("cli.output", cli._write_repeat_outputs)),
            (cli, "build_model", lambda name, **kw: CountingModel(build_model(name, **kw),
                                                                  self)),
            (cli, "run_subset_simulation",
             self.wrap("subsim.run", cli.run_subset_simulation,
                       keep=lambda a, k, r: (a[1], r[0].thresholds))),
            (cli, "sensitivity_subsim",
             self.wrap("sensest.kernel", cli.sensitivity_subsim,
                       keep=lambda a, k, r: (a[0], r))),
            (cli, "normalize_curve", self.wrap("sensest.normalize", cli.normalize_curve)),
            (benchmarks, "crn_central_difference",
             self.wrap("benchmarks.crn", benchmarks.crn_central_difference)),
            (numkit.RngStream, "standard_normal",
             self.wrap("numkit.rng", numkit.RngStream.standard_normal)),
            (numkit, "smallest_gen_eigenpair",
             self.wrap("numkit.eigen", numkit.smallest_gen_eigenpair)),
            (numkit, "eigen_derivative",
             self.wrap("numkit.eigen", numkit.eigen_derivative)),
        ]
        for owner, attr, replacement in patches:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def export(self) -> dict:
        """Spans as plain lists (name index, start, end, parent), for a JSON file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]}


class CountingModel(ResponseModel):
    """Forwards a model's three batch methods and records each call as a span.

    The span data is ``(rows, y)``: the batch size and, for calls that return
    responses, a copy of them, from which acceptance per level is recounted.
    Everything else (parameters, ``lam0``, ``loc``...) is read from the model.
    """

    def __init__(self, inner: ResponseModel, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.spec = inner.spec
        self.eager_gradients = inner.eager_gradients
        self.analytic_gradients = inner.analytic_gradients
        self.fd_rel_step = inner.fd_rel_step
        self.response_unit = inner.response_unit

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def param_unit(self, name):
        return self.inner.param_unit(name)

    def _call(self, name, fn, x, responses, **kwargs):
        idx = self.tracer.begin(name)
        out = None
        try:
            out = fn(x, **kwargs)
            return out
        finally:
            y = None
            if out is not None and responses:
                y = np.array(out[0] if isinstance(out, tuple) else out)
            self.tracer.end(idx, (len(x), y))

    def evaluate_batch(self, x):
        return self._call("responses.evaluate_batch", self.inner.evaluate_batch, x, True)

    def response_batch(self, x, **overrides):
        return self._call("responses.response_batch", self.inner.response_batch, x, True,
                          **overrides)

    def gradient_batch(self, x):
        return self._call("responses.gradient_batch", self.inner.gradient_batch, x, False)


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def _window_pairs(bins, curve):
    """(pairs evaluated, pairs within WINDOW_WIDTHS kernel widths) of one kernel call."""
    grid = np.unique(curve.y)
    pairs = useful = 0
    for b, w in zip(bins.bins, curve.widths):
        ys = np.sort(b.y)
        hi = np.searchsorted(ys, grid + WINDOW_WIDTHS * w, side="right")
        lo = np.searchsorted(ys, grid - WINDOW_WIDTHS * w, side="left")
        pairs += grid.shape[0] * b.count
        useful += int((hi - lo).sum())
    return pairs, useful


def layer_metrics(spans, jobs: int) -> dict:
    """Per-layer counts and times, per job, from one traced window of ``jobs`` jobs."""
    n = len(spans)
    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    dur = [s[2] - s[1] for s in spans]
    self_t = [dur[i] - _covered([(spans[c][1], spans[c][2]) for c in children[i]],
                                spans[i][1], spans[i][2]) for i in range(n)]

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    busy = {name: 0.0 for name in LAYERS}
    own = {name: 0.0 for name in LAYERS}
    by_name = {}
    for i, s in enumerate(spans):
        own[layer(i)] += self_t[i]
        if s[3] < 0 or layer(s[3]) != layer(i):
            busy[layer(i)] += dur[i]
        acc = by_name.setdefault(s[0], [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += dur[i]
        acc[2] += self_t[i]

    def count(name):
        return by_name.get(name, [0, 0.0, 0.0])[0]

    def total(name, col=1):
        return by_name.get(name, [0, 0.0, 0.0])[col]

    # responses: calls, rows
    model_calls = [i for i, s in enumerate(spans) if layer(i) == "responses"]
    rows = sum(spans[i][4][0] for i in model_calls)

    # subsim: acceptance per level and counted rows against the formula
    accepted, candidates = {}, {}
    counted = formula = 0
    for i, s in enumerate(spans):
        if s[0] != "subsim.run" or s[4] is None:
            continue
        config, thresholds = s[4]
        formula += config.model_evaluations
        evals = [c for c in children[i] if spans[c][0] in
                 ("responses.evaluate_batch", "responses.response_batch")]
        counted += sum(spans[c][4][0] for c in evals)
        for k, c in enumerate(evals[1:]):
            level = 1 + k // (config.chain_len - 1)
            y = spans[c][4][1]
            if y is None:  # the call raised; its job is already failed
                continue
            accepted[level] = accepted.get(level, 0) + int(np.count_nonzero(
                y >= thresholds[level - 1]))
            candidates[level] = candidates.get(level, 0) + y.shape[0]

    # sensest: kernel pairs, useful share, bytes of the dense kernel matrices
    pairs = useful = 0
    for s in spans:
        if s[0] == "sensest.kernel" and s[4] is not None:
            p, u = _window_pairs(*s[4])
            pairs += p
            useful += u
    kernel_s = total("sensest.kernel")

    per_job = 1.0 / max(jobs, 1)
    out = {
        "responses.calls": len(model_calls) * per_job,
        "responses.rows": rows * per_job,
        "responses.rows_per_call": rows / len(model_calls) if model_calls else 0.0,
    }
    for method in ("evaluate_batch", "response_batch", "gradient_batch"):
        out[f"responses.{method}.busy_s"] = total(f"responses.{method}") * per_job
    out["subsim.busy_s"] = busy["subsim"] * per_job
    for level in (1, 2):
        out[f"subsim.accept_rate.l{level}"] = (accepted.get(level, 0) / candidates[level]
                                               if candidates.get(level) else 0.0)
    out["subsim.evals_vs_formula"] = counted / formula if formula else 0.0
    out["numkit.rng.calls"] = count("numkit.rng") * per_job
    out["numkit.rng.busy_s"] = total("numkit.rng") * per_job
    out["numkit.eigen.busy_s"] = total("numkit.eigen") * per_job
    out["sensest.busy_s"] = busy["sensest"] * per_job
    out["sensest.pairs"] = pairs * per_job
    out["sensest.pairs_per_s"] = pairs / kernel_s if kernel_s > 0 else 0.0
    out["sensest.window_frac"] = useful / pairs if pairs else 0.0
    out["sensest.bytes_computed"] = 8.0 * pairs * per_job
    out["cli.output.busy_s"] = total("cli.output") * per_job
    out["cli.repeat.aggregate_s"] = total("cli.repeat", col=2) * per_job
    out["benchmarks.crn.busy_s"] = total("benchmarks.crn") * per_job
    out["benchmarks.crn.self_s"] = total("benchmarks.crn", col=2) * per_job
    for name in LAYERS:
        out[f"{name}.self_s"] = own[name] * per_job
    return out
