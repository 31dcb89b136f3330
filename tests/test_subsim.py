import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from gradsens import cli
from gradsens.model import ModelDomainError, ModelSpec, ResponseModel
from gradsens.numkit import RngStream
from gradsens.responses import MODEL_BUILDERS, NormalResponse, build_model
from gradsens.sensest import KernelSpec
from gradsens.subsim import (SsConfig, ThresholdTieWarning, _advance_chains, correlation_param,
                             run_lockstep, run_subset_simulation)

DEFAULT = dict(m=3, p0=0.1, n_per_level=1000)


class TestCorrelationParam:
    def test_level_one(self):
        a, s = correlation_param(1, 0.1)
        assert a == pytest.approx(0.77544, abs=1e-5)
        assert s == pytest.approx(math.sqrt(1.0 - a * a), rel=1e-15)

    def test_level_two(self):
        a, _ = correlation_param(2, 0.1)
        assert a == pytest.approx(0.87640, abs=1e-5)

    def test_against_scipy_quantiles(self):
        for i in (1, 2, 3):
            u = scipy.stats.norm.isf(0.1**i)
            v = scipy.stats.norm.isf(0.1 ** (i + 1))
            assert correlation_param(i, 0.1)[0] == pytest.approx(0.5 * (1 + u / v), rel=1e-12)

    def test_quantile_ratio_tends_to_one_as_p0_grows(self):
        # the a-formula's quantile ratio u/v approaches 1 as p0 -> 1
        gaps = []
        for p in (0.9, 0.99, 0.999):
            ratio = scipy.stats.norm.isf(p) / scipy.stats.norm.isf(p * p)
            gaps.append(abs(ratio - 1.0))
        assert np.all(np.diff(gaps) < 0.0)
        assert gaps[-1] < 0.08
        # beyond p0 = 0.5 the parameter itself would leave (0,1): rejected
        with pytest.raises(ValueError):
            correlation_param(1, 0.9)

    def test_inside_unit_interval_on_valid_domain(self):
        for p in (0.02, 0.1, 0.25, 0.5):
            for i in (1, 2, 3):
                a, s = correlation_param(i, p)
                assert 0.0 < a < 1.0
                assert 0.0 < s < 1.0

    def test_level_zero_rejected(self):
        # p0^i >= 1 below level 1, outside the quantile's domain
        for i in (0, -1):
            with pytest.raises(ValueError):
                correlation_param(i, 0.1)


class TestSsConfig:
    def test_defaults_valid(self):
        cfg = SsConfig(**DEFAULT, seed=1)
        assert cfg.n_chains == 100
        assert cfg.chain_len == 10
        assert cfg.model_evaluations == 2800

    @pytest.mark.parametrize("kwargs", [
        dict(m=0), dict(p0=0.0), dict(p0=1.0), dict(p0=0.123), dict(p0=0.3),
        dict(n_per_level=1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SsConfig(**{**DEFAULT, **kwargs})


def chain_state(model, x):
    """Engine chain arrays (x, y, g) for the given (chains, n) start inputs."""
    x = np.array(x, dtype=float, ndmin=2)
    y, g = model.evaluate_batch(x)
    return x, y, g


def advance(model, state, threshold, a, streams, steps=1):
    """``steps`` conditional-sampling steps of the engine on ``state`` in place,
    as the chains of one run (seed 0)."""
    x, y, g = (v[None] for v in state)
    s = math.sqrt(1.0 - a * a)
    for _ in range(steps):
        acc = _advance_chains(model, x, y, g, np.array([threshold]), a, s, streams,
                              where=["at level 1 (seed 0)"], calls=[slice(0, 1)])
    return acc[0]


class TestMcmcStep:
    """One conditional-sampling step, as the engine's ``_advance_chains`` runs it."""

    def test_degenerate_a_keeps_state(self):
        m = NormalResponse()
        state = chain_state(m, [2.5, 0.3])
        x0, y0, g0 = (v.copy() for v in state)
        rng = [RngStream(40)]
        for _ in range(5):
            advance(m, state, threshold=y0[0] - 1.0, a=1.0, streams=rng)
            assert np.array_equal(state[0], x0)
            assert np.array_equal(state[1], y0)
            assert np.array_equal(state[2], g0)

    def test_replay_is_bit_exact(self):
        m = NormalResponse()
        chains = []
        for _ in range(2):
            state = chain_state(m, [2.0, 1.0])
            rng = [RngStream(41, 7)]
            ys = []
            for _ in range(20):
                advance(m, state, threshold=1.5, a=0.7754, streams=rng)
                ys.append(state[1][0])
            chains.append(ys)
        assert chains[0] == chains[1]

    def test_rejected_candidate_returns_current(self):
        m = NormalResponse()
        state = chain_state(m, [10.0, 0.0])  # y = 1 + sqrt(.75)*10
        x0, y0, g0 = (v.copy() for v in state)
        acc = advance(m, state, threshold=y0[0] - 1e-9, a=0.1, streams=[RngStream(42)])
        # candidate pulled hard toward the origin: nearly surely below threshold
        assert not acc[0]
        assert np.array_equal(state[0], x0)
        assert np.array_equal(state[1], y0)
        assert np.array_equal(state[2], g0)

    def test_stationarity_on_exact_conditional_start(self):
        # start chains from exact samples of X | Y >= b and verify the response
        # distribution is preserved after 10 steps (the proposal/accept kernel
        # leaves the conditional law invariant); all chains step as one batch
        m = NormalResponse()
        beta = math.sqrt(m.scale**2 - m.mix**2)
        nu = np.array([beta, m.mix]) / m.scale
        orth = np.array([-nu[1], nu[0]])
        p0 = 0.1
        b = m.loc + m.scale * scipy.stats.norm.isf(p0)
        gen = RngStream(44)
        n_chains = 3000
        uni = gen._gen.random(n_chains)
        z_tail = scipy.stats.norm.isf(uni * p0)  # exact conditional response scores
        xi = gen.standard_normal(n_chains)
        state = chain_state(m, z_tail[:, None] * nu[None, :] + xi[:, None] * orth[None, :])
        a, _ = correlation_param(1, p0)
        advance(m, state, threshold=b, a=a,
                streams=[RngStream(45, i) for i in range(n_chains)], steps=10)
        y_final = state[1]
        assert np.all(y_final >= b)
        for z_probe in (1.5, 2.0, 2.3263):
            target = scipy.stats.norm.sf(z_probe) / p0
            observed = np.mean(y_final >= m.loc + m.scale * z_probe)
            se = math.sqrt(target * (1.0 - target) / n_chains)
            assert abs(observed - target) < 4.0 * se


class StaircaseModel(ResponseModel):
    """Coarsely discrete response: forces massive threshold ties."""

    def __init__(self):
        self.spec = ModelSpec(name="stairs", input_dim=1,
                              params=(("a", 1.0),), sensitivity_params=("a",))

    def response_batch(self, x, a=None):
        return np.round(x[:, 0])

    def evaluate_batch(self, x):
        y = self.response_batch(x)
        return y, np.ones((y.shape[0], 1))


class FaultyModel(ResponseModel):
    """y = x0 with unit gradient, until response batch ``bad_call`` (1 is the
    level-0 batch): from then on, row 0 of the response or of the gradient
    is ``value``."""

    def __init__(self, bad_call, value=np.nan, where="y", eager=True):
        self.spec = ModelSpec(name="faulty", input_dim=1,
                              params=(("a", 1.0),), sensitivity_params=("a",))
        self.bad_call, self.value, self.where = bad_call, value, where
        self.eager_gradients = eager
        self.calls = 0

    def response_batch(self, x, a=None):
        self.calls += 1
        y = x[:, 0].copy()
        if self.where == "y" and self.calls >= self.bad_call:
            y[0] = self.value
        return y

    def gradient_batch(self, x):
        g = np.ones((x.shape[0], 1))
        if self.where == "g" and self.calls >= self.bad_call:
            g[0, 0] = self.value
        return g


class MisshapenModel(FaultyModel):
    """FaultyModel with finite output whose shape goes wrong from batch
    ``bad_call`` on: the response as a column (``where="y"``), the gradient one
    row short (``"g"``) or with an extra column (``"cols"``)."""

    def __init__(self, bad_call, where, eager):
        super().__init__(bad_call, 0.0, where, eager)

    def response_batch(self, x, a=None):
        y = super().response_batch(x)
        return y[:, None] if self.where == "y" and self.calls >= self.bad_call else y

    def gradient_batch(self, x):
        g = super().gradient_batch(x)
        if self.calls < self.bad_call:
            return g
        return {"g": g[1:], "cols": np.hstack([g, g])}.get(self.where, g)


class TestMisshapenOutput:
    @pytest.mark.parametrize("bad_call, where, eager, level", [
        (1, "y", True, 0),
        (1, "g", True, 0),
        (1, "cols", False, 0),
        (2, "y", True, 1),
        (2, "g", True, 1),
        (2, "cols", True, 1),
        (2, "y", False, 1),
        (2, "g", False, 1),
    ])
    def test_raises_at_level(self, bad_call, where, eager, level):
        model = MisshapenModel(bad_call, where, eager)
        with pytest.raises(ModelDomainError,
                           match=fr"model returned shapes .* at level {level} \(seed 1\)$"):
            run_subset_simulation(model, SsConfig(m=2, p0=0.1, n_per_level=200, seed=1))


class TestNonFiniteOutput:
    @pytest.mark.parametrize("bad_call, value, where, eager, level", [
        (1, np.nan, "y", True, 0),
        (1, np.nan, "g", True, 0),
        (1, -np.inf, "y", False, 0),
        (2, np.nan, "y", True, 1),
        (2, np.nan, "g", True, 1),
        (2, np.inf, "y", False, 1),
        (2, np.nan, "g", False, 1),
    ])
    def test_raises_at_level(self, bad_call, value, where, eager, level):
        model = FaultyModel(bad_call, value, where, eager)
        with pytest.raises(ModelDomainError,
                           match=fr"1 of [0-9]+ rows at level {level} \(seed 1\)$"):
            run_subset_simulation(model, SsConfig(m=2, p0=0.1, n_per_level=200, seed=1))


class TestRunSubsetSimulation:
    def test_single_level_is_direct_mc(self):
        m = NormalResponse()
        cfg = SsConfig(m=1, p0=0.1, n_per_level=500, seed=7)
        bins, ccdf = run_subset_simulation(m, cfg)
        assert len(bins.bins) == 1
        assert bins.bins[0].count == 500
        assert bins.bins[0].probability == 1.0
        order = np.sort(bins.bins[0].y)
        # empirical exceedance k/N at every sample value
        for i in (0, 99, 499):
            v = order[i]
            assert ccdf.f[np.searchsorted(ccdf.y, v)] == (500 - np.searchsorted(order, v)) / 500

    def test_default_run_structure(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(**DEFAULT, seed=11))
        assert [b.count for b in bins.bins] == [900, 900, 1000]
        assert [b.probability for b in bins.bins] == [0.9, 0.1 * 0.9, 0.1**2]
        assert abs(sum(b.probability for b in bins.bins) - 1.0) <= 4 * np.finfo(float).eps
        assert ccdf.y.shape == (3000,)
        assert np.all(np.diff(ccdf.f[np.argsort(ccdf.y, kind="stable")]) <= 0.0 + 1e-18)
        assert np.all((ccdf.f > 0.0) & (ccdf.f <= 1.0))

    def test_ccdf_hits_p0_powers_at_thresholds(self):
        m = NormalResponse()
        bins, ccdf = run_subset_simulation(m, SsConfig(**DEFAULT, seed=12))
        for j, b in enumerate(bins.thresholds, start=1):
            i = np.searchsorted(ccdf.y, b)
            assert ccdf.f[i] == 0.1**j

    def test_bin_membership(self):
        m = NormalResponse()
        bins, _ = run_subset_simulation(m, SsConfig(**DEFAULT, seed=13))
        edges = [-np.inf, *bins.thresholds, np.inf]
        for i, b in enumerate(bins.bins):
            assert np.all(b.y >= edges[i])
            assert np.all(b.y <= edges[i + 1])

    def test_bit_reproducible(self):
        m = NormalResponse()
        runs = [run_subset_simulation(m, SsConfig(**DEFAULT, seed=99)) for _ in range(2)]
        (b1, c1), (b2, c2) = runs
        assert np.array_equal(b1.thresholds, b2.thresholds)
        assert np.array_equal(c1.y, c2.y)
        assert np.array_equal(c1.f, c2.f)
        for x, y in zip(b1.bins, b2.bins):
            assert np.array_equal(x.y, y.y)
            assert np.array_equal(x.g, y.g)

    def test_gradients_stored_for_all_records(self):
        m = NormalResponse()
        bins, _ = run_subset_simulation(m, SsConfig(**DEFAULT, seed=14))
        for b in bins.bins:
            assert b.g.shape == (b.count, 3)
            assert np.all(np.isfinite(b.g))

    def test_level0_estimator_unbiased(self):
        # mean of F-hat at the decile over 1000 independent direct-MC runs
        m = NormalResponse()
        y_probe = m.loc + m.scale * scipy.stats.norm.isf(0.1)
        n, runs = 1000, 1000
        total = 0.0
        for r in range(runs):
            bins, _ = run_subset_simulation(m, SsConfig(m=1, p0=0.1, n_per_level=n,
                                                        seed=500 + r))
            total += np.mean(bins.bins[0].y >= y_probe)
        mean_f = total / runs
        se = math.sqrt(0.1 * 0.9 / n / runs)
        assert abs(mean_f - 0.1) < 3.0 * se

    def test_threshold_tie_warning(self):
        with pytest.warns(ThresholdTieWarning):
            bins, ccdf = run_subset_simulation(StaircaseModel(),
                                               SsConfig(m=2, p0=0.1, n_per_level=200, seed=3))
        # the CCDF stays a valid exceedance curve even under massive ties
        order = np.argsort(ccdf.y, kind="stable")
        assert np.all(np.diff(ccdf.f[order]) <= 0.0)
        assert np.all((ccdf.f > 0.0) & (ccdf.f <= 1.0))
        assert [b.count for b in bins.bins] == [180, 200]

    def test_tie_warnings_name_the_caller(self):
        # from level 2 on, each warning once named subsim.py on Python 3.10 and 3.11
        config = SsConfig(m=3, p0=0.1, n_per_level=200, seed=3)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_subset_simulation(StaircaseModel(), config)
            cli.repeat_runs(StaircaseModel(), config, KernelSpec("fixed", 0.5), (3, 4))
        files = [w.filename for w in record if issubclass(w.category, ThresholdTieWarning)]
        assert len(files) >= 6 and set(files) == {__file__}

    @pytest.mark.filterwarnings("error::gradsens.subsim.ThresholdTieWarning")
    @pytest.mark.parametrize("model, seed", [("normal", 11), ("buckling", 6), ("sdof", 1),
                                             ("pile", 0)])
    def test_repeated_chain_state_is_not_a_tie(self, model, seed):
        # several records hold the threshold value, but they are copies of one
        # chain state left by rejected moves, not distinct inputs on an atom
        bins, ccdf = run_subset_simulation(build_model(model), SsConfig(**DEFAULT, seed=seed))
        assert np.count_nonzero(ccdf.y == bins.thresholds[-1]) >= 3

    def test_seed_changes_results(self):
        m = NormalResponse()
        _, c1 = run_subset_simulation(m, SsConfig(**DEFAULT, seed=1))
        _, c2 = run_subset_simulation(m, SsConfig(**DEFAULT, seed=2))
        assert not np.array_equal(c1.y, c2.y)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_same_bits(run, solo):
    """Thresholds, bins and CCDF of two (partition, CCDF) results agree bit for bit."""
    (bins, ccdf), (bins0, ccdf0) = run, solo
    assert np.array_equal(bits(bins.thresholds), bits(bins0.thresholds))
    assert len(bins.bins) == len(bins0.bins)
    for b, b0 in zip(bins.bins, bins0.bins):
        for got, want in ((b.y, b0.y), (b.g, b0.g), (b.probability, b0.probability)):
            assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(ccdf.y), bits(ccdf0.y))
    assert np.array_equal(bits(ccdf.f), bits(ccdf0.f))


@pytest.fixture(scope="module")
def models():
    return {name: build_model(name) for name in MODEL_BUILDERS}


class NanRowsNormal(NormalResponse):
    """The normal model with NaN responses in ``rows`` of every batch from
    ``evaluate_batch`` call ``bad_call`` on (1 is the first level-0 call)."""

    def __init__(self, bad_call, rows):
        super().__init__()
        self.bad_call, self.rows, self.calls = bad_call, rows, 0

    def evaluate_batch(self, x):
        self.calls += 1
        y, g = super().evaluate_batch(x)
        if self.calls >= self.bad_call:
            y[self.rows] = np.nan
        return y, g


class TestLockstep:
    """Runs advanced together in ``run_lockstep`` give the bits of their solo runs."""

    SEEDS = (5, 6, 7)

    @pytest.mark.parametrize("name, config", [
        *[(name, DEFAULT) for name in sorted(MODEL_BUILDERS)],
        *[(name, dict(m=4, p0=0.2, n_per_level=500)) for name in sorted(MODEL_BUILDERS)],
        # pile's field product rounds by row count, so its chain calls stay per run
        ("pile", dict(m=3, p0=0.1, n_per_level=20)),
        ("pile", dict(m=3, p0=0.1, n_per_level=500)),
        # one chain per run: a 1-row sdof block rounds differently, so no stacking
        ("sdof", dict(m=3, p0=0.1, n_per_level=10)),
    ])
    def test_groups_match_solo_runs(self, models, name, config):
        model = models[name]
        solo = [run_subset_simulation(model, SsConfig(**config, seed=seed)) for seed in self.SEEDS]
        for size in (1, 2, 3):
            group = run_lockstep(model, SsConfig(**config), self.SEEDS[:size])
            assert len(group) == size
            for run, want in zip(group, solo):
                assert_same_bits(run, want)

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_repeat_across_a_group_boundary(self, models, name, monkeypatch):
        groups = []

        def spy(model, config, seeds):
            groups.append(list(seeds))
            return run_lockstep(model, config, seeds)

        monkeypatch.setattr(cli, "run_lockstep", spy)
        monkeypatch.setattr(cli, "_GROUP_ROWS", 200)  # 2 runs of 100 chains per group
        model, kernel = models[name], KernelSpec()
        config = SsConfig(**DEFAULT)
        agg = cli.repeat_runs(model, config, kernel, self.SEEDS)
        assert groups == [[5, 6], [7]]
        for k, seed in enumerate(self.SEEDS):
            curve = agg.run_curve(k, agg.runs[k].curve.y)  # every unique threshold
            want = cli.single_run(model, dataclasses.replace(config, seed=seed), kernel).curve
            y, first = np.unique(want.y, return_index=True)
            for got, ref in ((curve.y, y), (curve.raw, want.raw[first]),
                             (curve.ccdf, want.ccdf[first])):
                assert np.array_equal(bits(got), bits(ref))

    def test_tie_warnings_as_often_as_solo_runs(self):
        model = StaircaseModel()
        model.spec = dataclasses.replace(model.spec, rows_independent=True)
        config = SsConfig(m=3, p0=0.1, n_per_level=200)
        configs = [dataclasses.replace(config, seed=seed) for seed in self.SEEDS]

        def with_ties(runs):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                results = runs()
            return results, sum(issubclass(w.category, ThresholdTieWarning) for w in record)

        solo, solo_ties = with_ties(lambda: [run_subset_simulation(model, c) for c in configs])
        group, group_ties = with_ties(lambda: run_lockstep(model, config, self.SEEDS))
        assert solo_ties >= len(configs)
        assert group_ties == solo_ties
        for run, want in zip(group, solo):
            assert_same_bits(run, want)

    @pytest.mark.parametrize("bad_call, rows, message", [
        (2, [5], r"1 of 200 rows at level 0 \(seed 7\)$"),
        (3, [0], r"1 of 20 rows at level 1 \(seed 4\)$"),
        # rows 20 to 39 of a stacked chain step are the second run's
        (3, [20, 21, 22], r"3 of 20 rows at level 1 \(seed 7\)$"),
    ])
    def test_fault_names_the_run_and_counts_its_rows(self, bad_call, rows, message):
        with pytest.raises(ModelDomainError, match=message):
            run_lockstep(NanRowsNormal(bad_call, rows), SsConfig(m=2, p0=0.1, n_per_level=200),
                         (4, 7))

    def test_misshapen_stacked_call_names_the_first_run(self):
        class ColumnNormal(NanRowsNormal):
            def evaluate_batch(self, x):
                y, g = super().evaluate_batch(x)
                return (y[:, None] if self.calls >= self.bad_call else y), g

        with pytest.raises(ModelDomainError,
                           match=r"shapes \(20, 1\) and \(20, 3\) for 20 rows .* at level 1 "
                                 r"\(seed 4\)$"):
            run_lockstep(ColumnNormal(3, []), SsConfig(m=2, p0=0.1, n_per_level=200), (4, 7))
