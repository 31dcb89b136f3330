import json
import math
import os
import re
import time
import warnings

import numpy as np
import pytest

from gradsens import cli
from gradsens.cli import (_write_csv, _write_outputs, main, read_csv, repeat_runs, single_run,
                          thread_count)
from gradsens.model import ConfigError, ResponseModel
from gradsens.responses import NormalResponse, PileResponse, build_model
from gradsens.sensest import KernelSpec
from gradsens.subsim import SsConfig

from helpers import FaultyNormal, assert_same_rows, bits, mean_ccdf, y_at_mean_ccdf


def manifest_without_walltime(path):
    data = json.loads((path / "manifest.json").read_text())
    data.pop("wall_time_s")
    return data


def csv_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


class TestCmdRun:
    def test_outputs_and_shapes(self, tmp_path):
        rc = main(["run", "--model", "normal", "--m", "3", "--p0", "0.1", "--n", "1000",
                   "--seed", "42", "--out", str(tmp_path / "out")])
        assert rc == 0
        out = tmp_path / "out"
        names = {p.name for p in out.iterdir()}
        assert names == {"manifest.json", "ccdf.csv",
                         "sensitivity_loc.csv", "sensitivity_scale.csv",
                         "sensitivity_mix.csv",
                         "scatter_loc.csv", "scatter_scale.csv", "scatter_mix.csv"}
        ccdf = read_csv(out / "ccdf.csv")
        assert len(ccdf["y[-]"]) == 3000
        order = np.argsort(ccdf["y[-]"], kind="stable")
        assert np.all(np.diff(ccdf["ccdf[-]"][order]) <= 0.0)
        scatter = read_csv(out / "scatter_loc.csv")
        assert len(scatter["y[-]"]) == 2800
        sens = read_csv(out / "sensitivity_mix.csv")
        assert "frac_dF_dmix[-]" in sens
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["seed"] == 42
        assert man["model_evaluations"] == 2800

    def test_byte_identical_rerun(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["run", "--model", "normal", "--seed", "7",
                       "--out", str(tmp_path / sub)])
            assert rc == 0
        assert csv_bytes(tmp_path / "a") == csv_bytes(tmp_path / "b")
        assert manifest_without_walltime(tmp_path / "a") == \
            manifest_without_walltime(tmp_path / "b")

    def test_pile_run_emits_both_parameters(self, tmp_path):
        rc = main(["run", "--model", "pile", "--n", "500", "--m", "2",
                   "--seed", "3", "--out", str(tmp_path / "out")])
        assert rc == 0
        for p in ("B", "mu"):
            sens = read_csv(tmp_path / "out" / f"sensitivity_{p}.csv")
            assert f"frac_dF_d{p}[-]" in sens
            assert len(sens["y[-]"]) == 1000

    def test_param_subset(self, tmp_path):
        rc = main(["run", "--model", "normal", "--param", "scale",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert "sensitivity_scale.csv" in names
        assert "sensitivity_loc.csv" not in names

    def test_config_error_exit_2(self, tmp_path, capsys):
        rc = main(["run", "--model", "normal", "--p0", "0.3",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_param_exit_2(self, tmp_path):
        rc = main(["run", "--model", "normal", "--param", "bogus",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_model_error_exit_3(self, tmp_path, capsys, monkeypatch):
        # numerical failures inside a model report as model errors, even
        # though they subclass ValueError
        from gradsens.numkit import RepeatedEigenvalueError
        import gradsens.cli as climod

        def boom(args, model, params):
            raise RepeatedEigenvalueError("tied stories")

        monkeypatch.setattr(climod, "cmd_run", boom)
        rc = main(["run", "--model", "buckling", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "model error" in capsys.readouterr().err

    def test_nan_model_output_exit_3(self, tmp_path, capsys, monkeypatch):
        import gradsens.cli as climod

        class NanNormal(NormalResponse):
            def evaluate_batch(self, x):
                y, g = super().evaluate_batch(x)
                y[::100] = np.nan
                return y, g

        monkeypatch.setattr(climod, "build_model", lambda name: NanNormal())
        rc = main(["run", "--model", "normal", "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "model error" in err and "10 of 1000 rows at level 0" in err

    def test_misshapen_model_output_exit_3(self, tmp_path, capsys, monkeypatch):
        import gradsens.cli as climod

        class ShortGradient(NormalResponse):
            def evaluate_batch(self, x):
                y, g = super().evaluate_batch(x)
                return y, g[:5]

        monkeypatch.setattr(climod, "build_model", lambda name: ShortGradient())
        rc = main(["run", "--model", "normal", "--n", "200", "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "model error" in err and "(5, 3) for 200 rows" in err and "level 0" in err

    def test_infinite_fixed_width_exit_2(self, tmp_path, capsys):
        rc = main(["run", "--model", "normal", "--width", "fixed:inf",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "width=inf: needs a finite real in" in capsys.readouterr().err

    def test_one_sample_bin_exit_2(self, tmp_path, capsys):
        # p0 N = 1 seed out of N = 2 leaves one sample in bin 0: no kernel width
        rc = main(["run", "--model", "normal", "--m", "2", "--p0", "0.5", "--n", "2",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error: a kernel width needs at least 2" in capsys.readouterr().err

    def test_constant_response_exit_3(self, tmp_path, capsys, monkeypatch):
        import gradsens.cli as climod

        class ConstantNormal(NormalResponse):
            def evaluate_batch(self, x):
                y, g = super().evaluate_batch(x)
                return np.full_like(y, 1.0), g

        monkeypatch.setattr(climod, "build_model", lambda name: ConstantNormal())
        rc = main(["run", "--model", "normal", "--m", "1", "--n", "200",
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "model error: needs a positive response spread" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", [lambda: np.ones(3).reshape(2, 2), lambda: {}["x"]],
                             ids=["numpy-value-error", "key-error"])
    def test_fault_inside_model_exit_1(self, tmp_path, capsys, monkeypatch, fault):
        # a ValueError or KeyError that no argument check raised is a fault, not bad input
        import gradsens.cli as climod

        class Faulty(NormalResponse):
            def evaluate_batch(self, x):
                return ResponseModel.evaluate_batch(self, x)

            def response_batch(self, x, **overrides):
                return fault()

        monkeypatch.setattr(climod, "build_model", lambda name: Faulty())
        rc = main(["run", "--model", "normal", "--n", "200", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--model", "normal", "--seed", "-1"],
        ["run", "--model", "normal", "--width", "fixed:abc"],
        # unchecked, the bin weight P_i / (N_i w) overflows and every dF column is NaN
        ["run", "--model", "normal", "--width", "fixed:1e-320"],
        ["run", "--model", "normal", "--m", "330", "--p0", "0.1"],
        ["repeat", "--model", "normal", "--runs", "2", "--seeds", "1,x"],
        # not taken as absent, which would run seeds 0 and 1
        ["repeat", "--model", "normal", "--runs", "2", "--seeds", ""],
    ], ids=["negative-seed", "fixed-width-not-a-number", "fixed-width-subnormal",
            "level-probability-underflow", "seeds-not-integers", "seeds-empty"])
    def test_bad_argument_exit_2(self, tmp_path, capsys, argv):
        rc = main(argv + ["--n", "100", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["file", "file/sub", "link"],
                             ids=["file", "under-file", "dangling-link"])
    def test_out_not_a_directory_exit_2(self, tmp_path, capsys, out):
        # rejected before the run: the file and the link stay and nothing is created
        (tmp_path / "file").write_text("keep\n")
        (tmp_path / "link").symlink_to(tmp_path / "nowhere")
        before = sorted(tmp_path.iterdir())
        rc = main(["run", "--model", "normal", "--n", "100", "--out", str(tmp_path / out)])
        assert rc == 2
        assert "configuration error: --out" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "keep\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_empty_out_exit_2(self, tmp_path, capsys, monkeypatch):
        # an unset variable, as in --out "$DIR": not the current directory
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--model", "normal", "--n", "100", "--out", ""])
        assert rc == 2
        assert "configuration error: --out ''" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_fixed_width_flag(self, tmp_path):
        rc = main(["run", "--model", "normal", "--width", "fixed:0.2",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["kernel"]["width_rule"] == "fixed"
        assert man["kernel"]["bin_widths"] == [0.2, 0.2, 0.2]


class TestCmdRepeat:
    def test_identical_seeds_rejected(self, tmp_path, capsys):
        rc = main(["repeat", "--model", "normal", "--runs", "2", "--seeds", "5,5",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "distinct" in capsys.readouterr().err

    def test_seed_count_must_match_runs(self, tmp_path, capsys):
        rc = main(["repeat", "--model", "normal", "--runs", "3", "--seeds", "1,2",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "match the run count" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["abc", "0", "-4"])
    def test_bad_thread_count_exit_2(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("GRADSENS_THREADS", threads)
        rc = main(["repeat", "--model", "normal", "--runs", "2", "--n", "100",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error: GRADSENS_THREADS" in capsys.readouterr().err

    def test_default_thread_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("GRADSENS_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert thread_count() == 1

    def test_explicit_seeds_manifest(self, tmp_path):
        # the manifest lists every run's seed and no base seed that no run used
        rc = main(["repeat", "--model", "normal", "--runs", "2", "--n", "100",
                   "--seeds", "4,9", "--out", str(tmp_path / "out")])
        assert rc == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["seeds"] == [4, 9]
        assert "base_seed" not in man

    def test_nan_model_output_exit_3(self, tmp_path, capsys, monkeypatch):
        # level 0 takes the analytic ``evaluate_batch``; the chain steps of the
        # three runs go to the faulty ``response_batch`` in one stacked call
        import gradsens.cli as climod

        model = FaultyNormal("nan")
        model.eager_gradients = False
        monkeypatch.setattr(climod, "build_model", lambda name: model)
        rc = main(["repeat", "--model", "normal", "--runs", "3", "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "model error" in err
        assert re.search(r"[0-9]+ of 100 rows at level 1 \(seed 0\)$", err.strip()), err
        assert not (tmp_path / "out").exists()

    def test_single_run_rejected(self, tmp_path):
        rc = main(["repeat", "--model", "normal", "--runs", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_short_grid_exit_2(self, tmp_path, capsys, points):
        rc = main(["repeat", "--model", "normal", "--runs", "2", "--n", "100",
                   "--grid-points", points, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"configuration error: grid_points={points}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_outputs(self, tmp_path):
        rc = main(["repeat", "--model", "normal", "--runs", "4", "--seed", "11",
                   "--n", "500", "--grid-points", "64", "--out", str(tmp_path / "out")])
        assert rc == 0
        out = tmp_path / "out"
        rep = read_csv(out / "repeat_ccdf.csv")
        mean, std = rep["ccdf_mean[-]"], rep["ccdf_std[-]"]
        ok = np.isfinite(mean) & np.isfinite(std)
        assert ok.sum() > 50
        # mean curve sits inside its own +-1 sigma band
        assert np.all(mean[ok] >= rep["ccdf_lo[-]"][ok])
        assert np.all(mean[ok] <= rep["ccdf_hi[-]"][ok])
        sens = read_csv(out / "repeat_sensitivity_scale.csv")
        assert "frac_dscale_mean[-]" in sens
        man = json.loads((out / "manifest.json").read_text())
        assert man["seeds"] == [11, 12, 13, 14]

    def test_two_runs_raise_no_runtime_warning(self, tmp_path):
        # grid points outside the second run's range hold one value: std is NaN there
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["repeat", "--model", "normal", "--runs", "2", "--seed", "3",
                       "--n", "500", "--grid-points", "64", "--out", str(out)])
        assert rc == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        rep = read_csv(out / "repeat_ccdf.csv")
        agg = repeat_runs(NormalResponse(), SsConfig(m=3, p0=0.1, n_per_level=500, seed=3),
                          KernelSpec(), range(3, 5), grid_points=64)
        single = np.isfinite(agg.ccdf_runs(agg.grid)).sum(axis=0) < 2
        assert single.any() and not single.all()
        assert np.all(np.isnan(rep["ccdf_std[-]"][single]))
        assert np.all(np.isfinite(rep["ccdf_std[-]"][~single]))

    def test_thread_count_invariance(self, tmp_path, run_cli):
        outs = {}
        for name, threads in (("t1", "1"), ("t3", "3")):
            r = run_cli(["repeat", "--model", "normal", "--runs", "4", "--seed", "2",
                         "--n", "500", "--out", name], tmp_path,
                        env={"GRADSENS_THREADS": threads})
            assert r.returncode == 0, r.stderr
            outs[name] = csv_bytes(tmp_path / name)
        assert outs["t1"] == outs["t3"]


class TestCmdBenchmark:
    def test_normal_routes_analytic(self, tmp_path):
        rc = main(["benchmark", "--model", "normal", "--out", str(tmp_path / "out")])
        assert rc == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["provenance"] == "analytic"
        ref = read_csv(tmp_path / "out" / "benchmark_loc.csv")
        assert np.all(np.diff(ref["ccdf_ref[-]"]) <= 0.0)

    def test_buckling_routes_analytic(self, tmp_path):
        rc = main(["benchmark", "--model", "buckling", "--out", str(tmp_path / "out")])
        assert rc == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["provenance"] == "analytic"

    def test_sdof_routes_crn(self, tmp_path):
        rc = main(["benchmark", "--model", "sdof", "--samples", "2000",
                   "--grid-points", "32", "--out", str(tmp_path / "out")])
        assert rc == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["provenance"] == "crn_fd"
        assert man["n_samples"] == 2000
        assert man["fd_step"] == 0.01

    @pytest.mark.parametrize("model", ["sdof", "normal"])
    def test_zero_samples_exit_2(self, tmp_path, capsys, model):
        rc = main(["benchmark", "--model", model, "--samples", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error: n_samples=0" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["normal", "buckling", "sdof"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, model):
        # normal and buckling exited 0: their analytic references read no seed
        rc = main(["benchmark", "--model", model, "--samples", "200", "--seed", "-1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error: seed=-1: needs an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model", ["normal", "sdof"])
    @pytest.mark.parametrize("points", ["0", "1"])
    def test_short_grid_exit_2(self, tmp_path, capsys, model, points):
        rc = main(["benchmark", "--model", model, "--samples", "200",
                   "--grid-points", points, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"configuration error: grid_points={points}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the sdof cases keep their ids from before normal was added
    @pytest.mark.parametrize("model, step", [
        pytest.param(model, step, id=step if model == "sdof" else f"{model}-{step}")
        for model in ("sdof", "normal") for step in ("1", "2", "nan")])
    def test_step_of_one_or_more_exit_2(self, tmp_path, capsys, model, step):
        # a (1 - h) would reach zero or flip the sign of the damping ratio
        rc = main(["benchmark", "--model", model, "--samples", "200", "--step", step,
                   "--grid-points", "8", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error: rel_step=" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["nan", "nan-moved", "column", "sets"])
    def test_bad_model_output_exit_3(self, tmp_path, capsys, monkeypatch, fault):
        import gradsens.cli as climod

        monkeypatch.setattr(climod, "build_model", lambda name: FaultyNormal(fault))
        rc = main(["benchmark", "--model", "sdof", "--samples", "2000",
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "model error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["benchmark", "--model", "sdof", "--samples", "1000",
                       "--grid-points", "16", "--seed", "5", "--out", str(tmp_path / sub)])
            assert rc == 0
        assert csv_bytes(tmp_path / "a") == csv_bytes(tmp_path / "b")


class TestManifestOutputs:
    """manifest.json records a command's compute time, and ends with the list of
    the CSVs it writes, in order."""

    @pytest.mark.parametrize("argv, outputs", [
        (["run", "--model", "normal", "--n", "200", "--param", "mix", "--param", "loc"],
         ["ccdf.csv", "sensitivity_loc.csv", "sensitivity_mix.csv", "scatter_loc.csv",
          "scatter_mix.csv"]),
        (["repeat", "--model", "pile", "--runs", "2", "--n", "100"],
         ["repeat_ccdf.csv", "repeat_sensitivity_B.csv", "repeat_sensitivity_mu.csv"]),
        (["benchmark", "--model", "sdof", "--samples", "200", "--grid-points", "8"],
         ["benchmark_zeta.csv", "benchmark_omega.csv"]),
    ], ids=["run", "repeat", "benchmark"])
    def test_lists_exactly_the_csvs_written(self, tmp_path, argv, outputs):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert list(man)[-1] == "outputs"
        assert man["outputs"] == outputs
        assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])

    @pytest.mark.parametrize("argv, compute", [
        (["run", "--model", "normal", "--n", "200"], "single_run"),
        (["repeat", "--model", "pile", "--runs", "2", "--n", "100"], "repeat_runs"),
        (["benchmark", "--model", "sdof", "--samples", "200", "--grid-points", "8"],
         "run_benchmark"),
    ], ids=["run", "repeat", "benchmark"])
    def test_wall_time_is_the_compute_call(self, tmp_path, monkeypatch, argv, compute):
        # wall_time_s spans the command's compute call and ends before its outputs
        # are written
        times = {}

        def stamp(name, fn):
            def stamped(*args, **kwargs):
                times[name] = time.perf_counter()
                result = fn(*args, **kwargs)
                times[name + " done"] = time.perf_counter()
                return result
            return stamped

        command = "cmd_" + argv[0]
        for name in (command, compute, "_write_outputs"):
            monkeypatch.setattr(cli, name, stamp(name, getattr(cli, name)))
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        wall = json.loads((tmp_path / "out" / "manifest.json").read_text())["wall_time_s"]
        assert isinstance(wall, float) and math.isfinite(wall) and wall > 0.0
        assert times[compute + " done"] - times[compute] <= wall
        assert wall <= times["_write_outputs"] - times[command]


class TestCsvRoundTrip:
    def test_17_digit_round_trip(self, tmp_path):
        m = NormalResponse()
        res = single_run(m, SsConfig(m=2, p0=0.1, n_per_level=200, seed=1), KernelSpec())
        from gradsens.cli import _write_csv
        path = tmp_path / "t.csv"
        _write_csv(path, ["y[-]", "f[-]"], [res.curve.y, res.curve.ccdf])
        back = read_csv(path)
        assert np.array_equal(back["y[-]"], res.curve.y)
        assert np.array_equal(back["f[-]"], res.curve.ccdf)


def format_loop_csv(header, columns):
    """The CSV text as first written: one '{:.17g}'.format call per value."""
    rows = [",".join(header)]
    for row in np.column_stack(columns):
        rows.append(",".join("{:.17g}".format(v) for v in row))
    return "\n".join(rows) + "\n"


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-320,
                    2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0, -3.0, 1e16,
                    123456789012345678.0])


class TestCsvWriter:
    @pytest.mark.parametrize("columns", [
        [SPECIAL, SPECIAL[::-1]],
        [SPECIAL, np.arange(SPECIAL.shape[0]), np.full(SPECIAL.shape[0], 2)],
        [np.array([0.1]), np.array([np.nan]), np.array([7])],
        [SPECIAL],
        [np.array([], dtype=float), np.array([], dtype=float)],
        [np.random.default_rng(0).standard_normal(500)
         * 10.0 ** np.random.default_rng(1).uniform(-300, 300, 500),
         np.random.default_rng(2).uniform(-1.0, 1.0, 500)],
    ], ids=["specials", "bin-indices", "one-row", "one-column", "no-rows", "wide-range"])
    def test_same_bytes_as_format_loop(self, tmp_path, columns):
        header = [f"c{j}[-]" for j in range(len(columns))]
        path = tmp_path / "t.csv"
        _write_csv(path, header, columns)
        assert path.read_bytes() == format_loop_csv(header, columns).encode()


class TestSharedCsvColumns:
    def test_shared_column_objects_keep_the_format_loop_bytes(self, tmp_path):
        # one array object in every file at a different position, a second shared
        # by two files, and per-file columns
        shared, ints, rev = SPECIAL, np.arange(SPECIAL.shape[0]), SPECIAL[::-1]
        files = {
            "a.csv": (["s[-]", "r[-]"], [shared, rev]),
            "b.csv": (["i[-]", "s[-]", "x[-]"], [ints, shared, np.roll(SPECIAL, 3)]),
            "c.csv": (["x[-]", "i[-]", "s[-]", "s2[-]"], [-SPECIAL, ints, shared, shared]),
            "d.csv": (["r[-]"], [rev]),
        }
        _write_outputs(tmp_path, "test", NormalResponse(), (), files)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == list(files)
        for name, (header, columns) in files.items():
            assert (tmp_path / name).read_bytes() == format_loop_csv(header, columns).encode()


class TestRepeatApi:
    def test_aggregate_probes(self):
        m = NormalResponse()
        cfg = SsConfig(m=2, p0=0.1, n_per_level=500, seed=40)
        agg = repeat_runs(m, cfg, KernelSpec(), range(40, 48))
        y10 = y_at_mean_ccdf(agg, 0.1)
        # inversion runs on the grid-sampled mean curve: off-node both readings
        # agree only to interpolation error
        assert mean_ccdf(agg, np.array([y10]))[0] == pytest.approx(0.1, rel=0.01)
        mean, std = agg.mean_measure("loc", np.array([y10]))
        assert np.isfinite(mean[0]) and std[0] > 0.0

    @pytest.mark.filterwarnings("error")
    def test_points_outside_every_run_are_nan_without_warnings(self):
        agg = repeat_runs(NormalResponse(), SsConfig(m=2, p0=0.1, n_per_level=200, seed=1),
                          KernelSpec(), (1, 2, 3))
        # no run has a knot around y = 100, so no run reads a row for it
        mean, std = agg.mean_measure("loc", np.array([100.0]))
        assert np.isnan(mean).all() and np.isnan(std).all()
        mean, std = agg.mean_measure("loc", np.array([-100.0, agg.grid[3], 100.0]))
        assert np.isnan(mean[[0, 2]]).all() and np.isfinite(mean[1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["normal", "sdof"])
    def test_tiny_width_has_a_finite_spread(self, name):
        # the estimates reach about 1e299, so the squares of their deviations
        # overflow; such a std is taken from its values scaled by a power of two
        model = build_model(name)
        agg = repeat_runs(model, SsConfig(m=3, p0=0.1, n_per_level=100),
                          KernelSpec.parse("fixed:1e-300"), (0, 1))
        p = model.spec.sensitivity_params[0]
        for which in ("raw", "scaled", "fractional"):
            mean, std = agg.mean_measure(p, agg.grid, which)
            vals = agg.measures[p, which]
            both = np.isfinite(vals).all(axis=0)
            assert np.abs(vals[:, both]).max() > 1e200
            assert np.isfinite(std[both]).all()
            # two values a and b have the sample std |a - b| / sqrt(2)
            half = vals[:, both] / 2.0
            want = np.abs(half[0] - half[1]) * math.sqrt(2.0)
            assert np.allclose(std[both], want, rtol=1e-14, atol=0.0)

    def test_kernel_is_evaluated_once_per_run(self, monkeypatch):
        calls = []
        kernel_at = cli.sensitivity_subsim

        def spy(bins, kernel, y_grid, rows=None):
            calls.append(None if rows is None else len(rows))
            return kernel_at(bins, kernel, y_grid, rows)

        monkeypatch.setattr(cli, "sensitivity_subsim", spy)
        cfg = SsConfig(m=2, p0=0.1, n_per_level=300, seed=90)
        agg = repeat_runs(NormalResponse(), cfg, KernelSpec(), (90, 91), grid_points=16)
        assert len(calls) == 2 and all(0 < n <= 32 for n in calls)
        off = np.linspace(agg.grid[0] - 1.0, agg.grid[-1] + 1.0, 37)
        for y in (agg.grid, off):
            agg.ccdf_runs(y)
            for p in ("loc", "scale"):
                for which in ("raw", "scaled", "fractional"):
                    agg.mean_measure(p, y, which)
        assert len(calls) == 2  # no read, on the grid or off it, evaluates the kernel again

    def test_reads_interpolate_the_grid_rows(self):
        m = NormalResponse()
        agg = repeat_runs(m, SsConfig(m=2, p0=0.1, n_per_level=200), KernelSpec(), (1, 2, 3),
                          grid_points=32)
        # later runs' ranges miss grid points, so some finite cells have NaN neighbours
        nan = np.isnan(agg.log_ccdf)
        assert (~nan[:, 1:] & nan[:, :-1]).any() or (~nan[:, :-1] & nan[:, 1:]).any()
        y = np.linspace(agg.grid[0] - 1.0, agg.grid[-1] + 1.0, 37)  # off the grid

        def read(rows):  # each run's row interpolated at y
            return np.stack([np.interp(y, agg.grid, r, left=np.nan, right=np.nan) for r in rows])

        assert np.array_equal(bits(agg.ccdf_runs(agg.grid)), bits(np.exp(agg.log_ccdf)))
        assert np.array_equal(bits(agg.ccdf_runs(y)), bits(np.exp(read(agg.log_ccdf))))
        for p in m.spec.sensitivity_params:
            for which in ("raw", "scaled", "fractional"):
                rows = agg.measures[p, which]
                for at, want in ((y, cli._mean_std(read(rows))), (agg.grid, cli._mean_std(rows))):
                    for got, ref in zip(agg.mean_measure(p, at, which), want):
                        assert np.array_equal(bits(got), bits(ref))

    def test_grid_points_read_the_stored_cells_beside_nan(self):
        grid = np.arange(5.0)
        row = np.array([np.nan, -3.0, 5.0, np.nan, 7.0])  # finite cells beside NaN ones
        agg = cli.RepeatResult(grid=grid, seeds=(1, 2), log_ccdf=np.stack([row, row]),
                               measures={("a", "raw"): np.stack([row, row])})
        assert np.array_equal(bits(agg.ccdf_runs(grid)), bits(np.exp([row, row])))
        assert np.array_equal(bits(agg.mean_measure("a", grid, "raw")[0]), bits(row))

    @pytest.mark.parametrize("param, which, match", [
        ("loc", "bogus", "unknown measure 'bogus'"),
        ("bogus", "raw", "unknown parameter 'bogus'"),
    ])
    def test_unknown_reads_are_value_errors(self, param, which, match):
        agg = repeat_runs(NormalResponse(), SsConfig(m=2, p0=0.1, n_per_level=100),
                          KernelSpec(), (1, 2), grid_points=8)
        with pytest.raises(ValueError, match=match):
            agg.mean_measure(param, agg.grid, which)

    @pytest.mark.parametrize("seeds", [(1.5, 2.5), (1, 2.0), ("1", "2"), "12", (1, -2)])
    def test_seeds_must_be_integers(self, seeds):
        cfg = SsConfig(m=2, p0=0.1, n_per_level=100)
        with pytest.raises(ConfigError, match=r"seed=.*: needs an integer in \[0, 2\*\*64\)"):
            repeat_runs(NormalResponse(), cfg, KernelSpec(), seeds)

    def test_integer_seeds_of_any_integer_type(self):
        cfg = SsConfig(m=2, p0=0.1, n_per_level=100)
        agg = repeat_runs(NormalResponse(), cfg, KernelSpec(), np.arange(3, 5), grid_points=8)
        assert agg.seeds == (3, 4) and all(type(s) is int for s in agg.seeds)
        assert_same_rows(agg, repeat_runs(NormalResponse(), cfg, KernelSpec(), (3, 4),
                                          grid_points=8))

    @pytest.mark.parametrize("points", [0, 1])
    def test_short_grid_rejected(self, points):
        cfg = SsConfig(m=2, p0=0.1, n_per_level=100, seed=1)
        with pytest.raises(ValueError, match=f"grid_points={points}"):
            repeat_runs(NormalResponse(), cfg, KernelSpec(), range(1, 3), grid_points=points)

    def test_thread_workers_match_serial(self, monkeypatch):
        m = NormalResponse()
        cfg = SsConfig(m=2, p0=0.1, n_per_level=300, seed=60)
        monkeypatch.setenv("GRADSENS_THREADS", "1")
        a = repeat_runs(m, cfg, KernelSpec(), range(60, 66))
        monkeypatch.setenv("GRADSENS_THREADS", "4")
        assert_same_rows(a, repeat_runs(m, cfg, KernelSpec(), range(60, 66)))

    def test_pile_non_eager_gradient_policy_in_engine(self):
        # deferred-gradient models run through the same engine surface
        m = PileResponse()
        res = single_run(m, SsConfig(m=2, p0=0.1, n_per_level=100, seed=2), KernelSpec())
        assert all(np.all(np.isfinite(b.g)) for b in res.bins.bins)

    def test_pile_threaded_repeat_matches_serial(self, monkeypatch):
        # the finite-difference gradient path is pure: shared-model workers
        # reproduce the serial result exactly
        m = PileResponse()
        cfg = SsConfig(m=2, p0=0.1, n_per_level=100, seed=70)
        monkeypatch.setenv("GRADSENS_THREADS", "1")
        a = repeat_runs(m, cfg, KernelSpec(), range(70, 74))
        monkeypatch.setenv("GRADSENS_THREADS", "3")
        assert_same_rows(a, repeat_runs(m, cfg, KernelSpec(), range(70, 74)))
