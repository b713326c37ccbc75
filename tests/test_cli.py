import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import tailscope as ts
from tailscope import randset
from tailscope.cli import main, parse_model
from tailscope.errors import ConfigError
from tailscope.svgplot import Series, render_plot

SVG = "{http://www.w3.org/2000/svg}"


def run(*argv):
    return main(list(argv))


def series_groups(path):
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG}svg"
    return [g for g in root.iter(f"{SVG}g") if g.get("class", "").startswith("series")]


def write_composite_csv(path, years, phi, innov, seed):
    comp = ts.synthetic_composite(years, phi, innov, seed)
    with open(path, "w") as fh:
        fh.write("date,value\n")
        for d, v in zip(comp.dates, comp.values):
            fh.write(f"{d},{v:.17g}\n")
    return path


class TestParseModel:
    def test_kinds(self):
        assert parse_model("pareto:2").label() == "pareto(alpha=2)"
        assert parse_model("gpd:0.5,1").label() == "gpd(xi=0.5,beta=1)"
        assert parse_model("beta:2,2").label() == "beta(a=2,b=2)"
        assert parse_model("exp").label() == "exp(mean=1)"
        assert parse_model("lambertw").label() == "lambertw"

    def test_bad_specs(self):
        for spec in ("pareto", "pareto:a", "nope:1", "pareto:0", "gpd:1,2,3"):
            with pytest.raises(ConfigError):
                parse_model(spec)

    def test_unknown_model_message(self):
        for spec in ("nope:1", "gpd:1,2,3"):
            with pytest.raises(ConfigError) as err:
                parse_model(spec)
            assert str(err.value) == (
                f"unknown model {spec!r}; expected kind:params with kind in "
                "pareto, gpd, beta, exp, lognormal, stable, lambertw"
            )


class TestSimulate:
    def test_writes_sample_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("simulate", "--model", "pareto:2", "--n", "100",
                   "--seed", "7", "--out", str(out)) == 0
        rows = (out / "sample.csv").read_text().strip().splitlines()
        assert rows[0] == "value" and len(rows) == 101
        manifest = (out / "manifest.txt").read_text()
        assert "command=simulate" in manifest
        assert "model=pareto(alpha=2)" in manifest
        assert "seed=7" in manifest and "stream=0" in manifest
        assert "wrote 100 values" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--model", "gpd:0.5,1", "--n", "200",
                       "--seed", "3", "--out", str(out)) == 0
        assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()

    def test_stable_sample_hill_reads_alpha(self, tmp_path):
        out = tmp_path / "s"
        assert run("simulate", "--model", "stable:1.5", "--n", "20000",
                   "--seed", "11", "--out", str(out)) == 0
        values = np.loadtxt(out / "sample.csv", skiprows=1)
        alpha = ts.hill(ts.order_statistics(values), 1000)
        assert alpha == pytest.approx(1.5, abs=0.2)


class TestSeedResolution:
    def test_env_fallback_matches_flag(self, tmp_path, monkeypatch):
        flag, env = tmp_path / "flag", tmp_path / "env"
        assert run("simulate", "--model", "exp", "--n", "50",
                   "--seed", "9", "--out", str(flag)) == 0
        monkeypatch.setenv("TAILSCOPE_SEED", "9")
        assert run("simulate", "--model", "exp", "--n", "50", "--out", str(env)) == 0
        assert (flag / "sample.csv").read_bytes() == (env / "sample.csv").read_bytes()

    def test_flag_beats_config_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAILSCOPE_SEED", "1")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=2\n")
        via_cfg, via_flag, ref2, ref3 = (tmp_path / x for x in "abcd")
        assert run("simulate", "--model", "exp", "--n", "40", "--config", str(cfg),
                   "--out", str(via_cfg)) == 0
        assert run("simulate", "--model", "exp", "--n", "40", "--config", str(cfg),
                   "--seed", "3", "--out", str(via_flag)) == 0
        assert run("simulate", "--model", "exp", "--n", "40", "--seed", "2",
                   "--out", str(ref2)) == 0
        assert run("simulate", "--model", "exp", "--n", "40", "--seed", "3",
                   "--out", str(ref3)) == 0
        assert (via_cfg / "sample.csv").read_bytes() == (ref2 / "sample.csv").read_bytes()
        assert (via_flag / "sample.csv").read_bytes() == (ref3 / "sample.csv").read_bytes()

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TAILSCOPE_SEED", "xyz")
        assert run("simulate", "--model", "exp", "--n", "40",
                   "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err


class TestConfigFile:
    def test_options_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nmodel=pareto:2\nn=60\nseed=5\n")
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert len((out / "sample.csv").read_text().strip().splitlines()) == 61

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model pareto:2\n")
        assert run("simulate", "--config", str(cfg), "--n", "10") == 2
        assert "expected key=value" in capsys.readouterr().err


class TestMeplot:
    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "m"
        assert run("meplot", "--model", "pareto:2", "--n", "2000", "--seed", "1",
                   "--trim", "10:2000", "--out", str(out)) == 0
        pts = np.loadtxt(out / "me_plot.csv", delimiter=",", skiprows=1)
        assert pts.shape == (1991, 2)
        summary = dict(
            line.split("=") for line in (out / "summary.txt").read_text().splitlines()
        )
        assert summary["trim"] == "10:2000"
        xi = float(summary["xi_hat"])
        assert 0.2 < xi < 0.8
        groups = series_groups(out / "me_plot.svg")
        kinds = {g.get("class") for g in groups}
        assert kinds == {"series series-scatter", "series series-line"}
        assert f"xi_hat={xi:.4f}"[:12] in capsys.readouterr().out

    def test_input_file_route_and_format_subset(self, tmp_path):
        src = tmp_path / "vals.csv"
        rng = np.random.default_rng(2)
        src.write_text("value\n" + "\n".join(f"{v}" for v in rng.pareto(2, 500) + 1))
        out = tmp_path / "m"
        assert run("meplot", "--input", str(src), "--format", "csv",
                   "--out", str(out)) == 0
        assert (out / "me_plot.csv").exists()
        assert not (out / "me_plot.svg").exists()
        assert "input" in (out / "manifest.txt").read_text()

    def test_bad_trim_is_data_error(self, tmp_path, capsys):
        assert run("meplot", "--model", "pareto:2", "--n", "100", "--seed", "1",
                   "--trim", "90:5", "--out", str(tmp_path / "x")) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_tied_maxima(self, tmp_path, capsys):
        src = tmp_path / "tied.csv"
        src.write_text("value\n5\n5\n3\n2\n1\n1\n0.5\n")
        out = tmp_path / "m"
        assert run("meplot", "--input", str(src), "--out", str(out)) == 0
        pts = np.loadtxt(out / "me_plot.csv", delimiter=",", skiprows=1)
        # X_(2) = X_(1) has no strict exceedance and leaves no row
        np.testing.assert_array_equal(pts[:, 0], [3.0, 2.0, 1.0, 1.0, 0.5])
        np.testing.assert_allclose(pts[:, 1], [2.0, 7 / 3, 11 / 4, 11 / 4, 7 / 3], rtol=1e-15)
        # the records name the rows actually plotted, 3:7, not the requested 2:7
        assert "trim=3:7" in (out / "summary.txt").read_text().splitlines()
        assert "trim=3:7" in (out / "manifest.txt").read_text().splitlines()
        assert "trim=3:7" in (out / "me_plot.svg").read_text()
        src.write_text("value\n4\n4\n4\n4\n")
        assert run("meplot", "--input", str(src), "--out", str(tmp_path / "x")) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestEstimate:
    def test_outputs(self, tmp_path):
        out = tmp_path / "e"
        assert run("estimate", "--model", "pareto:2", "--n", "1000", "--seed", "4",
                   "--m", "100", "--out", str(out)) == 0
        for name in ("hill_trace.csv", "pickands_trace.csv", "moment_trace.csv",
                     "qq_pos.csv", "traces.svg", "qq_pos.svg", "summary.txt"):
            assert (out / name).exists(), name
        summary = dict(
            line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        values = ts.order_statistics(
            np.array(ts.Pareto(2).sample(1000, ts.RandomSeed(4)))
        )
        assert float(summary["hill"]) == pytest.approx(ts.hill(values, 100), rel=1e-12)
        assert float(summary["qq_slope"]) == pytest.approx(0.5, abs=0.15)
        trace_rows = (out / "hill_trace.csv").read_text().strip().splitlines()
        assert trace_rows[0] == "m,value"
        assert len(trace_rows) == 1 + 999  # m runs 1..n-1 at stride 1


@pytest.mark.parametrize("stride", ["0", "-2"])
def test_estimate_bad_stride_is_config_error_before_the_input(tmp_path, capsys, stride):
    # the stride is refused before the input is read: a missing file is not reached
    out = tmp_path / "x"
    assert run("estimate", "--input", str(tmp_path / "nope.csv"), "--stride", stride,
               "--out", str(out)) == 2
    assert capsys.readouterr().err == "tailscope: config error: stride must be positive\n"
    assert not out.exists()


class TestConverge:
    def test_outputs_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", "1000,2000", "--reps", "2", "--seed", "5",
                   "--out", str(out)) == 0
        rows = (out / "distances.csv").read_text().strip().splitlines()
        assert rows[0] == "rep,n,distance" and len(rows) == 5
        manifest = (out / "manifest.txt").read_text()
        assert "case=positive" in manifest and "k_rule=floor(n**0.7)" in manifest
        assert (out / "convergence.svg").exists()
        assert "converge: medians n=1000" in capsys.readouterr().out

    def test_case_model_mismatch_is_config_error(self, tmp_path, capsys):
        assert run("converge", "--model", "beta:2,2", "--case", "positive",
                   "--n-grid", "1000", "--reps", "1", "--out", str(tmp_path / "x")) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_case_is_config_error(self, tmp_path, capsys):
        args = ["--model", "pareto:2", "--n-grid", "1000", "--reps", "1"]
        assert run("converge", "--case", "sideways", *args,
                   "--out", str(tmp_path / "x")) == 2
        flag_err = capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("case=sideways\n")
        assert run("converge", "--config", str(cfg), *args,
                   "--out", str(tmp_path / "y")) == 2
        cfg_err = capsys.readouterr().err
        for err in (flag_err, cfg_err):
            assert err == ("tailscope: config error: case must be one of "
                           "('positive', 'negative', 'zero')\n")

    def test_limit_outside_default_window_is_config_error(self, tmp_path, capsys):
        for model in ("gpd:0.8", "gpd:0.95", "pareto:1.1"):
            out = tmp_path / model.replace(":", "_")
            assert run("converge", "--model", model, "--case", "positive",
                       "--n-grid", "1000", "--reps", "1", "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith("tailscope: config error: the positive limit for shape ")
            assert "misses the window 1,3,0,4; pass a --window" in err
            assert not out.exists()

    @pytest.mark.parametrize("grid, k_args, message", [
        ("1000", ["--k", "0.1"], "k=1 outside 2..1000"),
        ("2", [], "k=1 outside 2..2"),
    ])
    def test_k_below_two_is_data_error(self, tmp_path, capsys, grid, k_args, message):
        # the k-rule's k is checked against n itself, not against the top k
        # values a cell keeps
        out = tmp_path / "x"
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", grid, "--reps", "2", *k_args, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"tailscope: data error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--reps", "1", "--resolution", "0"], "resolution must be positive"),
        (["--reps", "1", "--resolution", "-3"], "resolution must be positive"),
        (["--reps", "0"], "need reps >= 1 and a nonempty n grid"),
        (["--reps", "1", "--k", "1.5"], "k-rule exponent must lie in (0, 1)"),
    ])
    def test_bad_option_value_is_config_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", "1000", *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"tailscope: config error: {message}\n"
        assert not out.exists()

    def test_bad_window(self, tmp_path):
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", "1000", "--reps", "1", "--window", "1,2,3",
                   "--out", str(tmp_path / "x")) == 2

    @pytest.mark.filterwarnings("error")
    def test_infinite_window_bound_is_bad_window(self, tmp_path, capsys):
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", "1000", "--reps", "1", "--window", "1,inf,0,4",
                   "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == ("tailscope: config error: bad window '1,inf,0,4'; "
                                           "expected x0,x1,y0,y1\n")
        assert not (tmp_path / "x").exists()

    def test_cloud_missing_the_window_reads_the_diagonal(self, tmp_path, capsys):
        # at seed 36, replicate 3's n = 1000 cloud lies above the window's top:
        # X_(1) is 24.6 X_(k), so every point with x <= 3 has y near 7
        out = tmp_path / "c"
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", "1000,10000", "--reps", "4", "--seed", "36",
                   "--out", str(out)) == 0
        rows = np.loadtxt(out / "distances.csv", delimiter=",", skiprows=1)
        assert rows.shape == (8, 3)
        window = ts.default_window("positive")
        grid = ts.discretize(ts.limit_set("positive", 0.5), window, 512)
        model = parse_model("pareto:2")
        cells = randset._cells(model, (1000, 10000), 4, ts.RandomSeed(36), ts.default_k)
        for (r, j, k, sample), (rep, n, d) in zip(cells, rows):
            assert (rep, n) == (r, (1000, 10000)[j])
            if (r, j) == (3, 0):
                assert d == math.sqrt(20.0) == window.diag
            else:
                cloud = randset._CASES["positive"].normalize(sample, k)
                assert d == ts.hausdorff_window(cloud, grid, window)
        assert "; 1 of 8 cells missed the window" in capsys.readouterr().out
        assert "missed" not in (out / "manifest.txt").read_text()


class TestAnalyze:
    def test_smoke_outputs(self, tmp_path):
        src = write_composite_csv(
            tmp_path / "series.csv", 6, [0.5, -0.3], ts.Exponential(1), ts.RandomSeed(6)
        )
        out = tmp_path / "a"
        assert run("analyze", "--input", str(src), "--p-max", "5",
                   "--out", str(out)) == 0
        for name in ("profile.csv", "residuals.csv", "acf.csv", "residual_me.csv",
                     "residual_me.svg", "ar.txt", "summary.txt", "manifest.txt"):
            assert (out / name).exists(), name
        ar = dict(
            line.split("=", 1) for line in (out / "ar.txt").read_text().splitlines()
        )
        order = int(ar["order"])
        assert 0 <= order <= 5
        assert len([k for k in ar if k.startswith("aic_")]) == 6
        rho = np.loadtxt(out / "acf.csv", delimiter=",", skiprows=1)
        assert rho[0, 1] == pytest.approx(1.0)
        summary = (out / "summary.txt").read_text()
        assert "xi_hat_me=" in summary and "hill=" in summary

    def test_recovers_composite_ground_truth(self, tmp_path):
        # long record: AR order/coefficients and the residual tail shape of
        # a seasonal x AR(2) x centered-Pareto(2.5) composite come back
        src = write_composite_csv(
            tmp_path / "series.csv", 800, [0.5, -0.3], ts.Pareto(2.5),
            ts.RandomSeed(1, 540)
        )
        out = tmp_path / "a"
        assert run("analyze", "--input", str(src), "--p-max", "3",
                   "--out", str(out)) == 0
        ar = dict(
            line.split("=", 1) for line in (out / "ar.txt").read_text().splitlines()
        )
        assert int(ar["order"]) >= 2
        coef = [float(c) for c in ar["coefficients"].split(",")]
        assert coef[0] == pytest.approx(0.5, abs=0.05)
        assert coef[1] == pytest.approx(-0.3, abs=0.05)
        summary = dict(
            line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        assert float(summary["xi_hat_me"]) == pytest.approx(0.4, abs=0.1)

    def test_white_noise_fits_order_zero(self, tmp_path):
        src = tmp_path / "white.csv"
        days = np.arange(np.datetime64("1999-01-01"), np.datetime64("2004-01-01"))
        values = np.random.default_rng(3).normal(size=days.size).tolist()
        src.write_text("date,value\n" + "".join(
            f"{d},{v!r}\n" for d, v in zip(days.astype(str), values)))
        out = tmp_path / "a"
        assert run("analyze", "--input", str(src), "--p-max", "3", "--out", str(out)) == 0
        ar = (out / "ar.txt").read_text().splitlines()
        assert ar[:2] == ["order=0", "coefficients="]
        assert "ar_order=0" in (out / "summary.txt").read_text()

    def test_trim_names_the_rows_of_the_residual_plot(self, tmp_path):
        # each calendar day holds 0, 1 and 10 over the three years, so the
        # largest residuals tie and the plot's rows start past the default trim
        days = np.arange(np.datetime64("2001-01-01"), np.datetime64("2004-01-01"))
        rng = np.random.default_rng(0)
        values = np.stack([rng.permutation([0.0, 1.0, 10.0]) for _ in range(365)], 1).ravel()
        src = tmp_path / "tied.csv"
        src.write_text("date,value\n" + "".join(
            f"{d},{v!r}\n" for d, v in zip(days.astype(str), values.tolist())))
        out, me = tmp_path / "a", tmp_path / "me"
        assert run("analyze", "--input", str(src), "--out", str(out)) == 0
        assert run("meplot", "--input", str(out / "residuals.csv"), "--out", str(me)) == 0

        def trim(path):
            manifest = dict(line.split("=", 1) for line in path.read_text().splitlines())
            return manifest["trim"]

        lo, hi = (int(v) for v in trim(out / "manifest.txt").split(":"))
        rows = len((out / "residual_me.csv").read_text().splitlines()) - 1
        assert lo > ts.default_trim(hi)[0]
        assert lo == hi - rows + 1
        assert trim(me / "manifest.txt") == f"{lo}:{hi}"

    def test_gappy_series_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "gap.csv"
        lines = ["date,value"]
        day = np.datetime64("2001-01-01")
        rng = np.random.default_rng(8)
        for i in range(400):
            if i != 100:  # drop one day
                lines.append(f"{day + i},{rng.normal():.6f}")
        src.write_text("\n".join(lines) + "\n")
        assert run("analyze", "--input", str(src), "--out", str(tmp_path / "x")) == 3
        assert "missing day" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_duplicate_date_is_io_error_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "dup.csv"
        days = np.arange(np.datetime64("2001-01-01"), np.datetime64("2002-01-01")).astype(str)
        rows = [f"{d},{v:.6f}" for d, v in zip(days, np.random.default_rng(9).normal(size=days.size))]
        src.write_text("date,value\n" + "\n".join(rows + [rows[200]]) + "\n")
        out = tmp_path / "x"
        assert run("analyze", "--input", str(src), "--out", str(out)) == 4
        assert "duplicate date 2001-07-20" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert run("analyze", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "x")) == 4
        assert "i/o error" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_model_is_config_error(self, tmp_path, capsys):
        assert run("simulate", "--model", "weibull:1", "--n", "10",
                   "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_required_option(self, tmp_path):
        assert run("simulate", "--n", "10", "--out", str(tmp_path)) == 2

    def test_bad_format(self, tmp_path):
        assert run("meplot", "--model", "exp", "--n", "10", "--format", "png",
                   "--out", str(tmp_path)) == 2

    def test_version_exits_zero(self, capsys):
        assert run("--version") == 0
        assert "tailscope" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run() == 2
        capsys.readouterr()


class TestSvgPlot:
    def test_deterministic_bytes(self, tmp_path):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        line = np.array([[0.0, 0.0], [2.0, 2.0]])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            render_plot(path, [Series(pts, "scatter"), Series(line, "line")],
                        title="t", xlabel="x", ylabel="y", annotations=["note"])
        assert a.read_bytes() == b.read_bytes()

    def test_structure(self, tmp_path):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        path = tmp_path / "p.svg"
        render_plot(path, [Series(pts, "scatter"), Series(line, "line")],
                    title="demo", annotations=["alpha"])
        groups = series_groups(path)
        assert len(groups) == 2
        circles = groups[0].findall(f"{SVG}circle")
        assert len(circles) == 3
        poly = groups[1].findall(f"{SVG}polyline")
        assert len(poly) == 1
        assert len(poly[0].get("points").split()) == 3
        text = path.read_text()
        assert "demo" in text and "alpha" in text

    def test_non_finite_points_dropped(self, tmp_path):
        pts = np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, np.inf], [2.0, 2.0]])
        path = tmp_path / "p.svg"
        render_plot(path, [Series(pts, "scatter")])
        assert len(series_groups(path)[0].findall(f"{SVG}circle")) == 2
