import codecs
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import tailscope as ts
from tailscope import randset, tabular
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

    def test_config_format_does_not_apply(self, tmp_path):
        # simulate takes no --format: a format key in its config file is not
        # read, and the sample is always CSV
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=svg\n")
        out = tmp_path / "s"
        assert run("simulate", "--config", str(cfg), "--model", "pareto:2", "--n", "10",
                   "--out", str(out)) == 0
        assert set(os.listdir(out)) == {"sample.csv", "manifest.txt"}

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

    def test_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"model=pareto:2\n# caf\xe9\n")
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--n", "10", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tailscope: config error: cannot read config {cfg}: ")
        assert err.endswith(": not utf-8 text (byte 0xe9)\n")
        assert not out.exists()

    def test_a_leading_byte_order_mark_keeps_the_first_key(self, tmp_path):
        # as a spreadsheet program or a Windows editor saves it
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(codecs.BOM_UTF8 + b"seed=42\r\nmodel=pareto:2\r\nn=100\r\n")
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert "seed=42" in (out / "manifest.txt").read_text().splitlines()


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
                   "--trim", "90:500", "--out", str(tmp_path / "x")) == 3
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


    @pytest.mark.parametrize("j", [510, -565])
    def test_reading_is_the_same_at_any_power_of_two_scale(self, tmp_path, j):
        # the least squares fit scales its deviations by powers of two: their
        # raw squares overflow at 2^510 (xi_hat=nan) and vanish at 2^-565
        # ("all abscissae coincide")
        x = ts.Pareto(2).sample(2000, ts.RandomSeed(8))

        def reading(values, name):
            src = tmp_path / f"{name}.csv"
            src.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
            assert run("meplot", "--input", str(src), "--format", "csv",
                       "--out", str(tmp_path / name)) == 0
            lines = (tmp_path / name / "summary.txt").read_text().splitlines()
            return [ln for ln in lines if ln.startswith(("slope=", "xi_hat="))]

        assert reading(x * 2.0**j, "scaled") == reading(x, "plain")


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


@pytest.mark.parametrize("command, flags, message", [
    ("meplot", ["--format", "pdf"], "format must list csv and/or svg, got 'pdf'"),
    ("estimate", ["--format", "pdf"], "format must list csv and/or svg, got 'pdf'"),
    ("analyze", ["--format", "pdf"], "format must list csv and/or svg, got 'pdf'"),
    ("meplot", ["--trim", "a:b"], "bad trim 'a:b'; expected imin:imax"),
], ids=["meplot-format", "estimate-format", "analyze-format", "meplot-trim"])
def test_config_error_is_reported_before_the_input(tmp_path, capsys, command, flags, message):
    # a missing input is not reached: the run is a config error, not an i/o error
    out = tmp_path / "x"
    assert run(command, "--input", str(tmp_path / "nope.csv"), *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"tailscope: config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("estimate", ["--m", "0"], "m must be positive, got 0"),
    ("analyze", ["--m", "-3"], "m must be positive, got -3"),
    ("estimate", ["--m", "x"], "bad m 'x'"),
    ("meplot", ["--trim", "1:"], "bad trim '1:'; need 2 <= imin <= imax"),
    ("meplot", ["--trim", "5:2"], "bad trim '5:2'; need 2 <= imin <= imax"),
    ("meplot", ["--trim", ":1"], "bad trim ':1'; need 2 <= imin <= imax"),
], ids=["estimate-m0", "analyze-m-negative", "estimate-m-not-int", "meplot-trim-imin1",
        "meplot-trim-reversed", "meplot-trim-imax1"])
def test_a_setting_no_sample_admits_is_a_config_error(tmp_path, capsys, command, flags,
                                                      message):
    # refused by the option's type, before the input is read or a sample drawn
    out = tmp_path / "x"
    assert run(command, "--input", str(tmp_path / "nope.csv"), *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"tailscope: config error: {message}\n"
    assert not out.exists()
    if command != "analyze":
        assert run(command, "--model", "pareto:2", "--n", "100", *flags,
                   "--out", str(out)) == 2
        assert not out.exists()


@pytest.mark.parametrize("command, text, byte", [
    ("meplot", b"value\n1.5\n2.\xff5\n", "0xff"),
    ("estimate", b"value\n1.5\n2.\xff5\n", "0xff"),
    ("analyze", b"date,value\n2001-01-01,1.5\n2001-01-02,caf\xe9\n", "0xe9"),
])
def test_input_that_is_not_utf8_is_an_io_error(tmp_path, capsys, command, text, byte):
    src = tmp_path / "in.csv"
    src.write_bytes(text)
    out = tmp_path / "x"
    assert run(command, "--input", str(src), "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err == f"tailscope: i/o error: {src}: not utf-8 text (byte {byte})\n"
    assert not out.exists()


def test_a_bad_header_is_reported_before_a_later_undecodable_byte(tmp_path, capsys):
    # past the first 8 KB block of text, so not yet decoded when the header is read
    src = tmp_path / "in.csv"
    src.write_bytes(b"day,value\n" + b"2001-01-01,1.5\n" * 1000 + b"2003-09-28,caf\xe9\n")
    out = tmp_path / "x"
    assert run("analyze", "--input", str(src), "--out", str(out)) == 4
    assert capsys.readouterr().err == f"tailscope: i/o error: {src}: missing column 'date'\n"
    assert not out.exists()


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["plain", "crlf"])
@pytest.mark.parametrize("command", ["meplot", "analyze"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, daily_csv, command, newline):
    # spreadsheet programs start "CSV UTF-8" files with one; CRLF samples stay plain
    if command == "meplot":
        x = ts.Pareto(2).sample(500, ts.RandomSeed(4))
        text = "value\n" + "".join(f"{v:.17g}\n" for v in x)
    else:
        text = daily_csv.read_text()
    text = text.replace("\n", newline).encode()
    outs = []
    for name, data in (("plain", text), ("bom", codecs.BOM_UTF8 + text)):
        (tmp_path / f"{name}.csv").write_bytes(data)
        outs.append(tmp_path / name)
        assert run(command, "--input", str(tmp_path / f"{name}.csv"), "--out", str(outs[-1])) == 0
    # the manifests name their input files
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.txt")
    assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.txt")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_analyze_writes_the_same_files_for_crlf_and_lf_copies(tmp_path, daily_csv):
    # the line ends change no output; the manifests name their input files
    outs = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        src = tmp_path / f"{name}.csv"
        src.write_bytes(daily_csv.read_text().replace("\n", newline).encode())
        outs.append(tmp_path / name)
        assert run("analyze", "--input", str(src), "--out", str(outs[-1])) == 0
    lf, crlf = (outputs(out) for out in outs)
    assert sorted(lf) == sorted(crlf) and "manifest.txt" in lf
    for name in lf:
        a, b = lf[name], crlf[name]
        if name == "manifest.txt":
            a, b = ([ln for ln in m.splitlines() if not ln.startswith(b"input=")] for m in (a, b))
        assert a == b, name


# per command: the .csv files, the .svg files and the .txt files it writes
OUTPUTS = {
    "meplot": ({"me_plot.csv"}, {"me_plot.svg"}, {"summary.txt", "manifest.txt"}),
    "estimate": ({"hill_trace.csv", "pickands_trace.csv", "moment_trace.csv", "qq_pos.csv"},
                 {"traces.svg", "qq_pos.svg"}, {"summary.txt", "manifest.txt"}),
    "converge": ({"distances.csv"}, {"convergence.svg"}, {"manifest.txt"}),
    "analyze": ({"profile.csv", "residuals.csv", "acf.csv", "residual_me.csv"},
                {"residual_me.svg"}, {"ar.txt", "summary.txt", "manifest.txt"}),
}


@pytest.fixture(scope="module")
def daily_csv(tmp_path_factory):
    return write_composite_csv(tmp_path_factory.mktemp("daily") / "series.csv", 3,
                               [0.5], ts.Exponential(1), ts.RandomSeed(2))


@pytest.mark.parametrize("fmt", ["csv", "svg", "csv,svg"])
@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_each_command_writes_exactly_the_files_its_formats_ask_for(tmp_path, daily_csv,
                                                                     command, fmt):
    args = {
        "meplot": ["--model", "pareto:2", "--n", "500", "--seed", "1"],
        "estimate": ["--model", "pareto:2", "--n", "500", "--seed", "1"],
        "converge": ["--model", "pareto:2", "--case", "positive", "--n-grid", "1000",
                     "--reps", "1", "--seed", "1"],
        "analyze": ["--input", str(daily_csv), "--p-max", "2"],
    }[command]
    out = tmp_path / "out"
    assert run(command, *args, "--format", fmt, "--out", str(out)) == 0
    csv, svg, txt = OUTPUTS[command]
    expected = txt | (csv if "csv" in fmt else set()) | (svg if "svg" in fmt else set())
    assert set(os.listdir(out)) == expected


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

    @pytest.mark.parametrize("model, case", [
        ("pareto:2", "positive"), ("beta:2,2", "negative"), ("exp:1", "zero"),
    ])
    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path, capsys, monkeypatch,
                                                      model, case):
        monkeypatch.setattr(randset, "_POOLED", 0)  # the pool, however small the grid
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tabular, "_workers", lambda: workers)
            out = tmp_path / str(workers)
            assert run("converge", "--model", model, "--case", case, "--n-grid",
                       "1000,10000,100000", "--reps", "3", "--seed", "9",
                       "--out", str(out)) == 0
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            runs.append((capsys.readouterr().out, files))
        assert sorted(runs[0][1]) == ["convergence.svg", "distances.csv", "manifest.txt"]
        assert runs[0] == runs[1] == runs[2]

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

    @pytest.mark.parametrize("raw, why", [
        ("1,0,0,1", ": window must have positive extent"),
        ("1,2", "; expected x0,x1,y0,y1"),
        ("a,b,c,d", "; expected x0,x1,y0,y1"),
    ])
    def test_bad_window_says_why(self, tmp_path, capsys, raw, why):
        # four floats that Window refuses carry its reason; other text, the format
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", "1000", "--reps", "1", "--window", raw,
                   "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"tailscope: config error: bad window {raw!r}{why}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.filterwarnings("error")
    def test_infinite_window_bound_is_bad_window(self, tmp_path, capsys):
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", "1000", "--reps", "1", "--window", "1,inf,0,4",
                   "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == ("tailscope: config error: bad window '1,inf,0,4': "
                                           "window bounds must be finite\n")
        assert not (tmp_path / "x").exists()

    def test_overflowing_window_is_bad_window(self, tmp_path, capsys):
        # the width is not a double: no diagonal to measure against
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", "1000", "--reps", "1", "--window=-1e308,1e308,1e5,1e6",
                   "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == ("tailscope: config error: bad window "
                                           "'-1e308,1e308,1e5,1e6': window extent must be finite\n")
        assert not (tmp_path / "x").exists()

    def test_window_whose_squared_diagonal_overflows_is_bad_window(self, tmp_path, capsys):
        # a finite diagonal is not enough: squared distances inside the
        # window must be doubles too
        assert run("converge", "--model", "pareto:2", "--case", "positive",
                   "--n-grid", "1000", "--reps", "1", "--window=0,1e154,0,1e154",
                   "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == ("tailscope: config error: bad window "
                                           "'0,1e154,0,1e154': window extent must be finite\n")
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
        for (r, j, k, draw), (rep, n, d) in zip(cells, rows):
            assert (rep, n) == (r, (1000, 10000)[j])
            if (r, j) == (3, 0):
                assert d == math.sqrt(20.0) == window.diag
            else:
                cloud = randset._CASES["positive"].normalize(draw(), k)
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

    @pytest.mark.parametrize("j", [520, -560])
    def test_outputs_are_the_same_at_any_power_of_two_scale(self, tmp_path, j):
        # each calendar day's std and the AR fit square their values only after
        # power-of-two scaling: raw, they overflowed at 2^520 ("series has zero
        # variance") and vanished at 2^-560 ("calendar day 01-01 has zero spread")
        comp = ts.synthetic_composite(6, (0.5, -0.3), ts.Pareto(5), ts.RandomSeed(11, 77))

        def analyze(values, name):
            src = tmp_path / f"{name}.csv"
            src.write_text("date,value\n" + "".join(
                f"{d},{v!r}\n" for d, v in zip(comp.dates.astype(str), values.tolist())))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run("analyze", "--input", str(src), "--out", str(tmp_path / name)) == 0
            return tmp_path / name

        plain, scaled = analyze(comp.values, "plain"), analyze(comp.values * 2.0**j, "scaled")
        for name in ("ar.txt", "summary.txt", "residuals.csv", "acf.csv", "residual_me.csv"):
            assert (scaled / name).read_bytes() == (plain / name).read_bytes(), name
        profile = [np.loadtxt(d / "profile.csv", delimiter=",", skiprows=1)
                   for d in (plain, scaled)]
        assert np.array_equal(profile[1][:, -1], np.ldexp(profile[0][:, -1], j))
        assert np.array_equal(profile[1][:, :-1], profile[0][:, :-1])

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


def test_meplot_of_values_closer_than_their_ulp_exits(tmp_path):
    # the x span is below the ulp of 1e16, so a tick step does not move the
    # tick; run in its own process so that a hang fails on the timeout
    values = [10**16 + 2 * i for i in range(5)]
    (tmp_path / "big.csv").write_text("value\n" + "".join(f"{v}\n" for v in values))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "tailscope.cli", "meplot", "--input", "big.csv", "--out", "o"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ticks = ET.parse(tmp_path / "o" / "me_plot.svg").getroot().find(f"{SVG}g[@class='ticks']")
    assert [t.text for t in ticks.iter(f"{SVG}text")][0] == "1e+16"


# the flags each command below runs with, besides the option under test
BASE_FLAGS = {
    "simulate": {"model": "pareto:2", "n": "200", "seed": "1"},
    "meplot": {"model": "pareto:2", "n": "500", "seed": "1"},
    "estimate": {"model": "pareto:2", "n": "500", "seed": "1"},
    "converge": {"model": "pareto:2", "case": "positive", "n-grid": "1000", "reps": "1",
                 "seed": "1"},
    "analyze": {"p-max": "2"},
}


def daily_variant(path, daily_csv, flag, value):
    """daily_csv with the date column, the value column or the date format that
    --flag value names."""
    header, *rows = daily_csv.read_text().splitlines()
    if flag == "date-col":
        header = f"{value},value"
    elif flag == "value-col":
        header = f"date,{value}"
    elif flag == "date-format":  # only %d.%m.%Y is used
        rows = [f"{r[8:10]}.{r[5:7]}.{r[:4]}{r[10:]}" for r in rows]
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def outputs(out):
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}


@pytest.mark.parametrize("command, key, value", [
    ("meplot", "trim", "10:400"),
    ("estimate", "m", "37"),
    ("estimate", "stride", "3"),
    ("converge", "n-grid", "1000,2000"),
    ("converge", "reps", "2"),
    ("converge", "k", "0.6"),
    ("converge", "window", "1,2.5,0,3"),
    ("converge", "resolution", "64"),
    ("simulate", "stream", "3"),
    ("analyze", "p_max", "1"),
    ("analyze", "date-col", "day"),
    ("analyze", "value_col", "level"),
    ("analyze", "date_format", "%d.%m.%Y"),
])
def test_config_key_gives_the_bytes_of_its_flag(tmp_path, daily_csv, command, key, value):
    # argparse converts the file's value with the flag's type, whichever of -
    # and _ the key is written with
    flag = key.replace("_", "-")
    base = {k: v for k, v in BASE_FLAGS[command].items() if k != flag}
    if command == "analyze":
        base["input"] = str(daily_variant(tmp_path / "in.csv", daily_csv, flag, value))
    argv = [command, *(tok for k, v in base.items() for tok in (f"--{k}", v))]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# {flag}\n{key}={value}\n")
    via_flag, via_cfg, neither = tmp_path / "flag", tmp_path / "cfg", tmp_path / "neither"
    assert run(*argv, f"--{flag}", value, "--out", str(via_flag)) == 0
    assert run(*argv, "--config", str(cfg), "--out", str(via_cfg)) == 0
    assert outputs(via_cfg) == outputs(via_flag)
    # the option is read: without it the run fails or writes other bytes
    assert run(*argv, "--out", str(neither)) != 0 or outputs(neither) != outputs(via_flag)


def test_config_keys_of_other_subcommands_and_command_are_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=converge\ntrim=a:b\nwindow=1,2\np_max=-1\nstride=0\ncase=sideways\n")
    argv = ["simulate", "--model", "pareto:2", "--n", "50", "--seed", "4"]
    plain, via_cfg = tmp_path / "plain", tmp_path / "cfg"
    assert run(*argv, "--out", str(plain)) == 0
    assert run(*argv, "--config", str(cfg), "--out", str(via_cfg)) == 0
    assert outputs(via_cfg) == outputs(plain)


BAD_CONFIG_LINES = [
    ("simulate", "n=x", "error: argument --n: invalid int value: 'x'"),
    ("converge", "reps=two", "error: argument --reps: invalid int value: 'two'"),
    ("estimate", "stride=1.5", "error: argument --stride: invalid int value: '1.5'"),
    ("converge", "k=big", "error: argument --k: invalid float value: 'big'"),
    ("meplot", "trim=a:b", "config error: bad trim 'a:b'; expected imin:imax"),
    ("converge", "window=1,2", "config error: bad window '1,2'; expected x0,x1,y0,y1"),
    ("converge", "n-grid=1000,x", "config error: bad n-grid '1000,x'"),
    ("analyze", "format=pdf", "config error: format must list csv and/or svg, got 'pdf'"),
    ("analyze", "p-max=-1", "config error: p_max must be nonnegative, got -1"),
]


@pytest.mark.parametrize("command, line, message", BAD_CONFIG_LINES,
                         ids=[line for _, line, _ in BAD_CONFIG_LINES])
def test_bad_value_in_config_file_is_config_error(tmp_path, daily_csv, capsys, command, line,
                                                 message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    base = {k: v for k, v in BASE_FLAGS[command].items() if k != line.partition("=")[0]}
    if command == "analyze":
        base["input"] = str(daily_csv)
    out = tmp_path / "x"
    assert run(command, *(tok for k, v in base.items() for tok in (f"--{k}", v)),
               "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.endswith(f"{message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("converge", ["--n-grid", "0"], "n-grid sizes must be positive, got '0'"),
    ("converge", ["--n-grid", "1000,-5"], "n-grid sizes must be positive, got '1000,-5'"),
    ("analyze", ["--p-max", "-1"], "p_max must be nonnegative, got -1"),
    ("analyze", ["--p-max", "ten"], "bad p-max 'ten'"),
])
def test_out_of_range_size_or_order_is_config_error_before_the_input(tmp_path, capsys, command,
                                                                     flags, message):
    # exit 2 like --n 0 or --stride 0, not the library's data error (exit 3);
    # analyze's missing input is not reached
    out = tmp_path / "x"
    argv = (["--model", "pareto:2", "--case", "positive", "--reps", "1"] if command == "converge"
            else ["--input", str(tmp_path / "nope.csv")])
    assert run(command, *argv, *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"tailscope: config error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# every option a command takes does something


@pytest.mark.parametrize("flags", [["--seed", "5"], ["--stream", "2"]], ids=lambda f: f[0])
def test_analyze_takes_no_seed_or_stream(tmp_path, daily_csv, capsys, flags):
    # analyze draws nothing; argparse refuses the flag before the input is read
    out = tmp_path / "x"
    assert run("analyze", "--input", str(daily_csv), *flags, "--out", str(out)) == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_ignores_seed_and_stream_config_keys(tmp_path, daily_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\nstream=2\n")
    argv = ["analyze", "--input", str(daily_csv), "--p-max", "2"]
    plain, via_cfg = tmp_path / "plain", tmp_path / "cfg"
    assert run(*argv, "--out", str(plain)) == 0
    assert run(*argv, "--config", str(cfg), "--out", str(via_cfg)) == 0
    assert outputs(via_cfg) == outputs(plain)


@pytest.mark.parametrize("given, named", [
    (["--model", "pareto:2"], "--model"),
    (["--n", "500"], "--n"),
    (["--seed", "3"], "--seed"),
    (["--stream", "0"], "--stream"),
    (["--seed", "3", "--model", "nonsense:9", "--n", "-5"], "--model, --n, --seed"),
])
@pytest.mark.parametrize("command", ["meplot", "estimate"])
def test_input_with_sampling_options_is_config_error_before_the_input(tmp_path, capsys,
                                                                     command, given, named):
    # the input is not reached (it does not exist) and no --out is made
    out = tmp_path / "x"
    assert run(command, "--input", str(tmp_path / "nope.csv"), *given, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"tailscope: config error: --input cannot be combined with {named}, "
        "which choose a sample to draw\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["model=pareto:2", "n=500", "seed=3", "stream=1"])
@pytest.mark.parametrize("command", ["meplot", "estimate"])
def test_input_with_sampling_config_key_is_config_error(tmp_path, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(key + "\n")
    out = tmp_path / "x"
    assert run(command, "--input", str(tmp_path / "nope.csv"), "--config", str(cfg),
               "--out", str(out)) == 2
    named = "--" + key.partition("=")[0]
    assert f"--input cannot be combined with {named}," in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["meplot", "estimate"])
def test_input_with_env_seed_runs_as_without_it(tmp_path, monkeypatch, command):
    src = tmp_path / "in.csv"
    src.write_text("value\n" + "".join(f"{v!r}\n" for v in
                                         ts.Pareto(2).sample(300, ts.RandomSeed(1)).tolist()))
    plain, env = tmp_path / "plain", tmp_path / "env"
    assert run(command, "--input", str(src), "--out", str(plain)) == 0
    monkeypatch.setenv("TAILSCOPE_SEED", "9")
    assert run(command, "--input", str(src), "--out", str(env)) == 0
    assert outputs(env) == outputs(plain)


def test_stream_help_still_names_its_default(capsys):
    assert run("meplot", "--help") == 0
    assert "seed stream (default 0)" in " ".join(capsys.readouterr().out.split())


# ---------------------------------------------------------------------------
# one BLAS thread per command, so the bytes do not depend on the core count

SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(argv, cwd, threads):
    """python -m tailscope.cli argv, with OPENBLAS_NUM_THREADS unset or set to threads."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-m", "tailscope.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["meplot", "analyze"])
def test_bytes_are_those_of_one_blas_thread(tmp_path, command):
    # OpenBLAS splits a dot product of more than 10 000 values across its threads:
    # the ME plot's fit (19 901 rows) and the AR fit on 30 years (10 957 days)
    src = tmp_path / "in.csv"
    if command == "meplot":
        values = ts.Pareto(2).sample(20_000, ts.RandomSeed(5)).tolist()
        src.write_text("value\n" + "".join(f"{v!r}\n" for v in values))
    else:
        write_composite_csv(src, 30, [0.5], ts.Exponential(1), ts.RandomSeed(2))
    for threads in (None, "1"):
        run_process([command, "--input", src.name, "--out", f"out-{threads}"], tmp_path, threads)
    assert outputs(tmp_path / "out-None") == outputs(tmp_path / "out-1")


# ---------------------------------------------------------------------------
# finite in, finite out, with every warning an error


def run_warnings_as_errors(cwd, *argv):
    """python -W error -m tailscope.cli argv in cwd, with --out o."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "tailscope.cli", *argv, "--out", "o"],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)


def assert_finite_outputs(out):
    """Only finite numbers in every CSV and in summary.txt, rss aside."""
    for path in out.glob("*.csv"):
        cells = path.read_text().split("\n", 1)[1].replace("\n", ",").split(",")[:-1]
        assert cells and all(math.isfinite(float(c)) for c in cells), path.name
    for line in (out / "summary.txt").read_text().splitlines():
        if not line.startswith("rss="):
            assert "nan" not in line and "inf" not in line, line


@pytest.mark.parametrize("values", [
    [-1e308, 1e308, 0.0, 5.0],  # a span past the double range
    [1e308 * (1 - i * 1e-3) for i in range(100)],  # sums past it
    [-1.7e308, 1.7e308, 0.0, 5.0],  # a mean excess past it
], ids=["span", "sums", "mean-excess"])
@pytest.mark.parametrize("command", ["meplot", "estimate"])
def test_samples_near_the_double_range_give_finite_numbers(tmp_path, command, values):
    # exit 0 with only finite numbers, rss aside where its true value is past
    # the double range, or exit 3 and say why
    (tmp_path / "big.csv").write_text("value\n" + "".join(f"{v!r}\n" for v in values))
    proc = run_warnings_as_errors(tmp_path, command, "--input", "big.csv")
    if proc.returncode == 3:
        assert proc.stderr.startswith("tailscope: data error: "), proc.stderr
        if command == "meplot":  # the fit names the mean excess past the double range
            assert proc.stderr.endswith(": fit point 3 is not finite: (-1.7e+308, inf)\n")
        assert not (tmp_path / "o").exists()
        return
    assert (proc.returncode, proc.stderr) == (0, "")
    assert_finite_outputs(tmp_path / "o")


@pytest.mark.parametrize("change", ["times 2^1000", "times 2^-1000", "two days at +-1.7e308"])
def test_daily_series_near_the_double_range_give_finite_numbers(tmp_path, change):
    # ten years of seasonal AR(2) with Pareto(5) innovations, as the benchmark draws them
    comp = ts.synthetic_composite(10, (0.5, -0.3), ts.Pareto(5), ts.RandomSeed(1))
    values = comp.values.copy()
    if change == "two days at +-1.7e308":
        values[[1000, 2000]] = 1.7e308, -1.7e308
    else:
        values = np.ldexp(values, 1000 if change == "times 2^1000" else -1000)
    (tmp_path / "daily.csv").write_text(
        "date,value\n" + "".join(f"{d},{v!r}\n" for d, v in zip(comp.dates, values.tolist())))
    proc = run_warnings_as_errors(tmp_path, "analyze", "--input", "daily.csv")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert_finite_outputs(tmp_path / "o")
