"""Tests of the benchmark itself: each check passes on the program's output
and fails on a deliberately corrupted copy, and the traced run reaches every
wrapped function.

Run with: python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import traced_cli  # noqa: E402
import workloads  # noqa: E402
from tailscope import cli  # noqa: E402


def tailscope(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory):
    """simulate, meplot and estimate on a 3000-point Pareto(2) sample."""
    root = tmp_path_factory.mktemp("sample")
    sample = root / "sim" / "sample.csv"
    assert tailscope("simulate", "--model", "pareto:2", "--n", 3000, "--seed", 5, "--out", root / "sim") == 0
    assert tailscope("meplot", "--input", sample, "--out", root / "me") == 0
    assert tailscope("estimate", "--input", sample, "--out", root / "est") == 0
    return root, np.sort(checks.read_values(sample))[::-1]


def corrupt(src: Path, dst: Path, edit) -> Path:
    shutil.copytree(src, dst)
    edit(dst)
    return dst


def edit_csv_row(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_me_plot_check_catches_one_perturbed_row(sample_run, tmp_path):
    root, desc = sample_run
    assert checks.check_me_plot(desc, root / "me") == []
    for row in (0, 1234, 2984):
        bad = corrupt(root / "me", tmp_path / f"y{row}",
                      lambda d: edit_csv_row(d / "me_plot.csv", row, 1, lambda v: v * (1 + 1e-7)))
        assert checks.check_me_plot(desc, bad), row
    bad = corrupt(root / "me", tmp_path / "x", lambda d: edit_csv_row(d / "me_plot.csv", 77, 0, lambda v: v * 1.001))
    assert any("thresholds" in p for p in checks.check_me_plot(desc, bad))


def test_me_plot_check_catches_a_wrong_fit(sample_run, tmp_path):
    root, desc = sample_run

    def bump_slope(d):
        text = (d / "summary.txt").read_text().splitlines()
        text = [f"slope={float(t[6:]) * (1 + 1e-6)!r}" if t.startswith("slope=") else t for t in text]
        (d / "summary.txt").write_text("\n".join(text) + "\n")

    assert any("slope" in p for p in checks.check_me_plot(desc, corrupt(root / "me", tmp_path / "s", bump_slope)))


def test_trace_check_catches_swapped_columns(sample_run, tmp_path):
    root, desc = sample_run
    assert checks.check_traces(desc, root / "est") == []

    def swap(d):
        hill, moment = (d / "hill_trace.csv").read_text(), (d / "moment_trace.csv").read_text()
        (d / "hill_trace.csv").write_text(moment)
        (d / "moment_trace.csv").write_text(hill)

    assert checks.check_traces(desc, corrupt(root / "est", tmp_path / "swap", swap))

    def swap_m_value(d):
        lines = (d / "hill_trace.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        (d / "hill_trace.csv").write_text("value,m\n" + "\n".join(f"{v},{m}" for m, v in rows) + "\n")

    assert checks.check_traces(desc, corrupt(root / "est", tmp_path / "mv", swap_m_value))
    one = corrupt(root / "est", tmp_path / "one",
                  lambda d: edit_csv_row(d / "moment_trace.csv", 2000, 1, lambda v: v + 1e-6))
    assert checks.check_traces(desc, one)


def test_pareto2_fit_check(sample_run, tmp_path):
    root, desc = sample_run
    big = np.sort((1.0 - np.random.default_rng(3).random(200_000)) ** -0.5)[::-1]
    summary = tmp_path / "summary.txt"
    summary.write_text("xi_hat=0.5\n")
    assert checks.check_pareto2_fit(big, summary) == []
    summary.write_text("xi_hat=0.40\n")
    assert checks.check_pareto2_fit(big, summary)
    heavier = np.sort((1.0 - np.random.default_rng(3).random(200_000)) ** (-1 / 1.8))[::-1]
    summary.write_text("xi_hat=0.5\n")
    assert any("KS" in p for p in checks.check_pareto2_fit(heavier, summary))


def test_svg_check(sample_run, tmp_path):
    root, _ = sample_run
    svg = root / "me" / "me_plot.svg"
    assert checks.check_svg(svg) == []
    text = svg.read_text()
    (tmp_path / "cut.svg").write_text(text[: len(text) // 2])
    assert any("not XML" in p for p in checks.check_svg(tmp_path / "cut.svg"))
    first = text.index('<circle cx="') + len('<circle cx="')
    (tmp_path / "off.svg").write_text(text[:first] + "700.00" + text[text.index('"', first):])
    assert any("off the canvas" in p for p in checks.check_svg(tmp_path / "off.svg"))


def write_distances(d: Path, rows, window="1,3,0,4") -> Path:
    d.mkdir(parents=True)
    (d / "manifest.txt").write_text(f"window={window}\n")
    (d / "distances.csv").write_text("rep,n,distance\n" + "".join(f"{r},{n},{v!r}\n" for r, n, v in rows))
    return d


def test_distance_checks(tmp_path):
    good = [(r, n, 0.5 / (1 + j)) for r in range(3) for j, n in enumerate((10, 100))]
    assert checks.check_distances(write_distances(tmp_path / "ok", good), (10, 100), 3, True) == []
    outside = [(r, n, 5.0 if (r, n) == (1, 100) else v) for r, n, v in good]
    assert checks.check_distances(write_distances(tmp_path / "out", outside), (10, 100), 3, True)
    nan = [(r, n, float("nan") if (r, n) == (0, 10) else v) for r, n, v in good]
    assert checks.check_distances(write_distances(tmp_path / "nan", nan), (10, 100), 3, True)
    flat = [(r, n, 0.3) for r, n, _ in good]
    assert checks.check_distances(write_distances(tmp_path / "flat", flat), (10, 100), 3, True)
    assert checks.check_distances(write_distances(tmp_path / "flat2", flat), (10, 100), 3, False) == []


def test_brute_hausdorff_against_hand_values(tmp_path):
    a = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]])
    b = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 3.0]])
    # [9, 9] lies outside the window; [1, 3] is 3 from its nearest point [1, 0]
    assert checks.brute_hausdorff(a, b, (0.0, 2.0, 0.0, 4.0)) == pytest.approx(3.0)
    np.savez(tmp_path / "h.npz", a0=a, b0=b, w0=np.array([0.0, 2.0, 0.0, 4.0]), d0=np.array(3.0),
             a1=a, b1=b, w1=np.array([0.0, 2.0, 0.0, 4.0]), d1=np.array(1.0))
    calls, problems = checks.check_hausdorff_calls(tmp_path / "h.npz")
    assert calls == 2 and len(problems) == 1 and "call 1" in problems[0]


@pytest.fixture(scope="module")
def daily_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("daily")
    daily = root / "daily.csv"
    workloads.write_daily(daily, *workloads.daily_series(10, 9))
    assert tailscope("analyze", "--input", daily, "--out", root / "az") == 0
    return root, daily


def test_profile_and_ar_checks(daily_run, tmp_path):
    root, daily = daily_run
    assert checks.check_profile(daily, root / "az" / "profile.csv") == []
    assert checks.check_ar(root / "az" / "ar.txt", 0.15) == []
    bad = corrupt(root / "az", tmp_path / "p", lambda d: edit_csv_row(d / "profile.csv", 59, 2, lambda v: v * (1 + 1e-8)))
    assert checks.check_profile(daily, bad / "profile.csv")

    def wrong_order(d):
        text = (d / "ar.txt").read_text().splitlines()
        (d / "ar.txt").write_text("\n".join("order=1" if t.startswith("order=") else t for t in text) + "\n")

    assert checks.check_ar(corrupt(root / "az", tmp_path / "o", wrong_order) / "ar.txt", 0.15)

    def flip_sign(d):
        text = (d / "ar.txt").read_text().splitlines()
        text = [("coefficients=" + ",".join(repr(-float(c)) for c in t[13:].split(",")))
                if t.startswith("coefficients=") else t for t in text]
        (d / "ar.txt").write_text("\n".join(text) + "\n")

    assert checks.check_ar(corrupt(root / "az", tmp_path / "f", flip_sign) / "ar.txt", 0.15)


def test_rejection_check(daily_run, tmp_path):
    _, daily = daily_run
    dup = tmp_path / "dup.csv"
    date = workloads.write_daily(dup, *workloads.daily_series(10, 9), dup_row=2000)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", "--input", str(dup), "--out", str(tmp_path / "az")])
    assert checks.check_rejected(code, err.getvalue(), date) == []
    # a duplicate that is not rejected, or rejected naming another date
    assert checks.check_rejected(0, "", date)
    assert checks.check_rejected(4, "tailscope: i/o error: duplicate date 1999-01-01", date)


def test_daily_input_has_the_generator_structure():
    dates, values = workloads.daily_series(200, 1)
    assert dates.size == 73_048 and str(dates[0]) == "2001-01-01"
    assert np.all(np.diff(dates).astype(int) == 1)
    assert workloads.DUP_ROW > dates.size // 2


def test_traced_round_reaches_every_wrapped_function(tmp_path):
    """cli-small under traced_cli.py: outputs pass every check, every
    hausdorff_window result matches brute force, and every target left a span."""
    facts = workloads.make_inputs("cli-small", 3, tmp_path / "inputs")
    rnd = run.run_round("cli-small", 3, facts, tmp_path / "round", perf_counter() + 170, traced=True)
    assert {name: p for name, p in rnd["problems"].items() if p} == {}
    assert [p for r in rnd["results"] for p in run.check_result(r, content=True)] == []
    reached = set()
    for f in sorted((tmp_path / "round" / "spans").glob("*.json")):
        reached |= {span[0] for span in json.loads(f.read_text())["spans"]}
    assert {name for _, _, name in traced_cli.TARGETS} <= reached
    assert list((tmp_path / "round" / "spans").glob("*.npz"))
    layers = rnd["layers"]
    for name, _, _ in run.PER_LAYER:
        if not name.startswith("cmd.") and name != "trace.overhead_s":
            assert name in layers, name
    assert 0 < layers["randset.used_per_drawn"] < 1
    assert 0 < layers["svgplot.distinct_per_mark"] <= 1
