"""The package namespace re-exports each module's public names, and only
those; importing it, and running the commands that need only numpy, loads
no scipy module, no command but those on the stable law loads
`scipy.stats`, and none loads `scipy.spatial`."""
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailscope as ts
from tailscope.errors import ParameterError
from tailscope.svgplot import Series, render_plot
from tailscope.tabular import read_csv, write_csv

MODULES = ("dist", "empirics", "errors", "estimators", "pipeline", "randset")


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve_on_package(name):
    module = importlib.import_module(f"tailscope.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert getattr(ts, attr) is getattr(module, attr), f"{name}.{attr}"


def test_deleted_names_are_gone():
    for attr in ("PositiveLine", "NegativeSegment", "ZeroLine", "HeavyCurve", "Xi1Curve",
                 "ks_two_sample", "QuantileDefined", "ShapeScale", "gpd_tail", "gpd_cdf",
                 "gpd_quantile"):
        assert not hasattr(ts, attr), attr
    assert not hasattr(ts.ConvergenceReport, "pass_rate")
    assert not hasattr(ts.InterceptResult, "ks_against_reference")
    assert not hasattr(ts.PointSet2D, "read_csv")


@pytest.mark.parametrize("fn, gone", [
    (read_csv, "width"),
    (render_plot, "size"),
    (Series, "color"),
    (Series, "radius"),
    (ts.synthetic_composite, "burn_in"),
    (write_csv, "formats"),
    (ts.ConvergenceReport, "manifest_version"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_deleted_parameters_are_gone(fn, gone):
    assert gone not in inspect.signature(fn).parameters


def test_theoretical_me_has_no_closed_method():
    with pytest.raises(ParameterError, match="unknown method 'closed'"):
        ts.theoretical_me(ts.Pareto(2), 2.0, method="closed")


# ---------------------------------------------------------------------------
# start-up cost: the package and the CLI's numpy-only commands load no scipy

SRC = Path(__file__).resolve().parents[1] / "src"

_SCIPY_LOADED = (
    "import sys\n"
    "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
    "print(len(loaded), loaded[:5])\n"
)


def _run_python(code: str, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _scipy_modules_after(code: str, cwd) -> str:
    return _run_python(code + _SCIPY_LOADED, cwd)


def _cli(argv) -> str:
    """Code that runs the command line on argv and asserts it exits 0."""
    return (
        "from tailscope.cli import main\n"
        f"try:\n    code = main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
        "assert code == 0, code\n"
    )


@pytest.mark.parametrize("module", ["tailscope", "tailscope.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert _scipy_modules_after(f"import {module}\n", tmp_path) == "0 []"


def _daily_csv(path, years=4):
    dates = np.arange(np.datetime64("2001-01-01"), np.datetime64(f"{2001 + years}-01-01"))
    values = np.random.default_rng(3).standard_normal(dates.size)
    path.write_text("date,value\n" + "".join(f"{d},{v:.17g}\n" for d, v in zip(dates, values)))
    return path


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["simulate", "--model", "pareto:2", "--n", "1000", "--seed", "1", "--out", "sim"],
    ["meplot", "--input", "sample.csv", "--out", "me"],
    ["estimate", "--input", "sample.csv", "--out", "est"],
    ["analyze", "--input", "daily.csv", "--p-max", "3", "--out", "an"],
], ids=lambda argv: argv[0].lstrip("-"))
def test_numpy_only_commands_load_no_scipy(argv, tmp_path):
    sample = np.random.default_rng(2).pareto(2.0, 1000) + 1.0
    (tmp_path / "sample.csv").write_text("value\n" + "".join(f"{v:.17g}\n" for v in sample))
    _daily_csv(tmp_path / "daily.csv")
    assert _scipy_modules_after(_cli(argv), tmp_path) == "0 []"


# Beta and LogNormal evaluate through scipy.special; only StableSkewed's tail,
# cdf and quantile load scipy.stats, and only hausdorff_window on two general
# point sets loads scipy.spatial
_SCIPY_PACKAGES_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))\n"
)


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "beta:2,2", "--n", "1000", "--out", "b"],
    ["simulate", "--model", "lognormal", "--n", "1000", "--out", "l"],
    ["converge", "--model", "beta:2,2", "--case", "negative", "--n-grid", "1000,2000",
     "--reps", "2", "--out", "c"],
    ["converge", "--model", "pareto:2", "--case", "positive", "--n-grid", "1000,2000",
     "--reps", "2", "--out", "p"],
], ids=["simulate-beta", "simulate-lognormal", "converge-beta", "converge-pareto"])
def test_commands_load_no_scipy_stats(argv, tmp_path):
    loaded = json.loads(_run_python(_cli(argv) + _SCIPY_PACKAGES_LOADED, tmp_path))
    assert "stats" not in loaded and "spatial" not in loaded


# converge measures its distances to the limit line with numpy alone, so on a law
# with a closed-form quantile it loads no scipy module at all
@pytest.mark.parametrize("argv", [
    ["converge", "--model", "exp:1", "--case", "zero", "--n-grid", "1000,2000",
     "--reps", "2", "--out", "c"],
    ["converge", "--model", "pareto:2", "--case", "positive", "--n-grid", "1000,2000",
     "--reps", "2", "--out", "p"],
], ids=["exp", "pareto"])
def test_converge_on_closed_form_laws_loads_no_scipy(argv, tmp_path):
    assert _scipy_modules_after(_cli(argv), tmp_path) == "0 []"


# the exponential is GPD(0, beta), drawn by its closed-form quantile: no scipy.stats,
# and no scipy.integrate, which only the quadrature mean excess and truncated mean need
@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "exp:1", "--n", "1000", "--out", "e"],
    ["converge", "--model", "exp:1", "--case", "zero", "--n-grid", "1000,2000",
     "--reps", "2", "--out", "c"],
], ids=lambda argv: argv[0])
def test_exponential_commands_load_no_scipy_stats_or_integrate(argv, tmp_path):
    loaded = json.loads(_run_python(_cli(argv) + _SCIPY_PACKAGES_LOADED, tmp_path))
    assert "stats" not in loaded and "integrate" not in loaded
