"""The package namespace re-exports each module's public names, and only
those; importing it, and running the commands that need only numpy, loads
no scipy module, and no command but those on the stable law loads
`scipy.stats`."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailscope as ts

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
# cdf and quantile load scipy.stats
_SCIPY_PACKAGES_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))\n"
)


@pytest.mark.parametrize("argv, spatial", [
    (["simulate", "--model", "beta:2,2", "--n", "1000", "--out", "b"], False),
    (["simulate", "--model", "lognormal", "--n", "1000", "--out", "l"], False),
    (["converge", "--model", "beta:2,2", "--case", "negative", "--n-grid", "1000,2000",
      "--reps", "2", "--out", "c"], True),
    (["converge", "--model", "pareto:2", "--case", "positive", "--n-grid", "1000,2000",
      "--reps", "2", "--out", "p"], True),
], ids=["simulate-beta", "simulate-lognormal", "converge-beta", "converge-pareto"])
def test_commands_load_no_scipy_stats(argv, spatial, tmp_path):
    loaded = json.loads(_run_python(_cli(argv) + _SCIPY_PACKAGES_LOADED, tmp_path))
    assert "stats" not in loaded
    assert ("spatial" in loaded) == spatial
