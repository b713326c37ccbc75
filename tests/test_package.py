"""The package namespace re-exports each module's public names, and only
those; importing it, and running the commands that need only numpy, loads
no scipy module, no command but those on the stable law loads
`scipy.stats`, and none loads `scipy.spatial`.

`import tailscope` loads no numpy: the first public name asked for imports
the library modules.  `import tailscope.cli` binds them all as lazy modules
that have not run, loads no numpy, and sets OPENBLAS_NUM_THREADS=1 unless
the variable is set, so a command runs BLAS on one thread (no worker
spinning beside it, and dot products whose bytes do not depend on the
host's core count), while a value the user exported is kept.  A command
runs only the library modules it calls; `--version`, `--help` and option
errors run none of them.

A command's own process (`python -m tailscope.cli`, the `tailscope` script)
freezes the heap its imports built, numpy's included, so no collection
walks it again; importing `tailscope.cli` or calling `main` with an argv
list leaves the collector as it was."""
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
                 "gpd_quantile", "tail_measure"):
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


def test_cli_import_and_csv_writer_load_no_numpy_ma(tmp_path):
    # importing numpy.ma takes 9-15 ms on a 2-core host, and some np.unique calls load it
    code = (
        "import sys\nimport numpy as np\nimport tailscope.cli\n"
        "from tailscope.tabular import write_csv\n"
        "loaded = ['numpy.ma' in sys.modules]\n"
        "write_csv('t.csv', 'm,x', [np.arange(3), np.array([1.5, -2e-3, np.nan])])\n"
        "print(loaded + ['numpy.ma' in sys.modules])\n"
    )
    assert _run_python(code, tmp_path) == "[False, False]"


def test_one_chunk_files_start_no_thread_pool(tmp_path):
    # concurrent.futures takes about 4 ms to import, which every small command would pay
    code = (
        "import sys\nimport numpy as np\n" + _cli(["simulate", "--model", "pareto:2", "--n",
                                                    "1000", "--seed", "1", "--out", "sim"])
        + _cli(["meplot", "--input", "sim/sample.csv", "--out", "me"])
        + "from tailscope.tabular import CHUNK, write_csv\n"
        "loaded = ['concurrent.futures' in sys.modules]\n"
        "write_csv('t.csv', 'x', [np.ones(CHUNK + 1)])\n"
        "print(loaded + ['concurrent.futures' in sys.modules])\n"
    )
    assert _run_python(code, tmp_path) == "[False, True]"


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


# the lambertw model samples through its closed-form quantile, so no command on it
# evaluates Lambert W; lambert_w loads scipy.special on its first call, and only that
@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "lambertw", "--n", "1000", "--out", "s"],
    ["meplot", "--model", "lambertw", "--n", "1000", "--out", "m"],
    ["estimate", "--model", "lambertw", "--n", "1000", "--out", "e"],
    ["converge", "--model", "lambertw", "--case", "positive", "--n-grid", "1000,2000",
     "--reps", "2", "--out", "c"],
], ids=lambda argv: argv[0])
def test_lambertw_commands_load_no_scipy(argv, tmp_path):
    assert _scipy_modules_after(_cli(argv), tmp_path) == "0 []"


def test_lambert_w_loads_scipy_special_only(tmp_path):
    code = "import tailscope as ts\nassert ts.lambert_w(1.0) > 0\n" + _SCIPY_PACKAGES_LOADED
    loaded = json.loads(_run_python(code, tmp_path))
    assert "special" in loaded and "stats" not in loaded and "integrate" not in loaded


# ---------------------------------------------------------------------------
# a lazy package namespace, and one BLAS thread in the command line

_NUMPY_LOADED = "import sys\nprint('numpy' in sys.modules)\n"


def test_import_loads_no_numpy(tmp_path):
    assert _run_python("import tailscope\n" + _NUMPY_LOADED, tmp_path) == "False"


def test_star_import_binds_the_public_names_and_the_submodules(tmp_path):
    expected = {attr for name in MODULES
                for attr in importlib.import_module(f"tailscope.{name}").__all__}
    expected |= {*MODULES, "tabular"}
    assert len(expected) == 88
    code = (
        "import json\nfrom tailscope import *\n"
        "print(json.dumps(sorted(k for k in dir() if not k.startswith('_') and k != 'json')))\n"
    )
    assert set(json.loads(_run_python(code, tmp_path))) == expected
    assert set(ts.__all__) == expected
    assert expected <= set(dir(ts))


def test_unknown_name_raises_attribute_error(tmp_path):
    # in a fresh process the first lookup loads the modules, then fails
    code = ("import tailscope\ntry:\n    tailscope.tail_measure\n"
            "except AttributeError as exc:\n    print(exc)\n")
    assert _run_python(code, tmp_path) == "module 'tailscope' has no attribute 'tail_measure'"
    with pytest.raises(AttributeError):
        ts.tail_measure
    with pytest.raises(AttributeError):
        ts.__wrapped__


def test_cli_import_loads_every_library_module(tmp_path):
    # the traced benchmark runner wraps functions on the modules listed here;
    # all but cli and errors are lazy, and none of those has run
    code = (
        "import sys, types\nimport tailscope.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('tailscope.')),"
        " sorted(n for n, m in sys.modules.items()"
        " if n.startswith('tailscope.') and type(m) is types.ModuleType),"
        " 'numpy' in sys.modules)\n"
    )
    assert _run_python(code, tmp_path) == " ".join([str(sorted(
        f"tailscope.{name}" for name in (*MODULES, "cli", "svgplot", "tabular"))),
        "['tailscope.cli', 'tailscope.errors']", "False"])


def _run_with_threads(code: str, cwd, threads) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_cli_process_runs_one_thread(tmp_path):
    # tailscope.cli loads no numpy, so run a library module that does
    code = ("import sys\nimport tailscope.cli\ntailscope.cli.tabular.CHUNK\n"
            "assert 'numpy' in sys.modules\n"
            "print([ln.split()[1] for ln in open('/proc/self/status')"
            " if ln.startswith('Threads:')][0])\n")
    assert _run_with_threads(code, tmp_path, None) == "1"


def test_exported_blas_thread_count_is_kept(tmp_path):
    code = "import os\nimport tailscope.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    assert _run_with_threads(code, tmp_path, "3") == "3"


# ---------------------------------------------------------------------------
# the heap policy: a command's own process freezes its import heap

PYPROJECT = SRC.parent / "pyproject.toml"


@pytest.mark.parametrize("disabled", [False, True], ids=["enabled", "disabled"])
def test_import_and_main_with_argv_leave_the_collector_as_it_was(disabled, tmp_path):
    code = (
        "import gc\n" + "gc.disable()\n" * disabled + "import tailscope.cli\n"
        "state = [(gc.isenabled(), gc.get_freeze_count())]\n"
        + _cli(["--version"])
        + _cli(["simulate", "--model", "pareto:2", "--n", "1000", "--out", "sim"])
        + "state.append((gc.isenabled(), gc.get_freeze_count()))\nprint(state)\n"
    )
    assert _run_python(code, tmp_path) == str([(not disabled, 0)] * 2)


def _entry_point(entry: str) -> list:
    """The interpreter arguments that run the command line as its own process."""
    if entry == "module":
        return ["-m", "tailscope.cli"]
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["tailscope"]
    module, _, func = target.partition(":")
    # what the installed script does
    return ["-c", f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"]


# what a command's own process has done by its exit, printed by a hook
# that runs before the command line is imported
_EXIT_HOOK = (
    "import atexit, gc, json, sys, types\n"
    "def report():\n"
    "    numpy = sys.modules.get('numpy')\n"
    "    print('exit', json.dumps({\n"
    "        'collector': [gc.isenabled(), gc.get_freeze_count() > 0],\n"
    "        'numpy': numpy is not None,\n"
    "        'numpy_tracked': numpy is not None\n"
    "        and any(o is vars(numpy) for o in gc.get_objects()),\n"
    "        'ran': sorted(n.partition('.')[2] for n, m in sys.modules.items()\n"
    "                      if n.startswith('tailscope.') and type(m) is types.ModuleType),\n"
    "    }), file=sys.stderr)\n"
    "atexit.register(report)\n"
)


def _hooked_process(args: list, cwd):
    """Run the interpreter on args with the exit hook; the process and the
    hook's record."""
    hook = cwd / "hook"
    hook.mkdir(exist_ok=True)
    (hook / "sitecustomize.py").write_text(_EXIT_HOOK)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(SRC)]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    lines = proc.stderr.splitlines()
    assert lines and lines[-1].startswith("exit "), proc.stderr
    return proc, json.loads(lines[-1][5:])


@pytest.mark.parametrize("entry", ["module", "script"])
def test_command_process_runs_with_its_import_heap_frozen(entry, tmp_path):
    proc, record = _hooked_process([*_entry_point(entry), "--version"], tmp_path)
    assert (proc.returncode, proc.stdout) == (0, f"tailscope {ts.__version__}\n")
    # the hook's line is all the process writes to stderr
    assert proc.stderr.splitlines()[:-1] == []
    assert record["collector"] == [True, True]
    # a data command freezes again once it has computed its output, by when
    # numpy has loaded, so numpy's heap is frozen too
    proc, record = _hooked_process(
        [*_entry_point(entry), "simulate", "--model", "pareto:2", "--n", "10", "--out", "o"],
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[:-1] == []
    assert record["collector"] == [True, True]
    assert record["numpy"] and not record["numpy_tracked"]


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["simulate", "--help"], 0),
    (["simulate", "--model", "nope:1", "--n", "10", "--out", "o"], 2),
    (["meplot", "--input", "x.csv", "--n", "10", "--out", "o"], 2),
    (["estimate", "--stride", "0", "--model", "pareto:2", "--out", "o"], 2),
    (["converge", "--out", "o"], 2),
    (["converge", "--window", "0,1,0,1", "--model", "nope:1", "--out", "o"], 2),
    (["simulate", "--n", "ten"], 2),
    (["nope"], 2),
], ids=["version", "help", "simulate-help", "bad-model", "input-and-n", "stride",
        "no-model", "window-and-bad-model", "bad-int", "no-command"])
def test_version_help_and_option_errors_run_no_library_module(argv, code, tmp_path):
    proc, record = _hooked_process(["-m", "tailscope.cli", *argv], tmp_path)
    assert proc.returncode == code, proc.stderr
    # the command line itself runs as __main__
    assert (record["numpy"], record["ran"]) == (False, ["errors"])
    assert not (tmp_path / "o").exists()


_PLOTS = ["dist", "empirics", "estimators", "svgplot", "tabular"]


# each command runs errors, the library modules it calls and what they import
@pytest.mark.parametrize("argv, ran", [
    (["simulate", "--model", "pareto:2", "--n", "1000", "--out", "o"], ["dist", "tabular"]),
    (["meplot", "--input", "sample.csv", "--out", "o"], _PLOTS),
    # no plot to draw
    (["meplot", "--model", "pareto:2", "--n", "1000", "--format", "csv", "--out", "o"],
     ["dist", "empirics", "estimators", "tabular"]),
    (["estimate", "--input", "sample.csv", "--out", "o"], _PLOTS),
    (["converge", "--model", "pareto:2", "--case", "positive", "--n-grid", "1000,2000",
      "--reps", "2", "--window", "1,3,0,4", "--out", "o"], [*_PLOTS, "randset"]),
    (["analyze", "--input", "daily.csv", "--p-max", "3", "--out", "o"], [*_PLOTS, "pipeline"]),
], ids=["simulate", "meplot-input", "meplot-csv", "estimate", "converge", "analyze"])
def test_command_runs_only_the_modules_it_calls(argv, ran, tmp_path):
    sample = np.random.default_rng(2).pareto(2.0, 1000) + 1.0
    (tmp_path / "sample.csv").write_text("value\n" + "".join(f"{v:.17g}\n" for v in sample))
    _daily_csv(tmp_path / "daily.csv")
    proc, record = _hooked_process(["-m", "tailscope.cli", *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert record["ran"] == sorted(["errors", *ran])


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", "--model", "nope:1", "--n", "10", "--out", "o"], 2,
     "config error: unknown model 'nope:1'; expected kind:params with kind in pareto, gpd, "
     "beta, exp, lognormal, stable, lambertw"),
    (["analyze", "--input", "gap.csv", "--out", "o"], 3,
     "data error: series has 1 missing day(s) in 2001-01-01..2001-01-03; AR fitting needs a "
     "contiguous daily series"),
    (["analyze", "--input", "dup.csv", "--out", "o"], 4,
     "i/o error: dup.csv: duplicate date 2001-01-02"),
    (["analyze", "--input", "missing.csv", "--out", "o"], 4,
     "i/o error: [Errno 2] No such file or directory: 'missing.csv'"),
    (["analyze", "--input", "empty.csv", "--out", "o"], 4,
     "i/o error: empty.csv: line 3: bad value ''"),
], ids=["config", "data", "io-duplicate", "io-missing", "io-empty-last-value"])
def test_failing_command_process_prints_its_message_and_exit_code(argv, code, message,
                                                                   tmp_path):
    (tmp_path / "gap.csv").write_text("date,value\n2001-01-01,1\n2001-01-03,2\n")
    (tmp_path / "dup.csv").write_text("date,value\n2001-01-01,1\n2001-01-02,2\n2001-01-02,3\n")
    (tmp_path / "empty.csv").write_text("date,value\n2001-01-01,1\n2001-01-02,")
    proc = subprocess.run([sys.executable, "-m", "tailscope.cli", *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", f"tailscope: {message}\n")
    assert not (tmp_path / "o").exists()
