"""Command line interface.

Subcommands: simulate, meplot, estimate, converge, analyze.  ``build_parser``
declares each option once, with its type and default (``--help`` shows it).
A config file (--config), read as input files are (a leading byte order mark
is dropped), holds key=value lines and ``#`` comments, with ``-`` or ``_``
alike in keys; the keys that name an option of the subcommand become its
argparse defaults, so flags win, argparse converts the values as it
converts flags, and other keys are ignored.  The seed falls back to the
TAILSCOPE_SEED environment variable, then 0.  ``meplot`` and ``estimate``
read --input or draw from --model/--n/--seed/--stream, and refuse a run that
gives both.  ``analyze`` draws nothing and takes no --seed or --stream.  Exit
codes: 0 success, 2 configuration problem, 3 data or degeneracy problem, 4
I/O or parse problem.

Every subcommand computes its results first, then returns the files it
writes as (file name, writer) pairs, with its stdout line.  ``_emit`` alone
creates --out, writes those files and prints the line, so a failed run
leaves no directory.  A .csv or .svg file is written only when --format
lists its kind (``simulate`` takes no --format and writes its CSV), and a
.txt file always.  Configuration errors, among them a bad --format, --m below 1
and a --trim no sample admits, are reported before any input is read or sampled,
and those of --stride, --model and --input before any library module runs
(but ``tabular``, when it has read a --config file).

Each command runs only the library modules it calls.  Importing this module
runs ``tailscope.errors`` alone, and binds ``dist``, ``empirics``,
``estimators``, ``pipeline``, ``randset``, ``svgplot`` and ``tabular`` as
lazy modules (``importlib.util.LazyLoader``): each is in ``sys.modules`` and
on the package, so a program can list them all, but runs, and imports numpy,
only on the first lookup of one of its attributes.  ``--version``,
``--help`` and option errors run none of them, unless a --config file was
read, through ``tabular``.  ``simulate`` runs ``dist`` and ``tabular``;
``meplot`` and ``estimate`` add ``empirics`` and ``estimators``, and
``svgplot`` when --format lists svg; ``converge`` adds ``randset`` to those;
``analyze`` runs all but ``randset``.  The functions here that call numpy
import it themselves.

BLAS runs on one thread.  Importing this module sets
OPENBLAS_NUM_THREADS=1, unless the variable is already set, and numpy
loads later, with the first library module that runs, so OpenBLAS starts
no worker threads: they would spin beside the command and cost CPU time,
and its dot products of more than 10 000 values would split across as many
threads as the host has cores, making the output bytes depend on the core
count.  CSV files of more than one chunk are formatted, and --input
samples read, on one worker thread per CPU (``tailscope.tabular``), and
``converge`` runs the replicate cells of a large grid on the same pool;
those workers block when idle, and the bytes do not depend on their number
either.  ``import tailscope`` loads no numpy, so the entry points
(``python -m tailscope.cli``, the ``tailscope`` script) set the variable
first; a program that imports numpy before ``tailscope.cli`` keeps numpy's
own thread count.

The heap the imports build is frozen.  ``main()`` with no argv runs
``sys.argv[1:]`` as the process's own command, as both entry points call
it.  It calls ``gc.freeze()`` before it parses, which is all that
``--version`` and ``--help`` build, and again once the command has computed
what it writes, by when the modules it ran have loaded: the tens of
thousands of objects that numpy and the library put on the heap live until
exit, and no collection, the one at exit included, walks them again.
Importing this module, or calling ``main`` with an argv list, as a program
or a test does, leaves the collector as it was.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys
from functools import partial
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, ParseError, TailscopeError

if TYPE_CHECKING:
    import numpy as np

# before numpy loads: each command runs on one thread, so BLAS gets one too
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _lazy(name: str):
    """tailscope.<name>, placed in sys.modules and bound on the package, but
    run only on the first lookup of one of its attributes."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


dist, empirics, estimators, pipeline, randset, svgplot, tabular = map(
    _lazy, ("dist", "empirics", "estimators", "pipeline", "randset", "svgplot", "tabular"))

ENV_SEED = "TAILSCOPE_SEED"


# ---------------------------------------------------------------------------
# option plumbing


# kind -> (model class in tailscope.dist, allowed parameter counts)
_MODELS = {
    "pareto": ("Pareto", (1,)),
    "gpd": ("GPD", (1, 2)),
    "beta": ("Beta", (2,)),
    "exp": ("Exponential", (0, 1)),
    "lognormal": ("LogNormal", (0, 2)),
    "stable": ("StableSkewed", (1,)),
    "lambertw": ("LambertWTail", (0,)),
}


def _model_args(spec: str) -> tuple[str, list[float]]:
    """The class name and parameters a model spec names; checking them loads
    no library module."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    try:
        params = [float(tok) for tok in rest.split(",") if tok.strip()] if rest else []
    except ValueError as exc:
        raise ConfigError(f"bad model parameters in {spec!r}") from exc
    model, counts = _MODELS.get(kind, (None, ()))
    if len(params) not in counts:
        raise ConfigError(
            f"unknown model {spec!r}; expected kind:params with kind in {', '.join(_MODELS)}"
        )
    return model, params


def parse_model(spec: str) -> dist.DistributionModel:
    """Parse a model spec like pareto:2, gpd:0.5,1 or lambertw."""
    model, params = _model_args(spec)
    try:
        return getattr(dist, model)(*params)
    except TailscopeError as exc:
        raise ConfigError(f"bad model {spec!r}: {exc}") from exc


def read_config(path: str) -> dict:
    cfg = {}
    try:
        lines = tabular._text_lines(path, tabular._read_bytes(path))
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ParseError as exc:  # it leads with the path
        raise ConfigError(f"cannot read config {exc}") from exc
    return cfg


def _require(args: argparse.Namespace, name: str):
    """An option with no default, which a flag or the config file must give."""
    value = getattr(args, name)
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _seed(args: argparse.Namespace) -> dist.RandomSeed:
    """--seed, else $TAILSCOPE_SEED, else 0, in stream --stream, else 0."""
    env = os.environ.get(ENV_SEED, "0")
    try:
        return dist.RandomSeed(int(env) if args.seed is None else args.seed, args.stream or 0)
    except TailscopeError as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"bad {ENV_SEED}={env!r}") from exc


def _parse_formats(raw: str) -> set:
    formats = {tok.strip().lower() for tok in raw.split(",") if tok.strip()}
    if formats - {"csv", "svg"} or not formats:
        raise ConfigError(f"format must list csv and/or svg, got {raw!r}")
    return formats


def _parse_trim(raw: str) -> tuple[int, int | None] | None:
    """imin:imax, either side optional: imin defaults to 2, imax (None) to n;
    empty for the default trim; one no sample admits is refused.  Like every
    argparse type here, it raises ConfigError, which main reports with exit code 2."""
    if not raw:
        return None
    try:
        a, _, b = raw.partition(":")
        i_min, i_max = int(a) if a else 2, int(b) if b else None
    except ValueError as exc:
        raise ConfigError(f"bad trim {raw!r}; expected imin:imax") from exc
    if i_min < 2 or (i_max is not None and i_max < i_min):
        raise ConfigError(f"bad trim {raw!r}; need 2 <= imin <= imax")
    return i_min, i_max


def _parse_window(raw: str | None) -> randset.Window | None:
    """x0,x1,y0,y1; none or empty for the case's default window.  ``converge``
    parses its --window itself, so that parsing options runs no randset."""
    if not raw:
        return None
    try:
        x0, x1, y0, y1 = (float(tok) for tok in raw.split(","))
        return randset.Window(x0, x1, y0, y1)
    except (ValueError, TailscopeError) as exc:
        raise ConfigError(f"bad window {raw!r}; expected x0,x1,y0,y1") from exc


def _parse_grid(raw: str) -> list[int]:
    try:
        grid = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad n-grid {raw!r}") from exc
    if not grid:
        raise ConfigError("empty n-grid")
    if min(grid) < 1:
        raise ConfigError(f"n-grid sizes must be positive, got {raw!r}")
    return grid


def _int_at_least(name: str, least: int, rule: str):
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad {name} {raw!r}") from exc
        if value < least:
            raise ConfigError(f"{name.replace('-', '_')} must be {rule}, got {value}")
        return value
    return parse


def _m_ref(args: argparse.Namespace, n: int) -> int:
    return max(2, n // 10) if args.m is None else args.m


def manifest_pairs(command: str, params: dict) -> list[tuple]:
    """Enough key=value pairs to reproduce the run exactly."""
    return [("tool", f"tailscope {__version__}"), ("command", command), *sorted(params.items())]


def _keyvals(pairs) -> partial:
    return partial(tabular.write_keyvals, pairs=pairs)


def _csv(header: str, *columns) -> partial:
    return partial(tabular.write_csv, header=header, columns=columns)


def _draw(args: argparse.Namespace, n_min: int) -> tuple[np.ndarray, dict]:
    """Sample from --model/--n/--seed."""
    model = parse_model(_require(args, "model"))
    n = _require(args, "n")
    if n < n_min:
        raise ConfigError(f"need n >= {n_min}")
    seed = _seed(args)
    meta = {"model": model.label(), "n": n, "seed": seed.seed, "stream": seed.stream}
    return model.sample(n, seed), meta


def _check_sampling(args: argparse.Namespace) -> None:
    """The first checks of a command that reads or draws a sample, which need
    no library module: --stride at least 1, then either --input and no option
    that chooses a sample to draw, or a --model of a known kind and count."""
    if getattr(args, "stride", 1) < 1:
        raise ConfigError("stride must be positive")
    if "model" not in vars(args):
        return
    if getattr(args, "input", None) is None:
        _model_args(_require(args, "model"))
        return
    given = [f"--{name}" for name in ("model", "n", "seed", "stream")
             if getattr(args, name) is not None]
    if given:
        raise ConfigError(f"--input cannot be combined with {', '.join(given)}, "
                          "which choose a sample to draw")


def _load_sample(args: argparse.Namespace) -> tuple[np.ndarray, dict]:
    """Read --input, or sample from --model/--n/--seed (``_check_sampling``
    refuses both)."""
    if args.input is None:
        return _draw(args, 2)
    values = tabular.read_csv(args.input, "value")
    if not values.size:
        raise ParseError(f"{args.input}: no values")
    return values, {"input": args.input, "n": values.size}


def _plot_fit(path: str, pts: empirics.PointSet2D, fit, **labels) -> None:
    """Scatter of pts with the fitted line drawn across their x range."""
    import numpy as np

    xs = np.array([pts.x.min(), pts.x.max()])
    line = np.column_stack([xs, fit.intercept + fit.slope * xs])
    svgplot.render_plot(path, [svgplot.Series(pts.points, "scatter"),
                               svgplot.Series(line, "line")], **labels)


def _point_estimates(sample, m_ref: int) -> list[tuple]:
    """Hill, Pickands and moment at m_ref (Pickands capped at n/4), or why not."""
    pairs = []
    for kind, fn in (("hill", estimators.hill), ("pickands", estimators.pickands),
                     ("moment", estimators.moment)):
        m = min(m_ref, sample.n // 4) if kind == "pickands" else m_ref
        try:
            pairs.append((kind, fn(sample, m)))
        except TailscopeError as exc:
            pairs.append((kind, f"skipped ({exc})"))
    return pairs


def _emit(args: argparse.Namespace, files: list, line: str) -> int:
    """Create --out, write each (file name, writer) pair that --format asks
    for (every .txt file, and simulate's CSV), then print the command's line."""
    formats = getattr(args, "format", {"csv"})
    os.makedirs(args.out, exist_ok=True)
    for name, write in files:
        ext = name.rpartition(".")[2]
        if ext == "txt" or ext in formats:
            write(os.path.join(args.out, name))
    print(line)
    return 0


# ---------------------------------------------------------------------------
# subcommands: each returns its (file name, writer) pairs and its stdout line


def cmd_simulate(args: argparse.Namespace):
    values, meta = _draw(args, 1)
    return ([("sample.csv", _csv("value", values)),
             ("manifest.txt", _keyvals(manifest_pairs("simulate", meta)))],
            f"simulate: wrote {values.size} values to {args.out}/sample.csv")


def cmd_meplot(args: argparse.Namespace):
    values, meta = _load_sample(args)
    sample = empirics.order_statistics(values)
    i_min, i_max = empirics.plotted_trim(sample, *(args.trim or empirics.default_trim(sample.n)))
    pts = empirics.me_plot(sample, i_min, i_max)
    fit = estimators.ls_fit(pts, "me")
    meta.update({"trim": f"{i_min}:{i_max}", "format": sorted(args.format)})
    return [
        ("me_plot.csv", pts.write_csv),
        ("me_plot.svg", lambda path: _plot_fit(
            path, pts, fit,
            title="mean excess plot",
            xlabel="threshold",
            ylabel="mean excess",
            annotations=[
                f"xi_hat={fit.xi_hat:.4g}",
                f"slope={fit.slope:.4g} intercept={fit.intercept:.4g}",
                f"trim={i_min}:{i_max}",
            ],
        )),
        ("summary.txt", _keyvals([
            ("n", sample.n), ("trim", f"{i_min}:{i_max}"), ("slope", fit.slope),
            ("intercept", fit.intercept), ("xi_hat", fit.xi_hat), ("rss", fit.rss),
        ])),
        ("manifest.txt", _keyvals(manifest_pairs("meplot", meta))),
    ], f"meplot: xi_hat={fit.xi_hat:.4f} over trim {i_min}:{i_max}"


def cmd_estimate(args: argparse.Namespace):
    import numpy as np

    values, meta = _load_sample(args)
    sample = empirics.order_statistics(values)
    m_ref = _m_ref(args, sample.n)

    traces = {kind: estimators.trace(sample, kind, stride=args.stride)
              for kind in ("hill", "pickands", "moment")}
    qq = estimators.qq_points_pos(sample, m_ref)
    qq_fit = estimators.ls_fit(qq, "qq-pos")
    meta.update({"m": m_ref, "stride": args.stride, "format": sorted(args.format)})
    return [
        *((f"{kind}_trace.csv", _csv("m,value", tr.m, tr.value)) for kind, tr in traces.items()),
        ("qq_pos.csv", qq.write_csv),
        ("traces.svg", lambda path: svgplot.render_plot(
            path,
            [svgplot.Series(np.column_stack([tr.m, tr.value]), "line") for tr in traces.values()],
            title="estimator traces (hill, pickands, moment)",
            xlabel="m",
            ylabel="estimate",
        )),
        ("qq_pos.svg", lambda path: _plot_fit(
            path, qq, qq_fit,
            title="exponential qq plot",
            xlabel="-log(i/m)",
            ylabel="log(X_(i)/X_(m))",
            annotations=[f"slope={qq_fit.slope:.4g} (m={m_ref})"],
        )),
        ("summary.txt", _keyvals([("n", sample.n), ("m", m_ref), ("qq_slope", qq_fit.slope),
                                  *_point_estimates(sample, m_ref)])),
        ("manifest.txt", _keyvals(manifest_pairs("estimate", meta))),
    ], f"estimate: qq_slope={qq_fit.slope:.4f} at m={m_ref}"


def cmd_converge(args: argparse.Namespace):
    import numpy as np

    window = _parse_window(args.window)
    model = parse_model(_require(args, "model"))
    case, n_grid, reps = (_require(args, name) for name in ("case", "n_grid", "reps"))
    report = randset.run_convergence(model, case, n_grid, reps, _seed(args), k_rule=args.k,
                                     window=window, resolution=args.resolution)
    med = report.medians()

    def plot(path):
        log_n = np.log10(np.asarray(report.n_grid, float))
        cloud = np.column_stack([np.repeat(log_n, reps), report.distances.T.ravel()])
        svgplot.render_plot(
            path,
            [svgplot.Series(cloud, "scatter"),
             svgplot.Series(np.column_stack([log_n, med]), "line")],
            title=f"windowed distance to {case} limit",
            xlabel="log10 n",
            ylabel="hausdorff distance",
            annotations=[f"median@{n}={m:.4g}" for n, m in zip(report.n_grid, med)],
        )

    missed = (f"; {report.missed} of {report.distances.size} cells missed the window "
              f"and read its diagonal {report.window.diag:.4g}" if report.missed else "")
    return [
        ("distances.csv", report.write_csv),
        ("convergence.svg", plot),
        ("manifest.txt", _keyvals(report.manifest_pairs())),
    ], ("converge: medians " + ", ".join(f"n={n}: {m:.4g}" for n, m in zip(report.n_grid, med))
        + missed)


def cmd_analyze(args: argparse.Namespace):
    import numpy as np

    path, p_max = _require(args, "input"), args.p_max
    ts = pipeline.load_csv(path, date_col=args.date_col, value_col=args.value_col,
                           date_format=args.date_format)
    an = pipeline.analyze_series(ts, p_max)
    model, fit, sample = an.model, an.me_fit, an.sample
    order, (i_min, i_max) = model.order, an.trim
    m_ref = _m_ref(args, sample.n)
    scale = an.profile.scale
    days = sorted(scale)
    return [
        ("profile.csv", _csv("month,day,scale", *zip(*days), [scale[d] for d in days])),
        ("residuals.csv", _csv("value", an.residuals)),
        ("acf.csv", _csv("lag,rho", np.arange(an.acf.size), an.acf)),
        ("residual_me.csv", an.me_points.write_csv),
        ("residual_me.svg", lambda path: _plot_fit(
            path, an.me_points, fit,
            title="mean excess plot of AR residuals",
            xlabel="threshold",
            ylabel="mean excess",
            annotations=[f"xi_hat={fit.xi_hat:.4g}", f"ar_order={order}"],
        )),
        ("ar.txt", _keyvals([
            ("order", order), ("coefficients", model.coefficients),
            ("noise_variance", model.noise_variance), ("mean", model.mean),
            *((f"aic_{p}", a) for p, a in enumerate(an.aic)),
        ])),
        ("summary.txt", _keyvals([("n", ts.n), ("ar_order", order), ("xi_hat_me", fit.xi_hat),
                                  *_point_estimates(sample, m_ref)])),
        ("manifest.txt", _keyvals(manifest_pairs("analyze", {
            "input": path, "p_max": p_max, "order": order, "trim": f"{i_min}:{i_max}", "m": m_ref,
        }))),
    ], f"analyze: ar_order={order} xi_hat_me={fit.xi_hat:.4f}"


# ---------------------------------------------------------------------------
# entry point


# subcommand -> (handler, help, its options besides --config and --out)
_COMMANDS = {
    "simulate": (cmd_simulate, "draw a sample from a model (always CSV)",
                 "--model --n --seed --stream"),
    "meplot": (cmd_meplot, "mean excess plot and its LS reading",
               "--format --model --n --input --trim --seed --stream"),
    "estimate": (cmd_estimate, "hill/pickands/moment traces and qq fit",
                 "--format --model --n --input --m --stride --seed --stream"),
    "converge": (cmd_converge, "replicated distance-to-limit experiment",
                 "--format --model --case --n-grid --reps --k --window --resolution "
                 "--seed --stream"),
    "analyze": (cmd_analyze, "deseasonalize, fit AR, read residual tails",
                "--format --input --date-col --value-col --date-format --p-max --m"),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each subcommand's parser by name."""
    options = {
        "--config": dict(help="key=value option file; flags win over it"),
        "--out": dict(default=".", help="output directory (default %(default)s)"),
        "--format": dict(type=_parse_formats, default="csv,svg",
                         help="csv,svg subset (default %(default)s)"),
        "--seed": dict(type=int, help=f"seed (default ${ENV_SEED}, else 0)"),
        "--stream": dict(type=int, help="seed stream (default 0)"),
        "--model": dict(help="model spec, e.g. pareto:2 or gpd:0.5,1"),
        "--n": dict(type=int, help="sample size"),
        "--input": dict(help="input CSV: a value column (in place of --model, --n, --seed "
                        "and --stream), or for analyze date and value columns"),
        "--trim": dict(type=_parse_trim, help="imin:imax order-statistic range"),
        "--m": dict(type=_int_at_least("m", 1, "positive"),
                    help="reference m for point estimates (default max(2, n // 10))"),
        "--stride": dict(type=int, default=1, help="trace stride (default %(default)s)"),
        "--case": dict(help="positive, negative or zero"),
        "--n-grid": dict(type=_parse_grid, help="comma list of sample sizes"),
        "--reps": dict(type=int, help="replicates per sample size"),
        "--k": dict(type=float, default=0.7, help="k-rule exponent (default %(default)s)"),
        "--window": dict(help="x0,x1,y0,y1 observation window"),
        "--resolution": dict(type=int, default=512, help="limit grid steps (default %(default)s)"),
        "--date-col": dict(default="date", help="date column (default %(default)s)"),
        "--value-col": dict(default="value", help="value column (default %(default)s)"),
        "--date-format": dict(default="%Y-%m-%d", help="date format (default %(default)s)"),
        "--p-max": dict(type=_int_at_least("p-max", 0, "nonnegative"), default=10,
                        help="max AR order (default %(default)s)"),
    }
    parser = argparse.ArgumentParser(
        prog="tailscope", description="Mean excess plot diagnostics for heavy-tailed data")
    parser.add_argument("--version", action="version", version=f"tailscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, about, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        for flag in ("--config", "--out", *flags.split()):
            p.add_argument(flag, **options[flag])
    return parser, sub.choices


def main(argv=None) -> int:
    """Run the command line on argv and return its exit code; with no argv,
    run sys.argv[1:] as the process's own command, its heap frozen before
    parsing and again once the command has computed what it writes."""
    if argv is None:
        gc.freeze()
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's keys for this subcommand's options become its defaults
            cfg = read_config(args.config)
            commands[args.command].set_defaults(
                **{key: cfg[key] for key in cfg.keys() & vars(args).keys() - {"command"}})
            args = parser.parse_args(argv)
        _check_sampling(args)
        files, line = _COMMANDS[args.command][0](args)
        if argv is None:
            gc.freeze()
        return _emit(args, files, line)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"tailscope: config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"tailscope: i/o error: {exc}", file=sys.stderr)
        return 4
    except TailscopeError as exc:
        print(f"tailscope: data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
