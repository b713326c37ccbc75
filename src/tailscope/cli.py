"""Command line interface.

Subcommands: simulate, meplot, estimate, converge, analyze.  Options may
come from flags, a key=value config file (--config), or for the seed the
TAILSCOPE_SEED environment variable; flags win over the file, the file
over the environment.  Exit codes: 0 success, 2 configuration problem,
3 data or degeneracy problem, 4 I/O or parse problem.

Every subcommand computes its results first, then returns the files it
writes as (file name, writer) pairs, with its stdout line.  ``_emit`` alone
creates --out, writes those files and prints the line, so a failed run
leaves no directory.  A .csv or .svg file is written only when --format
lists its kind (``simulate`` takes no --format and writes its CSV), and a
.txt file always.  Configuration errors, a bad --format included, are
reported before any input is read or sampled.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .dist import (
    GPD,
    Beta,
    DistributionModel,
    Exponential,
    LambertWTail,
    LogNormal,
    Pareto,
    RandomSeed,
    StableSkewed,
)
from .empirics import PointSet2D, default_trim, me_plot, order_statistics, plotted_trim
from .errors import ConfigError, ParseError, TailscopeError
from .estimators import hill, ls_fit, moment, pickands, qq_points_pos, trace
from .pipeline import analyze_series, load_csv
from .randset import Window, run_convergence
from .svgplot import Series, render_plot
from .tabular import read_csv, write_csv, write_keyvals

ENV_SEED = "TAILSCOPE_SEED"


# ---------------------------------------------------------------------------
# option plumbing


# kind -> (model class, allowed parameter counts)
_MODELS = {
    "pareto": (Pareto, (1,)),
    "gpd": (GPD, (1, 2)),
    "beta": (Beta, (2,)),
    "exp": (Exponential, (0, 1)),
    "lognormal": (LogNormal, (0, 2)),
    "stable": (StableSkewed, (1,)),
    "lambertw": (LambertWTail, (0,)),
}


def parse_model(spec: str) -> DistributionModel:
    """Parse a model spec like pareto:2, gpd:0.5,1 or lambertw."""
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
    try:
        return model(*params)
    except TailscopeError as exc:
        raise ConfigError(f"bad model {spec!r}: {exc}") from exc


def read_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return cfg


class Options:
    """Flag > config file > environment > default resolution; --out and the
    formats are resolved on construction."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.cfg = read_config(args.config) if getattr(args, "config", None) else {}
        self.out = self.get("out", ".")
        raw = self.get("format", "csv,svg") if "format" in self.args else "csv"
        self.formats = {tok.strip().lower() for tok in raw.split(",") if tok.strip()}
        if self.formats - {"csv", "svg"} or not self.formats:
            raise ConfigError(f"format must list csv and/or svg, got {raw!r}")

    def get(self, key: str, default=None, cast=str):
        val = self.args.get(key)
        if val is not None:
            return val
        if key in self.cfg:
            try:
                return cast(self.cfg[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key}: bad value {self.cfg[key]!r}") from exc
        return default

    def require(self, key: str, cast=str):
        val = self.get(key, None, cast)
        if val is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return val

    def seed(self) -> RandomSeed:
        val = self.get("seed", None, int)
        if val is None:
            env = os.environ.get(ENV_SEED)
            if env is not None:
                try:
                    val = int(env)
                except ValueError as exc:
                    raise ConfigError(f"bad {ENV_SEED}={env!r}") from exc
            else:
                val = 0
        stream = self.get("stream", 0, int)
        try:
            return RandomSeed(int(val), int(stream))
        except TailscopeError as exc:
            raise ConfigError(str(exc)) from exc


def _parse_trim(raw: str) -> tuple[int, int | None]:
    """imin:imax, either side optional: imin defaults to 2, imax (None) to n."""
    try:
        a, _, b = raw.partition(":")
        return int(a) if a else 2, int(b) if b else None
    except ValueError as exc:
        raise ConfigError(f"bad trim {raw!r}; expected imin:imax") from exc


def _parse_window(raw: str) -> Window:
    try:
        x0, x1, y0, y1 = (float(tok) for tok in raw.split(","))
        return Window(x0, x1, y0, y1)
    except (ValueError, TailscopeError) as exc:
        raise ConfigError(f"bad window {raw!r}; expected x0,x1,y0,y1") from exc


def _parse_grid(raw: str) -> list[int]:
    try:
        grid = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad n-grid {raw!r}") from exc
    if not grid:
        raise ConfigError("empty n-grid")
    return grid


def manifest_pairs(command: str, params: dict) -> list[tuple]:
    """Enough key=value pairs to reproduce the run exactly."""
    return [("tool", f"tailscope {__version__}"), ("command", command), *sorted(params.items())]


def _keyvals(pairs) -> partial:
    return partial(write_keyvals, pairs=pairs)


def _csv(header: str, *columns) -> partial:
    return partial(write_csv, header=header, columns=columns)


def _draw(opt: Options, n_min: int) -> tuple[np.ndarray, dict]:
    """Sample from --model/--n/--seed."""
    model = parse_model(opt.require("model"))
    n = opt.require("n", int)
    if n < n_min:
        raise ConfigError(f"need n >= {n_min}")
    seed = opt.seed()
    meta = {"model": model.label(), "n": n, "seed": seed.seed, "stream": seed.stream}
    return model.sample(n, seed), meta


def _load_sample(opt: Options) -> tuple[np.ndarray, dict]:
    """Read --input, or sample from --model/--n/--seed."""
    input_path = opt.get("input")
    if input_path is None:
        return _draw(opt, 2)
    values = read_csv(input_path, "value")
    if not values.size:
        raise ParseError(f"{input_path}: no values")
    return values, {"input": input_path, "n": values.size}


def _plot_fit(path: str, pts: PointSet2D, fit, **labels) -> None:
    """Scatter of pts with the fitted line drawn across their x range."""
    xs = np.array([pts.x.min(), pts.x.max()])
    line = np.column_stack([xs, fit.intercept + fit.slope * xs])
    render_plot(path, [Series(pts.points, "scatter"), Series(line, "line")], **labels)


def _point_estimates(sample, m_ref: int) -> list[tuple]:
    """Hill, Pickands and moment at m_ref (Pickands capped at n/4), or why not."""
    pairs = []
    for kind, fn in (("hill", hill), ("pickands", pickands), ("moment", moment)):
        m = min(m_ref, sample.n // 4) if kind == "pickands" else m_ref
        try:
            pairs.append((kind, fn(sample, m)))
        except TailscopeError as exc:
            pairs.append((kind, f"skipped ({exc})"))
    return pairs


def _emit(opt: Options, files: list, line: str) -> int:
    """Create --out, write each (file name, writer) pair that the formats ask
    for (every .txt file), then print the command's line."""
    os.makedirs(opt.out, exist_ok=True)
    for name, write in files:
        ext = name.rpartition(".")[2]
        if ext == "txt" or ext in opt.formats:
            write(os.path.join(opt.out, name))
    print(line)
    return 0


# ---------------------------------------------------------------------------
# subcommands: each returns its (file name, writer) pairs and its stdout line


def cmd_simulate(opt: Options):
    values, meta = _draw(opt, 1)
    return ([("sample.csv", _csv("value", values)),
             ("manifest.txt", _keyvals(manifest_pairs("simulate", meta)))],
            f"simulate: wrote {values.size} values to {opt.out}/sample.csv")


def cmd_meplot(opt: Options):
    trim_raw = opt.get("trim")
    trim = _parse_trim(trim_raw) if trim_raw else None
    values, meta = _load_sample(opt)
    sample = order_statistics(values)
    i_min, i_max = plotted_trim(sample, *(trim or default_trim(sample.n)))
    pts = me_plot(sample, i_min, i_max)
    fit = ls_fit(pts, "me")
    meta.update({"trim": f"{i_min}:{i_max}", "format": sorted(opt.formats)})
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


def cmd_estimate(opt: Options):
    stride = opt.get("stride", 1, int)
    if stride < 1:
        raise ConfigError("stride must be positive")
    m_opt = opt.get("m", None, int)
    values, meta = _load_sample(opt)
    sample = order_statistics(values)
    m_ref = max(2, sample.n // 10) if m_opt is None else m_opt

    traces = {kind: trace(sample, kind, stride=stride) for kind in ("hill", "pickands", "moment")}
    qq = qq_points_pos(sample, m_ref)
    qq_fit = ls_fit(qq, "qq-pos")
    meta.update({"m": m_ref, "stride": stride, "format": sorted(opt.formats)})
    return [
        *((f"{kind}_trace.csv", _csv("m,value", tr.m, tr.value)) for kind, tr in traces.items()),
        ("qq_pos.csv", qq.write_csv),
        ("traces.svg", lambda path: render_plot(
            path,
            [Series(np.column_stack([tr.m, tr.value]), "line") for tr in traces.values()],
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


def cmd_converge(opt: Options):
    model = parse_model(opt.require("model"))
    case = opt.require("case")
    n_grid = _parse_grid(opt.require("n_grid"))
    reps = opt.require("reps", int)
    seed = opt.seed()
    k_exp = opt.get("k", None, float)
    window_raw = opt.get("window")
    window = _parse_window(window_raw) if window_raw else None
    resolution = opt.get("resolution", 512, int)

    report = run_convergence(
        model, case, n_grid, reps, seed, k_rule=k_exp, window=window,
        resolution=resolution,
    )
    med = report.medians()

    def plot(path):
        log_n = np.log10(np.asarray(report.n_grid, float))
        cloud = np.column_stack([np.repeat(log_n, reps), report.distances.T.ravel()])
        render_plot(
            path,
            [Series(cloud, "scatter"), Series(np.column_stack([log_n, med]), "line")],
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


def cmd_analyze(opt: Options):
    path = opt.require("input")
    p_max = opt.get("p_max", 10, int)
    m_opt = opt.get("m", None, int)
    ts = load_csv(
        path,
        date_col=opt.get("date_col", "date"),
        value_col=opt.get("value_col", "value"),
        date_format=opt.get("date_format", "%Y-%m-%d"),
    )
    an = analyze_series(ts, p_max)
    model, fit, sample = an.model, an.me_fit, an.sample
    order, (i_min, i_max) = model.order, an.trim
    m_ref = max(2, sample.n // 10) if m_opt is None else m_opt
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailscope",
        description="Mean excess plot diagnostics for heavy-tailed data",
    )
    parser.add_argument("--version", action="version", version=f"tailscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=True, sample=False):
        p.add_argument("--config", help="key=value option file")
        p.add_argument("--out", help="output directory (default .)")
        if formats:
            p.add_argument("--format", help="csv,svg subset (default both)")
        p.add_argument("--seed", type=int, help=f"seed (fallback ${ENV_SEED}, then 0)")
        p.add_argument("--stream", type=int, help="seed stream (default 0)")
        if sample:
            p.add_argument("--model", help="model spec (with --n), or use --input")
            p.add_argument("--n", type=int)
            p.add_argument("--input", help="CSV of values (column 'value')")

    p = sub.add_parser("simulate", help="draw a sample from a model (always CSV)")
    common(p, formats=False)
    p.add_argument("--model", help="model spec, e.g. pareto:2 or gpd:0.5,1")
    p.add_argument("--n", type=int, help="sample size")

    p = sub.add_parser("meplot", help="mean excess plot and its LS reading")
    common(p, sample=True)
    p.add_argument("--trim", help="imin:imax order-statistic range")

    p = sub.add_parser("estimate", help="hill/pickands/moment traces and qq fit")
    common(p, sample=True)
    p.add_argument("--m", type=int, help="reference m for point estimates")
    p.add_argument("--stride", type=int, help="trace stride (default 1)")

    p = sub.add_parser("converge", help="replicated distance-to-limit experiment")
    common(p)
    p.add_argument("--model", help="model spec")
    p.add_argument("--case", help="positive, negative or zero")
    p.add_argument("--n-grid", dest="n_grid", help="comma list of sample sizes")
    p.add_argument("--reps", type=int)
    p.add_argument("--k", type=float, help="k-rule exponent (default 0.7)")
    p.add_argument("--window", help="x0,x1,y0,y1 observation window")
    p.add_argument("--resolution", type=int, help="limit discretization (default 512)")

    p = sub.add_parser("analyze", help="deseasonalize, fit AR, read residual tails")
    common(p)
    p.add_argument("--input", help="CSV with date and value columns")
    p.add_argument("--date-col", dest="date_col")
    p.add_argument("--value-col", dest="value_col")
    p.add_argument("--date-format", dest="date_format")
    p.add_argument("--p-max", dest="p_max", type=int, help="max AR order (default 10)")
    p.add_argument("--m", type=int, help="reference m for point estimates")

    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "meplot": cmd_meplot,
    "estimate": cmd_estimate,
    "converge": cmd_converge,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opt = Options(args)
        return _emit(opt, *_DISPATCH[args.command](opt))
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
