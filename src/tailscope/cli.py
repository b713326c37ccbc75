"""Command line interface.

Subcommands: simulate, meplot, estimate, converge, analyze.  Options may
come from flags, a key=value config file (--config), or for the seed the
TAILSCOPE_SEED environment variable; flags win over the file, the file
over the environment.  Exit codes: 0 success, 2 configuration problem,
3 data or degeneracy problem, 4 I/O or parse problem.
"""
from __future__ import annotations

import argparse
import os
import sys

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
from .empirics import (
    PointSet2D,
    default_trim,
    me_plot,
    order_statistics,
    plotted_trim,
)
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
    """Flag > config file > environment > default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.cfg = read_config(args.config) if getattr(args, "config", None) else {}

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

    def formats(self) -> set:
        raw = self.get("format", "csv,svg")
        fmts = {tok.strip().lower() for tok in raw.split(",") if tok.strip()}
        bad = fmts - {"csv", "svg"}
        if bad or not fmts:
            raise ConfigError(f"format must list csv and/or svg, got {raw!r}")
        return fmts

    def out_dir(self) -> str:
        """The --out directory, created: call it once the command's work has succeeded,
        so a rejected run leaves no directory behind."""
        out = self.get("out", ".")
        os.makedirs(out, exist_ok=True)
        return out


def _parse_trim(raw: str, n: int) -> tuple[int, int]:
    try:
        a, _, b = raw.partition(":")
        lo = int(a) if a else 2
        hi = int(b) if b else n
    except ValueError as exc:
        raise ConfigError(f"bad trim {raw!r}; expected imin:imax") from exc
    return lo, hi


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


def write_manifest(path: str, command: str, params: dict) -> None:
    """Enough key=value lines to reproduce the run exactly."""
    write_keyvals(path, [("tool", f"tailscope {__version__}"), ("command", command),
                         *sorted(params.items())])


def _load_sample(opt: Options) -> tuple[np.ndarray, dict]:
    """Sample from --model/--n/--seed, or read --input."""
    input_path = opt.get("input")
    if input_path is not None:
        values = read_csv(input_path, "value")
        if not values.size:
            raise ParseError(f"{input_path}: no values")
        return values, {"input": input_path, "n": values.size}
    model = parse_model(opt.require("model"))
    n = opt.require("n", int)
    if n < 2:
        raise ConfigError("need n >= 2")
    seed = opt.seed()
    values = model.sample(n, seed)
    meta = {"model": model.label(), "n": n, "seed": seed.seed, "stream": seed.stream}
    return values, meta


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


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(opt: Options) -> int:
    model = parse_model(opt.require("model"))
    n = opt.require("n", int)
    if n < 1:
        raise ConfigError("need n >= 1")
    seed = opt.seed()
    values = model.sample(n, seed)
    out = opt.out_dir()
    write_csv(os.path.join(out, "sample.csv"), "value", [values])
    write_manifest(
        os.path.join(out, "manifest.txt"),
        "simulate",
        {"model": model.label(), "n": n, "seed": seed.seed, "stream": seed.stream},
    )
    print(f"simulate: wrote {n} values to {out}/sample.csv")
    return 0


def cmd_meplot(opt: Options) -> int:
    values, meta = _load_sample(opt)
    fmts = opt.formats()
    sample = order_statistics(values)
    n = sample.n
    trim_raw = opt.get("trim")
    trim = _parse_trim(trim_raw, n) if trim_raw else default_trim(n)
    i_min, i_max = plotted_trim(sample, *trim)
    pts = me_plot(sample, i_min, i_max)
    fit = ls_fit(pts, "me")
    out = opt.out_dir()
    if "csv" in fmts:
        pts.write_csv(os.path.join(out, "me_plot.csv"))
    if "svg" in fmts:
        _plot_fit(
            os.path.join(out, "me_plot.svg"), pts, fit,
            title="mean excess plot",
            xlabel="threshold",
            ylabel="mean excess",
            annotations=[
                f"xi_hat={fit.xi_hat:.4g}",
                f"slope={fit.slope:.4g} intercept={fit.intercept:.4g}",
                f"trim={i_min}:{i_max}",
            ],
        )
    write_keyvals(os.path.join(out, "summary.txt"), [
        ("n", n), ("trim", f"{i_min}:{i_max}"), ("slope", fit.slope),
        ("intercept", fit.intercept), ("xi_hat", fit.xi_hat), ("rss", fit.rss),
    ])
    meta.update({"trim": f"{i_min}:{i_max}", "format": sorted(fmts)})
    write_manifest(os.path.join(out, "manifest.txt"), "meplot", meta)
    print(f"meplot: xi_hat={fit.xi_hat:.4f} over trim {i_min}:{i_max}")
    return 0


def cmd_estimate(opt: Options) -> int:
    stride = opt.get("stride", 1, int)
    if stride < 1:
        raise ConfigError("stride must be positive")
    values, meta = _load_sample(opt)
    fmts = opt.formats()
    sample = order_statistics(values)
    n = sample.n
    m_ref = opt.get("m", max(2, n // 10), int)

    traces = {kind: trace(sample, kind, stride=stride) for kind in ("hill", "pickands", "moment")}
    qq = qq_points_pos(sample, m_ref)
    qq_fit = ls_fit(qq, "qq-pos")
    out = opt.out_dir()
    if "csv" in fmts:
        for kind, tr in traces.items():
            write_csv(os.path.join(out, f"{kind}_trace.csv"), "m,value", [tr.m, tr.value])
        qq.write_csv(os.path.join(out, "qq_pos.csv"))
    if "svg" in fmts:
        series = [
            Series(np.column_stack([traces[k].m, traces[k].value]), "line")
            for k in ("hill", "pickands", "moment")
        ]
        render_plot(
            os.path.join(out, "traces.svg"),
            series,
            title="estimator traces (hill, pickands, moment)",
            xlabel="m",
            ylabel="estimate",
        )
        _plot_fit(
            os.path.join(out, "qq_pos.svg"), qq, qq_fit,
            title="exponential qq plot",
            xlabel="-log(i/m)",
            ylabel="log(X_(i)/X_(m))",
            annotations=[f"slope={qq_fit.slope:.4g} (m={m_ref})"],
        )
    write_keyvals(os.path.join(out, "summary.txt"),
                  [("n", n), ("m", m_ref), ("qq_slope", qq_fit.slope),
                   *_point_estimates(sample, m_ref)])
    meta.update({"m": m_ref, "stride": stride, "format": sorted(fmts)})
    write_manifest(os.path.join(out, "manifest.txt"), "estimate", meta)
    print(f"estimate: qq_slope={qq_fit.slope:.4f} at m={m_ref}")
    return 0


def cmd_converge(opt: Options) -> int:
    model = parse_model(opt.require("model"))
    case = opt.require("case")
    n_grid = _parse_grid(opt.require("n_grid"))
    reps = opt.require("reps", int)
    seed = opt.seed()
    fmts = opt.formats()
    k_exp = opt.get("k", None, float)
    window_raw = opt.get("window")
    window = _parse_window(window_raw) if window_raw else None
    resolution = opt.get("resolution", 512, int)

    report = run_convergence(
        model, case, n_grid, reps, seed, k_rule=k_exp, window=window,
        resolution=resolution,
    )
    med = report.medians()
    out = opt.out_dir()
    if "csv" in fmts:
        report.write_csv(os.path.join(out, "distances.csv"))
    if "svg" in fmts:
        log_n = np.log10(np.asarray(report.n_grid, float))
        cloud = np.column_stack([np.repeat(log_n, reps), report.distances.T.ravel()])
        med_line = np.column_stack([log_n, med])
        render_plot(
            os.path.join(out, "convergence.svg"),
            [Series(cloud, "scatter"), Series(med_line, "line")],
            title=f"windowed distance to {case} limit",
            xlabel="log10 n",
            ylabel="hausdorff distance",
            annotations=[
                f"median@{n}={m:.4g}" for n, m in zip(report.n_grid, med)
            ],
        )
    write_keyvals(os.path.join(out, "manifest.txt"), report.manifest_pairs())
    print(
        "converge: medians "
        + ", ".join(f"n={n}: {m:.4g}" for n, m in zip(report.n_grid, med))
    )
    return 0


def cmd_analyze(opt: Options) -> int:
    path = opt.require("input")
    fmts = opt.formats()
    p_max = opt.get("p_max", 10, int)
    ts = load_csv(
        path,
        date_col=opt.get("date_col", "date"),
        value_col=opt.get("value_col", "value"),
        date_format=opt.get("date_format", "%Y-%m-%d"),
    )
    an = analyze_series(ts, p_max)
    model, fit, sample = an.model, an.me_fit, an.sample
    order, (i_min, i_max) = model.order, an.trim
    m_ref = opt.get("m", max(2, sample.n // 10), int)
    out = opt.out_dir()

    if "csv" in fmts:
        scale = an.profile.scale
        keys = sorted(scale)
        months, days = zip(*keys)
        write_csv(os.path.join(out, "profile.csv"), "month,day,scale",
                  [months, days, [scale[k] for k in keys]])
        write_csv(os.path.join(out, "residuals.csv"), "value", [an.residuals])
        write_csv(os.path.join(out, "acf.csv"), "lag,rho", [np.arange(an.acf.size), an.acf])
        an.me_points.write_csv(os.path.join(out, "residual_me.csv"))
    if "svg" in fmts:
        _plot_fit(
            os.path.join(out, "residual_me.svg"), an.me_points, fit,
            title="mean excess plot of AR residuals",
            xlabel="threshold",
            ylabel="mean excess",
            annotations=[f"xi_hat={fit.xi_hat:.4g}", f"ar_order={order}"],
        )

    write_keyvals(os.path.join(out, "ar.txt"), [
        ("order", order), ("coefficients", model.coefficients),
        ("noise_variance", model.noise_variance), ("mean", model.mean),
        *((f"aic_{p}", a) for p, a in enumerate(an.aic)),
    ])
    write_keyvals(os.path.join(out, "summary.txt"),
                  [("n", ts.n), ("ar_order", order), ("xi_hat_me", fit.xi_hat),
                   *_point_estimates(sample, m_ref)])
    write_manifest(
        os.path.join(out, "manifest.txt"),
        "analyze",
        {
            "input": path,
            "p_max": p_max,
            "order": order,
            "trim": f"{i_min}:{i_max}",
            "m": m_ref,
        },
    )
    print(f"analyze: ar_order={order} xi_hat_me={fit.xi_hat:.4f}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailscope",
        description="Mean excess plot diagnostics for heavy-tailed data",
    )
    parser.add_argument("--version", action="version", version=f"tailscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=True):
        p.add_argument("--config", help="key=value option file")
        p.add_argument("--out", help="output directory (default .)")
        if formats:
            p.add_argument("--format", help="csv,svg subset (default both)")
        p.add_argument("--seed", type=int, help=f"seed (fallback ${ENV_SEED}, then 0)")
        p.add_argument("--stream", type=int, help="seed stream (default 0)")

    p = sub.add_parser("simulate", help="draw a sample from a model (always CSV)")
    common(p, formats=False)
    p.add_argument("--model", help="model spec, e.g. pareto:2 or gpd:0.5,1")
    p.add_argument("--n", type=int, help="sample size")

    p = sub.add_parser("meplot", help="mean excess plot and its LS reading")
    common(p)
    p.add_argument("--model", help="model spec (with --n), or use --input")
    p.add_argument("--n", type=int)
    p.add_argument("--input", help="CSV of values (column 'value')")
    p.add_argument("--trim", help="imin:imax order-statistic range")

    p = sub.add_parser("estimate", help="hill/pickands/moment traces and qq fit")
    common(p)
    p.add_argument("--model", help="model spec (with --n), or use --input")
    p.add_argument("--n", type=int)
    p.add_argument("--input", help="CSV of values (column 'value')")
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
        return _DISPATCH[args.command](opt)
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
