"""The four workloads: the inputs each makes, the commands of one round, and
the checks on what those commands write.

Every workload draws its inputs from the seed alone, so the same seed gives
the same inputs and the same output bytes.  The program receives only
files and command-line arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

PARETO = "pareto:2"
LARGE_N = 1_000_000
SMALL_N = 10_000
GRID = (10_000, 100_000, 1_000_000)
# Enough replications that the n = 1e6 median beats the n = 1e4 median on
# every seed: with 4 replications the positive case misses on about 1 seed
# in 40, with 20 on about 1 in 10 000 (bootstrap over 200 replications).
CONVERGE_CASES = {
    "positive": ("pareto:2", 20),
    "negative": ("beta:2,2", 4),
    "zero": ("exp:1", 4),
}
SMALL_GRID = (1_000, 10_000)

DAILY_START = np.datetime64("2001-01-01")
DAILY_PHI = checks.AR_PHI
DAILY_AMPLITUDE = 0.75
DAILY_BURN_IN = 1000
SMALL_YEARS, LARGE_YEARS = 10, 200
# The duplicate sits in the first data row past the middle of the 73 048
# days; the rejection must name the date it repeats.
DUP_ROW = 36_525


@dataclass
class Op:
    """One command of a round; `check` reads its outputs after the round."""

    name: str
    args: list
    out: Path | None = None
    expect: int = 0
    check: Callable[["Result"], list] = field(default=lambda r: [])


@dataclass
class Result:
    op: Op
    wall: float
    cpu: float
    rss_mb: float
    returncode: int | None
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# inputs


def daily_series(years: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seasonal scale x AR(2) x centred Pareto(5) innovations, one value a day."""
    end = np.datetime64(f"{2001 + years}-01-01")
    dates = np.arange(DAILY_START, end, dtype="datetime64[D]")
    n = dates.size
    rng = np.random.Generator(np.random.PCG64([seed, years]))
    eps = (1.0 - rng.random(n + DAILY_BURN_IN)) ** -0.2  # Pareto(5) on [1, inf)
    eps = (eps - eps.mean()).tolist()
    phi1, phi2 = DAILY_PHI
    x = [0.0, 0.0]
    for t in range(2, len(eps)):
        x.append(phi1 * x[t - 1] + phi2 * x[t - 2] + eps[t])
    latent = np.asarray(x[DAILY_BURN_IN:])
    day_of_year = (dates - dates.astype("datetime64[Y]")).astype(int)
    scale = 1.0 + DAILY_AMPLITUDE * np.sin(2.0 * math.pi * day_of_year / 365.25)
    return dates, scale * latent


def write_daily(path: Path, dates: np.ndarray, values: np.ndarray, dup_row: int | None = None) -> str | None:
    """Write date,value rows; with dup_row, that data row repeats the date before it."""
    rows = [f"{d},{v!r}" for d, v in zip(dates.astype(str), values.tolist())]
    dup = None
    if dup_row is not None:
        dup = str(dates[dup_row - 2])
        rows.insert(dup_row - 1, rows[dup_row - 2])
    path.write_text("date,value\n" + "\n".join(rows) + "\n")
    return dup


def make_inputs(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's input files; return what the checks need to know."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "cli-small":
        path = inputs / "daily10.csv"
        write_daily(path, *daily_series(SMALL_YEARS, seed))
        return {"daily": path}
    if workload == "daily-analyze":
        dates, values = daily_series(LARGE_YEARS, seed)
        path, dup_path = inputs / "daily200.csv", inputs / "daily200_dup.csv"
        write_daily(path, dates, values)
        dup = write_daily(dup_path, dates, values, DUP_ROW)
        return {"daily": path, "daily_dup": dup_path, "dup_date": dup}
    return {}


# ---------------------------------------------------------------------------
# rounds


def _cmd(*args) -> list:
    return [str(a) for a in args]


def _svgs(out: Path, *names) -> list:
    return [p for name in names for p in checks.check_svg(out / name)]


def _sample_ops(seed: int, n: int, rd: Path, large: bool) -> list:
    sim, me, est = rd / "simulate", rd / "meplot", rd / "estimate"
    sample = sim / "sample.csv"
    cache = {}

    def desc():
        if "desc" not in cache:  # read once for all checks of the round
            cache["desc"] = np.sort(checks.read_values(sample))[::-1]
        return cache["desc"]

    def check_simulate(r):
        got = desc().size
        return [] if got == n else [f"{sample}: {got} values, expected {n}"]

    def check_meplot(r):
        problems = checks.check_me_plot(desc(), me)
        if large:
            problems += checks.check_pareto2_fit(desc(), me / "summary.txt")
        return problems + _svgs(me, "me_plot.svg")

    def check_estimate(r):
        return checks.check_traces(desc(), est) + _svgs(est, "traces.svg", "qq_pos.svg")

    return [
        Op("simulate", _cmd("simulate", "--model", PARETO, "--n", n, "--seed", seed, "--out", sim),
           sim, check=check_simulate),
        Op("meplot", _cmd("meplot", "--input", sample, "--out", me), me, check=check_meplot),
        Op("estimate", _cmd("estimate", "--input", sample, "--out", est), est, check=check_estimate),
    ]


def _converge_op(case: str, seed: int, rd: Path, grid, reps: int, fmt: str, converges: bool) -> Op:
    model = CONVERGE_CASES[case][0]
    out = rd / f"converge_{case}"
    args = _cmd("converge", "--model", model, "--case", case, "--n-grid", ",".join(map(str, grid)),
                "--reps", reps, "--seed", seed, "--format", fmt, "--out", out)

    def check(r):
        problems = checks.check_distances(out, grid, reps, converges)
        return problems + (_svgs(out, "convergence.svg") if "svg" in fmt else [])

    return Op(f"converge_{case}", args, out, check=check)


def _analyze_op(daily: Path, rd: Path, phi_tol: float, xi_tol: float | None) -> Op:
    out = rd / "analyze"

    def check(r):
        problems = checks.check_profile(daily, out / "profile.csv")
        problems += checks.check_ar(out / "ar.txt", phi_tol)
        if xi_tol is not None:
            problems += checks.check_residual_shape(out / "summary.txt", xi_tol)
        return problems + _svgs(out, "residual_me.svg")

    return Op("analyze", _cmd("analyze", "--input", daily, "--out", out), out, check=check)


def round_ops(workload: str, seed: int, facts: dict, rd: Path) -> list:
    """The commands of one round, in the order a user would run them."""
    if workload == "cli-small":
        def check_version(r):
            return [] if r.stdout.startswith("tailscope ") else [f"--version printed {r.stdout!r}"]

        return (
            [Op("startup", ["--version"], check=check_version)]
            + _sample_ops(seed, SMALL_N, rd, large=False)
            + [_converge_op("positive", seed, rd, SMALL_GRID, 4, "csv,svg", converges=False),
               _analyze_op(facts["daily"], rd, phi_tol=0.15, xi_tol=None)]
        )
    if workload == "files-large":
        return _sample_ops(seed, LARGE_N, rd, large=True)
    if workload == "converge-grid":
        return [_converge_op(case, seed, rd, GRID, reps, "csv", converges=True)
                for case, (_, reps) in CONVERGE_CASES.items()]
    if workload == "daily-analyze":
        reject_out = rd / "analyze_reject"
        date = facts["dup_date"]
        return [
            _analyze_op(facts["daily"], rd, phi_tol=0.03, xi_tol=0.1),
            Op("analyze_reject", _cmd("analyze", "--input", facts["daily_dup"], "--out", reject_out),
               reject_out, expect=4, check=lambda r: checks.check_rejected(r.returncode, r.stderr, date)),
        ]
    raise KeyError(workload)


WORKLOADS = ("cli-small", "files-large", "converge-grid", "daily-analyze")
